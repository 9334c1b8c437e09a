//===- tools/ppfuzz.cpp - Differential fuzzer ---------------------------------===//
//
// Differential fuzzing of the TM engines against the PUSH/PULL model.
// Each generated case runs one engine over a random program and is
// cross-checked three ways: atomic-oracle replay (Theorem 5.17),
// opaque-fragment classification (Section 6.1), and the Section 5.3
// invariants after every rule firing.  Discrepancies are delta-debugged
// to a 1-minimal reproducer written as a replayable scenario file.
//
//   ppfuzz --seed 1 --runs 500                    run a campaign
//   ppfuzz --replay scenarios/regress/foo.pp      re-run one reproducer
//
// Options:
//   --seed N             campaign seed (default 1)
//   --runs N             cases to run (default 500)
//   --max-seconds S      wall-clock budget (default unlimited)
//   --engines a,b,...    restrict to these engines (default: all ten)
//   --specs a,b,...      restrict to these spec kinds (default: all six
//                        primitives plus "composite" two-part mixes)
//   --mutant-pct N       share of runs mutating a past case (default 30)
//   --repro-dir DIR      where reproducers go (default scenarios/regress)
//   --no-shrink          report discrepancies unshrunk
//   --disable-criterion "PUSH criterion (ii)"
//                        fault injection: skip the named Figure 5
//                        criterion (demonstrates the harness catches and
//                        minimizes a planted bug)
//   --quiet              suppress per-run progress lines
//
// Exit status 0 iff the campaign found no discrepancy and every engine
// exercised its whole expected rule set (replay: no discrepancy).
//
//===----------------------------------------------------------------------===//

#include "CliArgs.h"
#include "fuzz/Campaign.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pushpull;

static std::vector<std::string> splitList(const char *Arg) {
  std::vector<std::string> Out;
  std::string Cur;
  for (const char *P = Arg;; ++P) {
    if (*P == ',' || *P == '\0') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
      if (*P == '\0')
        break;
    } else {
      Cur += *P;
    }
  }
  return Out;
}

static int replay(const char *Path, const DiffConfig &Diff) {
  ScenarioFile F = loadScenarioFile(Path);
  if (!F.ok()) {
    std::fprintf(stderr, "%s\n", F.Diagnostic.c_str());
    return 2;
  }
  const Scenario &Case = *F.Parsed;
  DiffReport R = DiffRunner(Diff).run(Case);
  std::printf("replay: %s (engine %s, %zu threads)\n%s", Path,
              Case.Engine.c_str(), Case.Threads.size(), R.toString().c_str());
  if (!R.Built) {
    return 2;
  }
  std::printf("%s\n", R.discrepancy()      ? "DISCREPANCY"
                      : R.inconclusive()   ? "INCONCLUSIVE"
                                           : "OK");
  return R.discrepancy() ? 1 : 0;
}

int main(int argc, char **argv) {
  CampaignConfig C;
  C.ReproDir = "scenarios/regress";
  C.Verbose = true;

  const char *ReplayPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--replay") == 0) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: --replay needs a scenario file\n");
        return 2;
      }
      ReplayPath = argv[++I];
      continue;
    }
    if (numericFlag(argc, argv, I, "--seed", C.Gen.Seed) ||
        numericFlag(argc, argv, I, "--runs", C.Runs) ||
        numericFlag(argc, argv, I, "--max-seconds", C.MaxSeconds, 0,
                    UINT32_MAX) ||
        numericFlag(argc, argv, I, "--mutant-pct", C.MutantPct, 0, 100))
      continue;
    if (std::strcmp(argv[I], "--engines") == 0 && I + 1 < argc) {
      C.Gen.Engines = splitList(argv[++I]);
      continue;
    }
    if (std::strcmp(argv[I], "--specs") == 0 && I + 1 < argc) {
      C.Gen.SpecKinds = splitList(argv[++I]);
      continue;
    }
    if (std::strcmp(argv[I], "--repro-dir") == 0 && I + 1 < argc) {
      C.ReproDir = argv[++I];
      continue;
    }
    if (std::strcmp(argv[I], "--disable-criterion") == 0 && I + 1 < argc) {
      C.Diff.DisabledCriterion = argv[++I];
      continue;
    }
    if (std::strcmp(argv[I], "--no-shrink") == 0) {
      C.ShrinkFailures = false;
      continue;
    }
    if (std::strcmp(argv[I], "--quiet") == 0) {
      C.Verbose = false;
      continue;
    }
    std::fprintf(
        stderr,
        "usage: ppfuzz [--seed N] [--runs N] [--max-seconds S]\n"
        "              [--engines a,b,...] [--specs a,b,...]\n"
        "              [--mutant-pct N] [--repro-dir DIR] [--no-shrink]\n"
        "              [--disable-criterion NAME] [--quiet]\n"
        "       ppfuzz --replay <scenario-file>\n");
    return 2;
  }

  if (ReplayPath)
    return replay(ReplayPath, C.Diff);

  auto T0 = std::chrono::steady_clock::now();
  CampaignReport R = Campaign(C).run();
  double Secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
                    .count();
  std::printf("%s", R.toString().c_str());
  std::printf("throughput: %.1f execs/s (%llu runs in %.2fs)\n",
              Secs > 0 ? static_cast<double>(R.RunsDone) / Secs : 0.0,
              static_cast<unsigned long long>(R.RunsDone), Secs);
  return R.ok() ? 0 : 1;
}
