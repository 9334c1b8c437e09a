//===- tools/ppstress.cpp - Real-concurrency stress runner --------------------===//
//
// Drives N OS worker threads, each running a TM engine instance over a
// shared spec, through the sharded commit arbiter.  Every engine step is
// recorded into per-worker lock-free rings; a checker thread
// shadow-replays each captured window through the single-threaded
// machine and validates it against the atomic oracle (Theorem 5.17) and
// the Section 6.1 opaque fragment.  Failing windows dump `.ppsched`
// reproducers that --replay re-executes deterministically.
//
//   ppstress --engine boosting --spec counter --workers 8
//   ppstress --all-engines --workers 4
//   ppstress --replay failure.ppsched
//
// Options:
//   --engine NAME          TM engine (default boosting)
//   --spec KIND            spec kind (default counter)
//   --workers N            OS worker threads (default 4)
//   --threads-per-worker N logical machine threads per worker (default 2)
//   --rounds N             workload rounds per worker (default 6)
//   --duration-ms N        run rounds until the wall clock expires
//                          (overrides --rounds)
//   --think-us N           client think time after each commit (the E13
//                          latency-bound scaling mode)
//   --tx N / --ops N       transactions per thread / ops per transaction
//   --seed N               master seed (default 1)
//   --stripes N            arbiter lock stripes (default 8)
//   --window N             commits per arbiter window (default 16)
//   --inject NAME          fault injection: skip the named Figure 5
//                          criterion in every machine (the checker must
//                          then convict the run)
//   --expect-failure       exit 0 iff the run DID fail (for harnesses
//                          demonstrating fault injection end to end)
//   --dump-dir DIR         where failing windows write .ppsched files
//                          (default: current directory)
//   --no-check             disable window checking (pure throughput)
//   --all-engines          run every engine over the chosen spec
//   --bench                one-line machine-readable summary per run
//   --replay FILE          re-execute a .ppsched reproducer through the
//                          differential battery
//
// Exit status: 0 clean, 1 failure detected (inverted by
// --expect-failure), 2 usage/build error.  --replay: 0 clean, 1
// discrepancy, 2 error.
//
//===----------------------------------------------------------------------===//

#include "CliArgs.h"
#include "fuzz/DiffRunner.h"
#include "sim/Scenario.h"
#include "stress/StressRunner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace pushpull;

static int replay(const char *Path) {
  ScenarioFile F = loadScenarioFile(Path);
  if (!F.ok()) {
    std::fprintf(stderr, "%s\n", F.Diagnostic.c_str());
    return 2;
  }
  const Scenario &Case = *F.Parsed;
  DiffReport R = DiffRunner().run(Case);
  std::printf("replay: %s (engine %s, %zu threads, %zu picks%s)\n%s", Path,
              Case.Engine.c_str(), Case.Threads.size(),
              Case.ReplayPicks.size(),
              Case.DisabledCriterion.empty()
                  ? ""
                  : (", inject " + Case.DisabledCriterion).c_str(),
              R.toString().c_str());
  if (!R.Built)
    return 2;
  std::printf("%s\n", R.discrepancy() ? "DISCREPANCY" : "OK");
  return R.discrepancy() ? 1 : 0;
}

static int runOne(const StressConfig &C, bool Bench) {
  StressOutcome O = StressRunner(C).run();
  if (Bench) {
    std::printf("BENCH engine=%s spec=%s workers=%u commits=%llu "
                "commits_per_sec=%.1f aborts=%llu windows=%llu "
                "elapsed_sec=%.3f\n",
                C.Engine.c_str(), C.SpecKind.c_str(), C.Workers,
                static_cast<unsigned long long>(O.Stats.Commits),
                O.Stats.commitsPerSec(),
                static_cast<unsigned long long>(O.Stats.Aborts),
                static_cast<unsigned long long>(O.Stats.Windows),
                O.Stats.ElapsedSec);
  } else {
    std::printf("%-14s %s\n", C.Engine.c_str(), O.Stats.toString().c_str());
  }
  for (const std::string &F : O.Failures)
    std::printf("  FAILURE: %s\n", F.c_str());
  for (const std::string &P : O.DumpFiles)
    std::printf("  reproducer: %s\n", P.c_str());
  return O.ok() ? 0 : 1;
}

int main(int argc, char **argv) {
  StressConfig C;
  C.DumpDir = ".";
  bool AllEngines = false, Bench = false, ExpectFailure = false;
  const char *ReplayPath = nullptr;

  auto StrArg = [&](int &I, const char *Flag, const char *&Out) {
    if (std::strcmp(argv[I], Flag) != 0)
      return false;
    if (I + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs an argument\n", Flag);
      std::exit(2);
    }
    Out = argv[++I];
    return true;
  };

  for (int I = 1; I < argc; ++I) {
    const char *S = nullptr;
    if (StrArg(I, "--replay", S)) {
      ReplayPath = S;
      continue;
    }
    if (StrArg(I, "--engine", S)) {
      C.Engine = S;
      continue;
    }
    if (StrArg(I, "--spec", S)) {
      C.SpecKind = S;
      continue;
    }
    if (StrArg(I, "--inject", S)) {
      C.DisabledCriterion = S;
      continue;
    }
    if (StrArg(I, "--dump-dir", S)) {
      C.DumpDir = S;
      continue;
    }
    if (numericFlag(argc, argv, I, "--workers", C.Workers, 1,
                    MaxThreadsFlag) ||
        numericFlag(argc, argv, I, "--threads-per-worker", C.ThreadsPerWorker,
                    1, MaxThreadsFlag) ||
        numericFlag(argc, argv, I, "--rounds", C.Rounds) ||
        numericFlag(argc, argv, I, "--duration-ms", C.DurationMs) ||
        numericFlag(argc, argv, I, "--think-us", C.ThinkUs) ||
        // A round's dump must parse again: keep its programs well inside
        // the parser's nesting bound (lang/Parser.h).
        numericFlag(argc, argv, I, "--tx", C.TxPerThread, 0, 256) ||
        numericFlag(argc, argv, I, "--ops", C.OpsPerTx, 0, 256) ||
        numericFlag(argc, argv, I, "--seed", C.Seed) ||
        numericFlag(argc, argv, I, "--stripes", C.Stripes, 0, 1 << 16) ||
        numericFlag(argc, argv, I, "--window", C.WindowCommits))
      continue;
    if (std::strcmp(argv[I], "--no-check") == 0) {
      C.CheckWindows = false;
      continue;
    }
    if (std::strcmp(argv[I], "--all-engines") == 0) {
      AllEngines = true;
      continue;
    }
    if (std::strcmp(argv[I], "--bench") == 0) {
      Bench = true;
      continue;
    }
    if (std::strcmp(argv[I], "--expect-failure") == 0) {
      ExpectFailure = true;
      continue;
    }
    std::fprintf(
        stderr,
        "usage: ppstress [--engine NAME] [--spec KIND] [--workers N]\n"
        "                [--threads-per-worker N] [--rounds N]\n"
        "                [--duration-ms N] [--think-us N] [--tx N] [--ops N]\n"
        "                [--seed N] [--stripes N] [--window N]\n"
        "                [--inject NAME] [--expect-failure] [--dump-dir D]\n"
        "                [--no-check] [--all-engines] [--bench]\n"
        "       ppstress --replay <file.ppsched>\n");
    return 2;
  }

  if (ReplayPath)
    return replay(ReplayPath);

  int Rc = 0;
  if (AllEngines) {
    for (const std::string &E : allEngineNames()) {
      StressConfig EC = C;
      EC.Engine = E;
      Rc |= runOne(EC, Bench);
    }
  } else {
    Rc = runOne(C, Bench);
  }
  if (ExpectFailure)
    Rc = Rc ? 0 : 1;
  return Rc;
}
