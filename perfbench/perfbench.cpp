//===- perfbench/perfbench.cpp - The pushpull benchmark ------------------===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One program for the five benchmark workloads (see perfbench/README.md):
///
///   perfbench --root DIR --workload NAME --seed N --seconds S --trace 0|1
///             [--self-test]
///
/// The benchmark links the pushpull library and measures it from outside: it
/// times only its own calls into the layers' public functions and reads
/// the counters the library already exposes (ExplorerReport, CacheStats,
/// StressStats, CampaignReport, the audit reports, memstats).
///
/// --trace 0 repeats the workload's unit of work until --seconds is spent
/// (at least twice), checks every repetition for correctness, requires
/// every exact count to repeat, and reports the end-to-end metrics as
/// medians.  --trace 1 runs one plain repetition for the exact counts and
/// the reference time, then an instrumented pass that captures inputs
/// through the library's hooks and times the public calls on them, and
/// reports the per-layer metrics, each layer's share of the workload's
/// time, the unattributed remainder and the tracing overhead.  Spans are
/// kept in memory and written to .bench_build/traces/ at the end.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
///
//===----------------------------------------------------------------------===//

#include "analysis/IndependenceAudit.h"
#include "analysis/MoverTable.h"
#include "analysis/Obligations.h"
#include "check/Serializability.h"
#include "fuzz/Campaign.h"
#include "sim/Explorer.h"
#include "sim/Scenario.h"
#include "spec/CounterSpec.h"
#include "spec/RegisterSpec.h"
#include "stress/Arbiter.h"
#include "stress/StressRunner.h"
#include "tm/Engine.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

using namespace pushpull;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double nsSince(Clock::time_point T0) { return secondsSince(T0) * 1e9; }

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

/// Nearest-rank percentile of \p Xs, \p P in [0, 100].
double percentile(std::vector<double> Xs, double P) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Xs.size()));
  return Xs[Rank ? Rank - 1 : 0];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Keeps timed results observable so the optimizer cannot drop the calls.
std::atomic<uint64_t> Sink{0};
void keep(uint64_t V) { Sink.fetch_add(V, std::memory_order_relaxed); }

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span log of the traced run.  A span covers one batch of calls
/// into a layer; Count is the number of calls in it.
class Tracer {
public:
  struct Span {
    std::string Name;
    int Parent = -1;
    double StartNs = 0, EndNs = 0;
    uint64_t Count = 0;
  };

  int begin(const std::string &Name, int Parent = -1) {
    Spans.push_back({Name, Parent, nsSince(T0), 0, 0});
    return static_cast<int>(Spans.size() - 1);
  }
  /// Close span \p Id; returns its duration in ns.
  double end(int Id, uint64_t Count = 1) {
    Span &S = Spans[static_cast<size_t>(Id)];
    S.EndNs = nsSince(T0);
    S.Count = Count;
    return S.EndNs - S.StartNs;
  }
  size_t size() const { return Spans.size(); }

  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out << "[\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << "  {\"id\": " << I << ", \"name\": \"" << S.Name
          << "\", \"parent\": " << S.Parent << ", \"start_ns\": "
          << static_cast<uint64_t>(S.StartNs)
          << ", \"end_ns\": " << static_cast<uint64_t>(S.EndNs)
          << ", \"count\": " << S.Count << "}"
          << (I + 1 < Spans.size() ? ",\n" : "\n");
    }
    Out << "]\n";
    return static_cast<bool>(Out);
  }

private:
  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
};

/// Cost of one span (begin + end), for workloads whose instrumented pass
/// is not a rerun of the measured work.
double spanCostNs() {
  Tracer T;
  const int N = 20000;
  auto T0 = Clock::now();
  for (int I = 0; I < N; ++I)
    T.end(T.begin("probe"));
  return nsSince(T0) / N;
}

//===----------------------------------------------------------------------===//
// Repetitions and results
//===----------------------------------------------------------------------===//

using Counts = std::map<std::string, uint64_t>;

/// One repetition of a workload's unit of work.
struct Rep {
  double SetupS = 0;
  double VerdictS = 0;
  /// Items adjudicated (terminals, cases, windows, audit items) and how
  /// many of them failed.
  uint64_t Items = 0;
  uint64_t FailedItems = 0;
  /// Units of work completed, for the throughput metric (configs, cases,
  /// commits, audit probes plus diamond pairs).
  uint64_t Units = 0;
  /// Counts that must repeat exactly across repetitions.
  Counts Exact;
  /// Work counters that legitimately vary run to run (the parallel
  /// explorer's work-performed counters, the stress window count).
  std::map<std::string, double> Work;
  /// Failed correctness checks.
  std::vector<std::string> Problems;

  void expect(bool Ok, const std::string &What) {
    if (!Ok)
      Problems.push_back(What);
  }
  void expectEq(uint64_t Got, uint64_t Want, const std::string &What) {
    if (Got != Want)
      Problems.push_back(What + ": got " + std::to_string(Got) +
                         ", expected " + std::to_string(Want));
  }
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Output {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void absorb(const Rep &R) {
    Attempted += R.Items;
    Failed += R.FailedItems + R.Problems.size();
    for (const std::string &P : R.Problems)
      Problems.push_back(P);
  }
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void printResult(const Output &O) {
  std::string J = "{\"correct\": ";
  J += O.Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(std::max<uint64_t>(O.Attempted, 1));
  J += ", \"failed\": " + std::to_string(O.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < O.Metrics.size(); ++I) {
    const Metric &M = O.Metrics[I];
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
         jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

/// Compare every exact count of \p Reps against the first repetition.
void checkDeterminism(const std::vector<Rep> &Reps,
                      std::vector<std::string> &Problems) {
  for (size_t I = 1; I < Reps.size(); ++I) {
    if (Reps[I].Exact.size() != Reps[0].Exact.size())
      Problems.push_back("count set differs between repetitions 1 and " +
                         std::to_string(I + 1));
    for (const auto &[Name, V] : Reps[0].Exact) {
      auto It = Reps[I].Exact.find(Name);
      if (It != Reps[I].Exact.end() && It->second != V)
        Problems.push_back("count " + Name + " differs: " + std::to_string(V) +
                           " in repetition 1, " + std::to_string(It->second) +
                           " in repetition " + std::to_string(I + 1));
    }
  }
}

/// Identity of this binary: counts are only comparable within one build.
std::string buildId() {
  std::error_code EC;
  auto Exe = std::filesystem::read_symlink("/proc/self/exe", EC);
  if (EC)
    return "unknown";
  auto Stamp = std::filesystem::last_write_time(Exe, EC);
  auto Size = std::filesystem::file_size(Exe, EC);
  if (EC)
    return "unknown";
  return std::to_string(Stamp.time_since_epoch().count()) + "-" +
         std::to_string(Size);
}

/// The first run of a build records its exact counts per (workload, seed)
/// under \p Dir; every later run of the same build must reproduce them.
void checkAgainstRecord(const std::string &Dir, const std::string &Key,
                        const Counts &C, std::vector<std::string> &Problems) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Path = Dir + "/" + Key + ".counts";
  std::string Build = buildId();
  std::ifstream In(Path);
  std::string Tag, Recorded;
  if (In >> Tag >> Recorded && Tag == "build" && Recorded == Build &&
      Build != "unknown") {
    // Lines are "<value> <name>"; names may contain spaces.
    Counts Old;
    std::string Name;
    uint64_t V = 0;
    while (In >> V && std::getline(In >> std::ws, Name))
      Old[Name] = V;
    for (const auto &[N, Want] : Old) {
      auto It = C.find(N);
      if (It == C.end())
        Problems.push_back("count " + N + " missing against " + Path);
      else if (It->second != Want)
        Problems.push_back("count " + N + " differs from an earlier run: " +
                           std::to_string(It->second) + " now, " +
                           std::to_string(Want) + " recorded in " + Path);
    }
    if (Old.size() != C.size())
      Problems.push_back("count set differs from " + Path);
    return;
  }
  std::ofstream Out(Path);
  Out << "build " << Build << "\n";
  for (const auto &[N, V] : C)
    Out << V << " " << N << "\n";
}

uint64_t exact(const Rep &R, const std::string &Name) {
  auto It = R.Exact.find(Name);
  return It == R.Exact.end() ? 0 : It->second;
}

double work(const Rep &R, const std::string &Name) {
  auto It = R.Work.find(Name);
  if (It != R.Work.end())
    return It->second;
  return static_cast<double>(exact(R, Name));
}

void addMemory(Rep &R, const memstats::Snapshot &M, bool Exact) {
  auto Put = [&](const char *Name, uint64_t V) {
    if (Exact)
      R.Exact[Name] = V;
    else
      R.Work[Name] = static_cast<double>(V);
  };
  Put("machine_copies", M.MachineCopies);
  Put("deep_copies", M.DeepCopies);
  Put("chunk_shares", M.ChunkShares);
  Put("snapshot_bytes", M.SnapshotBytes);
  // Arena blocks are recycled across runs, so the bytes drawn vary.
  R.Work["arena_bytes"] = static_cast<double>(M.ArenaBytes);
}

std::string readFile(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open " + Path;
    return "";
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

//===----------------------------------------------------------------------===//
// Timing the machine layers on captured configurations
//===----------------------------------------------------------------------===//

/// Configurations captured from one spec's runs, re-pointed at a mover
/// checker the benchmark owns (the run's own checkers may be gone).
struct SampleGroup {
  std::shared_ptr<const SequentialSpec> Spec;
  std::unique_ptr<MoverChecker> Movers;
  std::vector<PushPullMachine> Samples;
  std::vector<PushPullMachine> Terminals;
  /// Oracle limits the workload uses.
  AtomicLimits Atomic;
};

/// Thread-safe capture of machines through MachineConfig::OnRuleApplied
/// (every Every-th applied rule) and ExplorerConfig::OnTerminal.
class Capture {
public:
  Capture(uint64_t Every, size_t MaxSamples, size_t MaxTerminals)
      : Every(Every ? Every : 1), MaxSamples(MaxSamples),
        MaxTerminals(MaxTerminals) {}

  std::function<void(const PushPullMachine &, RuleKind, TxId)> onRule() {
    return [this](const PushPullMachine &M, RuleKind, TxId) {
      if (Seen.fetch_add(1, std::memory_order_relaxed) % Every)
        return;
      std::lock_guard<std::mutex> G(Lock);
      if (Samples.size() < MaxSamples)
        Samples.push_back(M);
    };
  }
  std::function<void(const PushPullMachine &)> onTerminal() {
    return [this](const PushPullMachine &M) {
      std::lock_guard<std::mutex> G(Lock);
      if (Terminals.size() < MaxTerminals)
        Terminals.push_back(M);
    };
  }

  /// Move the captured machines into \p Group, with the hooks cleared.
  void drainInto(SampleGroup &Group) {
    std::lock_guard<std::mutex> G(Lock);
    auto Plain = [&](PushPullMachine &M) {
      MachineConfig MC = M.config();
      MC.OnRuleApplied = nullptr;
      M.setConfig(MC);
      M.setMovers(*Group.Movers);
    };
    for (PushPullMachine &M : Samples) {
      Plain(M);
      Group.Samples.push_back(std::move(M));
    }
    for (PushPullMachine &M : Terminals) {
      Plain(M);
      Group.Terminals.push_back(std::move(M));
    }
    Samples.clear();
    Terminals.clear();
  }

private:
  const uint64_t Every;
  const size_t MaxSamples, MaxTerminals;
  std::atomic<uint64_t> Seen{0};
  std::mutex Lock;
  std::vector<PushPullMachine> Samples;
  std::vector<PushPullMachine> Terminals;
};

/// ns per call of each machine-level public function, over the captured
/// configurations.  Zero where the layer was not timed.
struct MachineLayers {
  double CopyNs = 0;
  double KeyNs = 0, KeyBytes = 0;
  double FireAppliedNs = 0, FireRejectedNs = 0;
  double TransitionNs = 0;
  double MoverHitNs = 0, MoverMissNs = 0;
  double OracleNs = 0;
  uint64_t Samples = 0;
};

/// The layers timed on every workload with captured machines are the copy,
/// the firing and the spec transitions; these are the optional ones.
struct LayerPlan {
  /// Time the visited-map key (explore only).
  std::function<std::string(const PushPullMachine &)> KeyOf;
  bool Mover = false;
  bool Oracle = false;
};

/// Run \p Body repeatedly until at least 50 ms of calls have been timed
/// (at most 50 passes); returns ns per call.  Body returns the calls it
/// made.
double timeLoop(Tracer &T, int Parent, const std::string &Name,
                const std::function<uint64_t()> &Body) {
  const double MinNs = 5e7;
  double Ns = 0;
  uint64_t Calls = 0;
  for (int Pass = 0; Pass < 50 && (Ns < MinNs || Pass == 0); ++Pass) {
    int S = T.begin(Name, Parent);
    uint64_t C = Body();
    Ns += T.end(S, C);
    Calls += C;
    if (!C)
      break;
  }
  return ratio(Ns, static_cast<double>(Calls));
}

MachineLayers timeMachineLayers(std::vector<SampleGroup> &Groups,
                                const LayerPlan &Plan, Tracer &T,
                                int Parent) {
  MachineLayers L;
  for (const SampleGroup &G : Groups)
    L.Samples += G.Samples.size();

  L.CopyNs = timeLoop(T, Parent, "core.copy", [&] {
    uint64_t N = 0;
    for (const SampleGroup &G : Groups)
      for (const PushPullMachine &M : G.Samples) {
        PushPullMachine C(M);
        keep(C.threads().size());
        ++N;
      }
    return N;
  });

  if (Plan.KeyOf) {
    uint64_t Bytes = 0, Keys = 0;
    for (const SampleGroup &G : Groups)
      for (const PushPullMachine &M : G.Samples) {
        Bytes += Plan.KeyOf(M).size();
        ++Keys;
      }
    L.KeyBytes = ratio(static_cast<double>(Bytes), static_cast<double>(Keys));
    L.KeyNs = timeLoop(T, Parent, "sim.key", [&] {
      uint64_t N = 0;
      for (const SampleGroup &G : Groups)
        for (const PushPullMachine &M : G.Samples) {
          keep(Plan.KeyOf(M).size());
          ++N;
        }
      return N;
    });
  }

  {
    // Classify every candidate of every sample once, then time applied and
    // rejected firings separately on fresh copies prepared outside the
    // timed loop (the copy cost is core.copy's).
    struct Job {
      const PushPullMachine *M;
      Firing F;
    };
    std::vector<Job> Applied, Rejected;
    const size_t MaxJobs = 20000;
    for (const SampleGroup &G : Groups)
      for (const PushPullMachine &M : G.Samples)
        for (const Candidate &C : allCandidates(M)) {
          PushPullMachine Probe(M);
          std::vector<Job> &Into = applyFiring(Probe, C.F) ? Applied : Rejected;
          if (Into.size() < MaxJobs)
            Into.push_back({&M, C.F});
        }
    auto TimeJobs = [&](const std::vector<Job> &Jobs, const char *Name) {
      double Ns = 0;
      const size_t Batch = 256;
      for (size_t I = 0; I < Jobs.size(); I += Batch) {
        size_t E = std::min(Jobs.size(), I + Batch);
        std::vector<PushPullMachine> Copies;
        Copies.reserve(E - I);
        for (size_t J = I; J < E; ++J)
          Copies.push_back(*Jobs[J].M);
        int S = T.begin(Name, Parent);
        uint64_t Ok = 0;
        for (size_t J = I; J < E; ++J)
          Ok += applyFiring(Copies[J - I], Jobs[J].F);
        Ns += T.end(S, E - I);
        keep(Ok);
      }
      return ratio(Ns, static_cast<double>(Jobs.size()));
    };
    L.FireAppliedNs = TimeJobs(Applied, "core.fire.applied");
    L.FireRejectedNs = TimeJobs(Rejected, "core.fire.rejected");
  }

  {
    // Fold every captured shared log through the interned transition
    // function, as the criteria and the local/global views do.
    struct Fold {
      const SequentialSpec *Spec;
      std::vector<Operation> Ops;
    };
    std::vector<Fold> Folds;
    for (const SampleGroup &G : Groups)
      for (const PushPullMachine &M : G.Samples)
        Folds.push_back({G.Spec.get(), M.global().ops()});
    L.TransitionNs = timeLoop(T, Parent, "spec.transition", [&] {
      uint64_t N = 0;
      for (const Fold &F : Folds) {
        StateSetId S = F.Spec->initialId();
        for (const Operation &Op : F.Ops)
          S = F.Spec->applyOpId(S, Op);
        keep(S);
        N += F.Ops.size();
      }
      return N;
    });
  }

  if (Plan.Mover) {
    // Cold pass on a fresh checker (memo misses, reachable-set
    // enumeration), then a warm pass (memo hits) over the same pairs.
    double MissNs = 0, HitNs = 0;
    uint64_t Misses = 0, Hits = 0, ColdCalls = 0;
    for (const SampleGroup &G : Groups) {
      std::vector<Operation> Ops;
      for (const PushPullMachine &M : G.Samples) {
        for (const Operation &Op : M.global().ops())
          Ops.push_back(Op);
        if (Ops.size() >= 12)
          break;
      }
      if (Ops.size() > 12)
        Ops.resize(12);
      if (Ops.empty())
        continue;
      MoverChecker Fresh(*G.Spec, G.Movers->limits());
      int S = T.begin("core.mover.cold", Parent);
      for (const Operation &A : Ops)
        for (const Operation &B : Ops)
          keep(static_cast<uint64_t>(Fresh.leftMover(A, B)));
      uint64_t N = Ops.size() * Ops.size();
      MissNs += T.end(S, N);
      ColdCalls += N;
      Misses += Fresh.memoMisses();
      S = T.begin("core.mover.warm", Parent);
      for (const Operation &A : Ops)
        for (const Operation &B : Ops)
          keep(static_cast<uint64_t>(Fresh.leftMover(A, B)));
      HitNs += T.end(S, N);
      Hits += N;
    }
    L.MoverHitNs = ratio(HitNs, static_cast<double>(Hits));
    // The cold pass's own memo hits cost what a warm call costs.
    double ColdHits = static_cast<double>(ColdCalls - Misses);
    L.MoverMissNs =
        ratio(MissNs - ColdHits * L.MoverHitNs, static_cast<double>(Misses));
  }

  if (Plan.Oracle) {
    double Ns = 0;
    uint64_t Calls = 0;
    for (const SampleGroup &G : Groups)
      for (const PushPullMachine &M : G.Terminals) {
        SerializabilityChecker Oracle(*G.Spec, G.Atomic);
        int S = T.begin("check.oracle", Parent);
        SerializabilityVerdict V = Oracle.checkCommitOrder(M);
        Ns += T.end(S);
        keep(static_cast<uint64_t>(V.Serializable));
        ++Calls;
      }
    L.OracleNs = ratio(Ns, static_cast<double>(Calls));
  }
  return L;
}

/// Weighted ns per leftMover call at the workload's own hit/miss mix.
double moverNs(const MachineLayers &L, uint64_t Hits, uint64_t Misses) {
  return ratio(L.MoverHitNs * static_cast<double>(Hits) +
                   L.MoverMissNs * static_cast<double>(Misses),
               static_cast<double>(Hits + Misses));
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// The fault every self-test injects (an existing MachineConfig /
/// StressConfig injection point).
const char *const SelfTestFault = "PUSH criterion (ii)";

struct Env {
  std::string Root;
  uint64_t Seed = 11;
  /// Injected criterion; empty in measured runs.
  std::string Inject;
};

class Workload {
public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// One repetition: set-up, then the timed unit of work, then the checks.
  virtual Rep run(const Env &E) = 0;
  /// Set-up alone (timed in batches by runWorkload for the set-up median).
  virtual void setupOnly(const Env &E) = 0;
  /// The traced run: per-layer metrics, given a plain repetition.
  virtual void trace(const Env &E, const Rep &Plain, Tracer &T,
                     Output &O) = 0;
  /// Human-readable lines under the workload's own metric names
  /// (configs/s, execs_per_s, commits_per_s, audit items).
  virtual void describe(const std::vector<Rep> &Reps) = 0;
  /// True when --seed generates the workload's inputs (fuzz, stress).  The
  /// timed repetitions then run on the fixed timed seed, so the gated
  /// numbers do not move with the input mix, and one more repetition on
  /// --seed checks fresh inputs.
  virtual bool seededInputs() const { return false; }
};

/// Every per-layer metric, zero unless a workload sets it.  The order here
/// is the order in the traced JSON.
const std::vector<std::pair<std::string, std::string>> &layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"spec.transition_ns", "ns"},
      {"spec.memo_misses", "count"},
      {"spec.share", "ratio"},
      {"core.attempts_per_config", "count"},
      {"core.rejected_share", "ratio"},
      {"core.fire_ns_applied", "ns"},
      {"core.fire_ns_rejected", "ns"},
      {"core.fire.share", "ratio"},
      {"core.copy_ns", "ns"},
      {"core.copy.share", "ratio"},
      {"support.snapshot_bytes_per_config", "B"},
      {"support.deep_copies_per_config", "count"},
      {"core.mover_ns", "ns"},
      {"core.mover_memo_misses", "count"},
      {"core.reachable_sets", "count"},
      {"core.precongruence_pairs", "count"},
      {"core.mover.share", "ratio"},
      {"sim.configs_per_s", "1/s"},
      {"sim.key_ns", "ns"},
      {"sim.key_bytes", "B"},
      {"sim.key.share", "ratio"},
      {"sim.unattributed_share", "ratio"},
      {"sim.pruned_share", "ratio"},
      {"sim.symmetry_hits", "count"},
      {"sim.commut_hits", "count"},
      {"check.oracle_ns", "ns"},
      {"check.oracle_calls", "count"},
      {"check.oracle.share", "ratio"},
      {"tm.steps_per_commit", "count"},
      {"tm.abort_share", "ratio"},
      {"tm.budget_hits", "count"},
      {"fuzz.gen_ns", "ns"},
      {"fuzz.case_ms_p50", "ms"},
      {"fuzz.case_ms_p99", "ms"},
      {"fuzz.gen.share", "ratio"},
      {"fuzz.unattributed_share", "ratio"},
      {"stress.window_check_us", "us"},
      {"stress.window_check_max_us", "us"},
      {"stress.ring_spins_per_record", "count"},
      {"stress.arbiter_admit_ns", "ns"},
      {"stress.feed_ns", "ns"},
      {"stress.close_window_us", "us"},
      {"stress.checker_busy_share", "ratio"},
      {"stress.admit.share", "ratio"},
      {"analysis.probes", "count"},
      {"analysis.probe_ns", "ns"},
      {"analysis.diamond_pairs", "count"},
      {"analysis.diamond_ns", "ns"},
      {"analysis.cert_checks", "count"},
      {"analysis.criteria.share", "ratio"},
      {"analysis.battery.share", "ratio"},
      {"analysis.independence.share", "ratio"},
      {"analysis.unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return Names;
}

using LayerValues = std::map<std::string, double>;

void emitLayers(const LayerValues &V, Output &O) {
  for (const auto &[Name, Unit] : layerMetricNames()) {
    auto It = V.find(Name);
    O.add(Name, It == V.end() ? 0.0 : It->second, Unit);
  }
  for (const auto &[Name, Value] : V)
    if (std::none_of(layerMetricNames().begin(), layerMetricNames().end(),
                     [&](const auto &P) { return P.first == Name; })) {
      std::fprintf(stderr, "perfbench: unlisted layer metric %s\n",
                   Name.c_str());
      std::abort();
    }
}

//--- explore-full / explore-por ----------------------------------------------

class ExploreWorkload : public Workload {
public:
  explicit ExploreWorkload(bool Por) : Por(Por) {}

  /// Everything set-up produces; the exploration itself is the verdict.
  struct Parts {
    std::unique_ptr<Scenario> S;
    std::unique_ptr<CommutativityDB> DB;
    std::unique_ptr<MoverChecker> Movers;
    std::unique_ptr<Explorer> Ex;
    ExplorerConfig EC;
    bool Proved = false;
    uint64_t CertChecks = 0;
  };

  std::unique_ptr<Parts> setup(const Env &E, std::vector<std::string> &Errors,
                               const ExplorerConfig *Hooks = nullptr) {
    auto P = std::make_unique<Parts>();
    std::string Err;
    std::string Path = E.Root + "/scenarios/" + scenario();
    std::string Text = readFile(Path, Err);
    if (!Err.empty()) {
      Errors.push_back(Err);
      return nullptr;
    }
    ScenarioParseResult PR = parseScenario(Text);
    if (!PR.ok()) {
      Errors.push_back(Path + ":" + std::to_string(PR.ErrorLine) + ": " +
                       PR.Error);
      return nullptr;
    }
    P->S = std::move(PR.Parsed);
    Scenario &S = *P->S;
    if (Hooks)
      P->EC = *Hooks;
    P->EC.Machine.DisabledCriterion = E.Inject;
    if (!E.Inject.empty())
      P->EC.MaxConfigs = 400000; // A faulty machine need not be explored out.
    if (Por) {
      // What `pprun --commut-db --static-prove` does before exploring.
      P->DB = std::make_unique<CommutativityDB>(*S.Spec,
                                                S.Movers.MaxReachableSets);
      std::string Why;
      if (!P->DB->coversProgram(S.Threads, &Why)) {
        Errors.push_back("commutativity table does not cover " + scenario() +
                         ": " + Why);
        return nullptr;
      }
      S.CommutDB = P->DB.get();
      ProveResult R = proveSerializable(S, *P->DB);
      P->Proved = R.V == ProveResult::Verdict::Proved;
      P->CertChecks = P->DB->certChecks();
      P->EC.Threads = 2;
      P->EC.Reduce = Reduction::PersistentSymmetry;
      P->EC.CommutDB = P->DB.get();
      P->EC.SkipOracle = P->Proved;
    }
    P->Movers = std::make_unique<MoverChecker>(*S.Spec, S.Movers, S.Pre);
    P->Ex = std::make_unique<Explorer>(*S.Spec, *P->Movers, P->EC);
    return P;
  }

  void setupOnly(const Env &E) override {
    std::vector<std::string> Errors;
    keep(setup(E, Errors) ? 1 : 0);
  }

  Rep run(const Env &E) override {
    Rep R;
    explore(E, R, nullptr);
    return R;
  }

  /// One repetition, optionally with capture hooks installed.  Returns
  /// the set-up products (null if set-up failed).
  std::unique_ptr<Parts> explore(const Env &E, Rep &R, Capture *Cap) {
    auto T0 = Clock::now();
    ExplorerConfig Hooks;
    if (Cap) {
      Hooks.Machine.OnRuleApplied = Cap->onRule();
      Hooks.OnTerminal = Cap->onTerminal();
    }
    std::unique_ptr<Parts> Out = setup(E, R.Problems, Cap ? &Hooks : nullptr);
    R.SetupS = secondsSince(T0);
    if (!Out)
      return Out;
    Parts &P = *Out;
    InternStats Before = P.S->Spec->internStats();
    memstats::Snapshot MemBefore = memstats::read();
    auto T1 = Clock::now();
    ExplorerReport X = P.Ex->explore(P.S->Threads);
    R.VerdictS = secondsSince(T1);
    memstats::Snapshot Mem = memstats::read().delta(MemBefore);
    InternStats After = P.S->Spec->internStats();

    // Deterministic totals (also under Threads > 1, see sim/Explorer.h).
    R.Exact["configs"] = X.ConfigsVisited;
    R.Exact["terminals"] = X.TerminalConfigs;
    R.Exact["non_serializable"] = X.NonSerializable;
    R.Exact["invariant_violations"] = X.InvariantViolations;
    R.Exact["oracle_skips"] = X.OracleSkips;
    R.Exact["truncated"] = X.Truncated;
    R.Exact["cert_checks"] = P.CertChecks;
    R.Exact["proved"] = P.Proved;
    R.Exact["mover_memo_hits"] = P.Movers->memoHits();
    R.Exact["mover_memo_misses"] = P.Movers->memoMisses();
    // Work-performed counters: exact only for the sequential explorer.
    bool Seq = P.EC.Threads == 1;
    auto Put = [&](const std::string &Name, uint64_t V) {
      if (Seq)
        R.Exact[Name] = V;
      else
        R.Work[Name] = static_cast<double>(V);
    };
    Put("rule_applications", X.RuleApplications);
    Put("rejected_attempts", X.RejectedAttempts);
    Put("firings_pruned", X.FiringsPruned);
    Put("persistent_cuts", X.PersistentCuts);
    Put("symmetry_hits", X.SymmetryHits);
    Put("transition_memo_hits",
        After.TransitionMemoHits - Before.TransitionMemoHits);
    Put("transition_memo_misses",
        After.TransitionMemoMisses - Before.TransitionMemoMisses);
    Put("commut_hits", P.DB ? P.DB->tableHits() : 0);
    addMemory(R, Mem, Seq);

    R.Items = X.TerminalConfigs;
    R.Units = X.ConfigsVisited;
    R.FailedItems = X.Truncated ? X.TerminalConfigs
                                : X.NonSerializable + X.InvariantViolations;

    R.expect(!X.Truncated, "exploration truncated");
    R.expectEq(X.NonSerializable, 0, "non-serializable terminals");
    R.expectEq(X.InvariantViolations, 0, "invariant violations");
    R.expectEq(X.ConfigsVisited, Por ? 502518 : 307227, "configs visited");
    R.expectEq(X.TerminalConfigs, Por ? 6 : 57, "terminal configs");
    if (Por) {
      R.expect(P.Proved, "static prover did not return PROVED");
      R.expectEq(X.OracleSkips, X.TerminalConfigs, "oracle-skipped terminals");
    }
    return Out;
  }

  void describe(const std::vector<Rep> &Reps) override {
    std::vector<double> Rates;
    for (const Rep &R : Reps)
      Rates.push_back(ratio(static_cast<double>(exact(R, "configs")),
                            R.VerdictS));
    std::printf("  configs/s (median)  %.0f  [%llu configs, %llu terminals]\n",
                median(Rates),
                static_cast<unsigned long long>(exact(Reps[0], "configs")),
                static_cast<unsigned long long>(exact(Reps[0], "terminals")));
  }

  void trace(const Env &E, const Rep &Plain, Tracer &T, Output &O) override {
    int Root = T.begin("explore.traced");
    uint64_t Apps = static_cast<uint64_t>(work(Plain, "rule_applications"));
    Capture Cap(Apps / 4000 + 1, 5000, 64);
    Rep Traced;
    int ExSpan = T.begin("sim.explore.with_capture", Root);
    std::unique_ptr<Parts> Out = explore(E, Traced, &Cap);
    T.end(ExSpan);
    if (!Out) {
      O.Problems.push_back("traced exploration could not be set up");
      return;
    }
    Parts &P = *Out;

    std::vector<SampleGroup> Groups(1);
    Groups[0].Spec = P.S->Spec;
    Groups[0].Movers =
        std::make_unique<MoverChecker>(*P.S->Spec, P.S->Movers, P.S->Pre);
    Cap.drainInto(Groups[0]);

    LayerPlan Plan;
    Plan.Oracle = true;
    std::vector<std::vector<TxId>> Perms;
    if (usesSymmetry(P.EC.Reduce))
      Perms = symmetryGroup(P.S->Threads);
    const CommutativityOracle *DB = P.EC.CommutDB;
    Plan.KeyOf = [&Perms, DB](const PushPullMachine &M) {
      // The explorer's canonicalKey, minus the sleep-set bookkeeping.
      SmallVec<uint32_t, 16> Order;
      if (Perms.size() <= 1)
        return M.configKey(nullptr, DB, DB ? &Order : nullptr);
      size_t Best = 0;
      return M.configKeyCanonical(Perms, Best, DB, DB ? &Order : nullptr);
    };
    MachineLayers L = timeMachineLayers(Groups, Plan, T, Root);
    T.end(Root);
    // The first repetition of a process pays for fresh pages; a second
    // plain one makes the reference time and the overhead fair.
    Rep Again = run(E);
    double Ts = 0.5 * (Plain.VerdictS + Again.VerdictS);
    double Workers = static_cast<double>(P.EC.Threads);
    double BusyNs = Ts * 1e9 * Workers;
    double Configs = static_cast<double>(exact(Plain, "configs"));
    double Rej = work(Plain, "rejected_attempts");
    double AppsD = work(Plain, "rule_applications");
    double Pruned = work(Plain, "firings_pruned");
    double Trans = work(Plain, "transition_memo_hits") +
                   work(Plain, "transition_memo_misses");
    double OracleCalls =
        static_cast<double>(exact(Plain, "terminals") -
                            exact(Plain, "oracle_skips"));

    LayerValues V;
    V["spec.transition_ns"] = L.TransitionNs;
    V["spec.memo_misses"] = work(Plain, "transition_memo_misses");
    V["spec.share"] = L.TransitionNs * Trans / BusyNs;
    V["core.attempts_per_config"] = ratio(AppsD + Rej, Configs);
    V["core.rejected_share"] = ratio(Rej, AppsD + Rej);
    V["core.fire_ns_applied"] = L.FireAppliedNs;
    V["core.fire_ns_rejected"] = L.FireRejectedNs;
    double Fire = L.FireAppliedNs * AppsD + L.FireRejectedNs * Rej;
    V["core.fire.share"] = Fire / BusyNs;
    V["core.copy_ns"] = L.CopyNs;
    double Copy = L.CopyNs * work(Plain, "machine_copies");
    V["core.copy.share"] = Copy / BusyNs;
    V["support.snapshot_bytes_per_config"] =
        ratio(work(Plain, "snapshot_bytes"), Configs);
    V["support.deep_copies_per_config"] =
        ratio(work(Plain, "deep_copies"), Configs);
    uint64_t MHits = exact(Plain, "mover_memo_hits"),
             MMiss = exact(Plain, "mover_memo_misses");
    V["core.mover_ns"] = moverNs(L, MHits, MMiss);
    V["core.mover_memo_misses"] = static_cast<double>(MMiss);
    V["sim.configs_per_s"] = ratio(Configs, Ts);
    V["sim.key_ns"] = L.KeyNs;
    V["sim.key_bytes"] = L.KeyBytes;
    // One key per visit: the root plus every applied firing.
    double Key = L.KeyNs * (AppsD + 1);
    V["sim.key.share"] = Key / BusyNs;
    V["sim.pruned_share"] = ratio(Pruned, AppsD + Rej + Pruned);
    V["sim.symmetry_hits"] = work(Plain, "symmetry_hits");
    V["sim.commut_hits"] = work(Plain, "commut_hits");
    V["check.oracle_ns"] = L.OracleNs;
    V["check.oracle_calls"] = OracleCalls;
    double Oracle = L.OracleNs * OracleCalls;
    V["check.oracle.share"] = Oracle / BusyNs;
    V["sim.unattributed_share"] = 1.0 - (Fire + Copy + Key + Oracle) / BusyNs;
    V["analysis.cert_checks"] =
        static_cast<double>(exact(Plain, "cert_checks"));
    V["trace.overhead_share"] = ratio(Traced.VerdictS, Again.VerdictS) - 1.0;
    emitLayers(V, O);
    std::printf("  traced: %llu sampled configs, %zu terminals, %zu spans\n",
                static_cast<unsigned long long>(L.Samples),
                Groups[0].Terminals.size(), T.size());
  }

private:
  std::string scenario() const {
    return Por ? "bank_boosted_distinct.pp" : "matveev_shavit.pp";
  }
  bool Por;
};

//--- fuzz -------------------------------------------------------------------

class FuzzWorkload : public Workload {
public:
  /// Differential cases per campaign (the stated size).  The traced run
  /// times as many fresh cases one by one: ten samples beyond the 99th
  /// percentile.
  static constexpr uint64_t Cases = 1000;

  CampaignConfig config(const Env &E) const {
    CampaignConfig C; // ppfuzz defaults: all engines, all specs, 30% mutants.
    C.Gen.Seed = E.Seed;
    C.Runs = Cases;
    C.ReproDir.clear(); // Never write reproducers from the benchmark.
    C.Verbose = false;
    return C;
  }

  void setupOnly(const Env &E) override {
    Campaign Cm(config(E));
    keep(reinterpret_cast<uintptr_t>(&Cm) & 1);
  }

  Rep run(const Env &E) override {
    Rep R;
    auto T0 = Clock::now();
    Campaign Cm(config(E));
    R.SetupS = secondsSince(T0);
    auto T1 = Clock::now();
    CampaignReport C = Cm.run();
    R.VerdictS = secondsSince(T1);

    R.Exact["cases"] = C.RunsDone;
    R.Exact["discrepancies"] = C.Discrepancies;
    R.Exact["inconclusive"] = C.Inconclusive;
    R.Exact["budget_hits"] = C.NotQuiescent;
    uint64_t Commits = 0, Aborts = 0, Rules = 0;
    for (const auto &[Engine, Cov] : C.PerEngine) {
      std::string P = "engine." + Engine + ".";
      R.Exact[P + "runs"] = Cov.Runs;
      R.Exact[P + "commits"] = Cov.Commits;
      R.Exact[P + "aborts"] = Cov.Aborts;
      for (int K = 0; K < 7; ++K) {
        R.Exact[P + pushpull::toString(static_cast<RuleKind>(K))] =
            Cov.RuleCounts[K];
        Rules += Cov.RuleCounts[K];
      }
      Commits += Cov.Commits;
      Aborts += Cov.Aborts;
    }
    R.Exact["commits"] = Commits;
    R.Exact["aborts"] = Aborts;
    R.Exact["rule_firings"] = Rules;
    const CacheStats &K = C.Caches;
    R.Exact["transition_memo_hits"] = K.Intern.TransitionMemoHits;
    R.Exact["transition_memo_misses"] = K.Intern.TransitionMemoMisses;
    R.Exact["states_interned"] = K.Intern.StatesInterned;
    R.Exact["mover_memo_hits"] = K.MoverMemoHits;
    R.Exact["mover_memo_misses"] = K.MoverMemoMisses;
    R.Exact["precongruence_pairs"] = K.PrecongruencePairs;
    R.Exact["reachable_sets"] = K.ReachableSets;
    addMemory(R, K.Memory, true);

    R.Items = C.RunsDone;
    R.Units = C.RunsDone;
    R.FailedItems = C.Discrepancies;
    R.expectEq(C.RunsDone, Cases, "cases run");
    R.expectEq(C.Discrepancies, 0, "discrepancies");
    R.expectEq(C.PerEngine.size(), allEngineNames().size(),
               "engines exercised");
    for (const std::string &Line : C.uncoveredRules())
      R.Problems.push_back("expected rules not exercised: " + Line);
    return R;
  }

  bool seededInputs() const override { return true; }

  void describe(const std::vector<Rep> &Reps) override {
    std::vector<double> Rates;
    for (const Rep &R : Reps)
      Rates.push_back(ratio(static_cast<double>(exact(R, "cases")),
                            R.VerdictS));
    const Rep &R = Reps[0];
    std::printf("  execs_per_s         %.2f cases/s\n", median(Rates));
    // Counting inconclusive (step-budget) cases as failures too.
    std::printf("  fail_share (fuzz)   %.4f ratio: %llu discrepancies and %llu "
                "inconclusive of %llu cases (%llu hit the step budget)\n",
                ratio(static_cast<double>(exact(R, "discrepancies") +
                                          exact(R, "inconclusive")),
                      static_cast<double>(exact(R, "cases"))),
                static_cast<unsigned long long>(exact(R, "discrepancies")),
                static_cast<unsigned long long>(exact(R, "inconclusive")),
                static_cast<unsigned long long>(exact(R, "cases")),
                static_cast<unsigned long long>(exact(R, "budget_hits")));
  }

  void trace(const Env &E, const Rep &Plain, Tracer &T, Output &O) override {
    int Root = T.begin("fuzz.traced");
    CampaignConfig C = config(E);

    // Generator::next and DiffRunner::run, one span each per case, over
    // freshly generated cases (the campaign adds directed cases and
    // mutants, whose inputs are not observable from outside).
    Generator Gen(C.Gen);
    std::vector<FuzzCase> FuzzCases;
    FuzzCases.reserve(Cases);
    int GS = T.begin("fuzz.generate", Root);
    for (uint64_t I = 0; I < Cases; ++I)
      FuzzCases.push_back(Gen.next());
    double GenNs = T.end(GS, Cases) / static_cast<double>(Cases);
    DiffRunner Runner(C.Diff);
    std::vector<double> CaseMs;
    double CaseNs = 0;
    for (const FuzzCase &FC : FuzzCases) {
      int S = T.begin("fuzz.case", Root);
      DiffReport D = Runner.run(FC);
      double Ns = T.end(S);
      keep(D.discrepancy());
      CaseMs.push_back(Ns / 1e6);
      CaseNs += Ns;
    }

    // Replay every 25th case with capture hooks, mirroring DiffRunner's
    // set-up, to time the machine layers on the configurations fuzzing
    // reaches.
    std::vector<SampleGroup> Groups;
    for (size_t I = 0; I < FuzzCases.size(); I += 25) {
      std::string Err;
      BuiltCase BC = buildCase(FuzzCases[I], Err);
      if (!BC.Spec || BC.Threads.empty())
        continue;
      SampleGroup G;
      G.Spec = BC.Spec;
      G.Atomic = C.Diff.Atomic;
      G.Movers = std::make_unique<MoverChecker>(*BC.Spec, C.Diff.Movers,
                                                C.Diff.Pre);
      Capture Cap(16, 64, 1);
      MachineConfig MC;
      MC.OnRuleApplied = Cap.onRule();
      PushPullMachine M(*BC.Spec, *G.Movers, MC);
      for (const auto &P : BC.Threads)
        M.addThread(P);
      std::unique_ptr<TMEngine> Engine =
          makeEngine(BC.Engine, BC.EngineOpts, M, Err);
      if (!Engine)
        continue;
      SchedulerConfig SC;
      SC.Policy = BC.Policy;
      SC.Seed = BC.ScheduleSeed;
      SC.MaxSteps = BC.MaxSteps;
      SC.ChangePoints = BC.ChangePoints;
      Scheduler(SC).run(*Engine);
      Cap.drainInto(G);
      MachineConfig Plain = M.config();
      Plain.OnRuleApplied = nullptr;
      M.setConfig(Plain);
      G.Terminals.push_back(M);
      Groups.push_back(std::move(G));
    }
    LayerPlan Plan;
    Plan.Mover = true;
    Plan.Oracle = true;
    MachineLayers L = timeMachineLayers(Groups, Plan, T, Root);
    T.end(Root);

    double BusyNs = Plain.VerdictS * 1e9;
    double CasesD = static_cast<double>(exact(Plain, "cases"));
    double Commits = static_cast<double>(exact(Plain, "commits"));
    double Aborts = static_cast<double>(exact(Plain, "aborts"));
    double Rules = static_cast<double>(exact(Plain, "rule_firings"));
    double Trans = static_cast<double>(exact(Plain, "transition_memo_hits") +
                                       exact(Plain, "transition_memo_misses"));
    uint64_t MHits = exact(Plain, "mover_memo_hits"),
             MMiss = exact(Plain, "mover_memo_misses");

    LayerValues V;
    V["spec.transition_ns"] = L.TransitionNs;
    V["spec.memo_misses"] =
        static_cast<double>(exact(Plain, "transition_memo_misses"));
    V["spec.share"] = L.TransitionNs * Trans / BusyNs;
    V["core.fire_ns_applied"] = L.FireAppliedNs;
    V["core.fire_ns_rejected"] = L.FireRejectedNs;
    double Fire = L.FireAppliedNs * Rules;
    V["core.fire.share"] = Fire / BusyNs;
    V["core.copy_ns"] = L.CopyNs;
    double Copy =
        L.CopyNs * static_cast<double>(exact(Plain, "machine_copies"));
    V["core.copy.share"] = Copy / BusyNs;
    V["core.mover_ns"] = moverNs(L, MHits, MMiss);
    V["core.mover_memo_misses"] = static_cast<double>(MMiss);
    V["core.reachable_sets"] =
        static_cast<double>(exact(Plain, "reachable_sets"));
    V["core.precongruence_pairs"] =
        static_cast<double>(exact(Plain, "precongruence_pairs"));
    double Mover = V["core.mover_ns"] * static_cast<double>(MHits + MMiss);
    V["core.mover.share"] = Mover / BusyNs;
    V["check.oracle_ns"] = L.OracleNs;
    V["check.oracle_calls"] = CasesD;
    double Oracle = L.OracleNs * CasesD;
    V["check.oracle.share"] = Oracle / BusyNs;
    V["tm.steps_per_commit"] = ratio(Rules, Commits);
    V["tm.abort_share"] = ratio(Aborts, Commits + Aborts);
    V["tm.budget_hits"] = static_cast<double>(exact(Plain, "budget_hits"));
    V["fuzz.gen_ns"] = GenNs;
    V["fuzz.case_ms_p50"] = percentile(CaseMs, 50);
    V["fuzz.case_ms_p99"] = percentile(CaseMs, 99);
    double GenAll = GenNs * CasesD;
    V["fuzz.gen.share"] = GenAll / BusyNs;
    V["fuzz.unattributed_share"] =
        1.0 - (GenAll + Fire + Copy + Mover + Oracle) / BusyNs;
    // Two spans per case around calls of about a millisecond.
    V["trace.overhead_share"] = spanCostNs() * static_cast<double>(T.size()) /
                                (GenNs * CasesD + CaseNs);
    emitLayers(V, O);
    std::printf("  traced: %zu cases timed, %zu replayed, %llu sampled "
                "configs, %zu spans\n",
                CaseMs.size(), Groups.size(),
                static_cast<unsigned long long>(L.Samples), T.size());
  }
};

//--- stress -----------------------------------------------------------------

class StressWorkload : public Workload {
public:
  /// Workload rounds per worker: each round is 2 logical threads x 3
  /// transactions, so a run is 2 x Rounds x 6 checked commits.
  static constexpr unsigned Rounds = 500;

  StressConfig config(const Env &E) const {
    StressConfig C;
    C.SpecKind = "map";
    C.Engine = "boosting";
    C.Workers = 2;
    C.ReadPct = 50;
    C.ThinkUs = 0;
    C.CheckWindows = true;
    C.Rounds = Rounds;
    C.Seed = E.Seed;
    C.DumpDir.clear();
    if (!E.Inject.empty()) {
      // The boosting engine's abstract locks mask this fault on the map
      // (no window fails), so the self-test runs the same checks on the
      // pessimistic engine over registers, where the criterion is
      // load-bearing.
      C.Engine = "pessimistic";
      C.SpecKind = "register";
      C.DisabledCriterion = E.Inject;
    }
    return C;
  }

  /// Set-up: the spec and the first round's programs for each worker.
  void setupOnly(const Env &E) override {
    StressConfig C = config(E);
    std::map<std::string, std::string> Opts = C.SpecOpts;
    Opts["name"] = C.SpecKind;
    std::string Name, Err;
    auto Spec = makeSpecPart(C.SpecKind, Opts, Name, Err);
    for (unsigned W = 0; Spec && W < C.Workers; ++W)
      keep(buildRoundConfig(C, Spec, W, 0, Err).Threads.size());
  }

  Rep run(const Env &E) override {
    Rep R;
    auto T0 = Clock::now();
    setupOnly(E);
    R.SetupS = secondsSince(T0);
    StressConfig C = config(E);
    auto T1 = Clock::now();
    StressOutcome Out = StressRunner(C).run();
    R.VerdictS = secondsSince(T1);
    const StressStats &S = Out.Stats;
    R.Exact["commits"] = S.Commits;
    R.Exact["aborts"] = S.Aborts;
    R.Exact["steps"] = S.Steps;
    R.Exact["transactions"] = S.Transactions;
    R.Exact["ring_records"] = S.RingRecords;
    R.Work["windows"] = static_cast<double>(S.Windows);
    R.Work["ring_spins"] = static_cast<double>(S.RingSpins);
    R.Work["window_check_ns"] = static_cast<double>(S.WindowCheckNs);
    R.Work["window_check_max_ns"] = static_cast<double>(S.MaxWindowCheckNs);
    R.Work["elapsed_s"] = S.ElapsedSec;

    R.Items = S.Windows;
    R.Units = S.Commits;
    R.FailedItems = S.WindowFailures;
    R.expectEq(S.WindowFailures, 0, "failed windows");
    R.expect(S.Windows > 0, "no window was checked");
    R.expectEq(S.Transactions,
               uint64_t{C.Workers} * Rounds * C.ThreadsPerWorker *
                   C.TxPerThread,
               "transactions completed");
    for (const std::string &F : Out.Failures)
      R.Problems.push_back(F);
    return R;
  }

  bool seededInputs() const override { return true; }

  void describe(const std::vector<Rep> &Reps) override {
    std::vector<double> Rates, Checks;
    for (const Rep &R : Reps) {
      Rates.push_back(ratio(static_cast<double>(exact(R, "commits")),
                            R.VerdictS));
      Checks.push_back(ratio(work(R, "window_check_ns"), work(R, "windows")) /
                       1e3);
    }
    std::printf("  commits_per_s       %.1f commits/s (2 closed-loop workers, "
                "windows checked)\n",
                median(Rates));
    std::printf("  window check        %.1f us mean (median of repetitions)\n",
                median(Checks));
  }

  void trace(const Env &E, const Rep &Plain, Tracer &T, Output &O) override {
    int Root = T.begin("stress.traced");
    StressConfig C = config(E);
    std::map<std::string, std::string> Opts = C.SpecOpts;
    Opts["name"] = C.SpecKind;
    std::string Name, Err;
    auto Spec = makeSpecPart(C.SpecKind, Opts, Name, Err);
    if (!Spec) {
      O.Problems.push_back("stress spec: " + Err);
      return;
    }

    // Replay worker 0's first rounds single-threaded: step the live engine
    // as StressRunner's workers do, capture the records, then time
    // CommitArbiter::admitCommit and the WindowChecker on them.
    const uint32_t ReplayRounds = 200;
    CommitArbiter Stamp(C.Stripes, C.WindowCommits);
    Rng Picks(E.Seed * 7919 + 1);
    double FeedNs = 0, CloseNs = 0;
    uint64_t Records = 0, Closes = 0;
    for (uint32_t Round = 0; Round < ReplayRounds; ++Round) {
      WindowCheckConfig RC = buildRoundConfig(C, Spec, 0, Round, Err);
      MoverChecker Movers(*Spec, RC.Movers, RC.Pre);
      MachineConfig MC;
      MC.DisabledCriterion = RC.DisabledCriterion;
      MC.RecordTrace = false;
      PushPullMachine M(*Spec, Movers, MC);
      for (const auto &P : RC.Threads)
        M.addThread(P);
      std::unique_ptr<TMEngine> Eng =
          makeEngine(RC.Engine, RC.EngineOpts, M, Err);
      if (!Eng)
        break;
      std::vector<StressRecord> Recs;
      std::vector<TxId> Runnable;
      for (uint64_t Order = 0; Order < C.MaxStepsPerRound; ++Order) {
        Runnable.clear();
        for (const ThreadState &Th : M.threads())
          if (!Th.done())
            Runnable.push_back(Th.Tid);
        if (Runnable.empty())
          break;
        TxId Pick = Runnable[Picks.below(Runnable.size())];
        StepStatus St = Eng->step(Pick);
        StressRecord Rec;
        Rec.Order = Order;
        Rec.Round = Round;
        if (St == StepStatus::Committed)
          Rec.CommitSeq = Stamp.admitCommit(Pick);
        Rec.Epoch = Stamp.epoch();
        stampFingerprint(Rec, M, static_cast<uint32_t>(Pick), St);
        Recs.push_back(Rec);
      }
      WindowChecker Chk(std::move(RC), Err);
      if (!Chk.ok())
        break;
      int S = T.begin("stress.window.feed", Root);
      for (const StressRecord &Rec : Recs)
        keep(Chk.feed(Rec));
      FeedNs += T.end(S, Recs.size());
      Records += Recs.size();
      uint64_t Before = Chk.stats().Windows;
      S = T.begin("stress.window.close", Root);
      keep(Chk.closeWindow());
      CloseNs += T.end(S);
      Closes += Chk.stats().Windows - Before;
    }
    CommitArbiter Arb(C.Stripes, C.WindowCommits);
    const uint64_t Admits = 200000;
    int AS = T.begin("stress.arbiter.admit", Root);
    for (uint64_t I = 0; I < Admits; ++I)
      keep(Arb.admitCommit(I * 131u));
    double AdmitNs = T.end(AS, Admits) / static_cast<double>(Admits);
    T.end(Root);

    double Elapsed = work(Plain, "elapsed_s");
    double Commits = static_cast<double>(exact(Plain, "commits"));
    double Aborts = static_cast<double>(exact(Plain, "aborts"));
    double Windows = work(Plain, "windows");
    LayerValues V;
    V["tm.steps_per_commit"] =
        ratio(static_cast<double>(exact(Plain, "steps")), Commits);
    V["tm.abort_share"] = ratio(Aborts, Commits + Aborts);
    V["stress.window_check_us"] =
        ratio(work(Plain, "window_check_ns"), Windows) / 1e3;
    V["stress.window_check_max_us"] = work(Plain, "window_check_max_ns") / 1e3;
    V["stress.ring_spins_per_record"] =
        ratio(work(Plain, "ring_spins"),
              static_cast<double>(exact(Plain, "ring_records")));
    V["stress.arbiter_admit_ns"] = AdmitNs;
    V["stress.feed_ns"] = ratio(FeedNs, static_cast<double>(Records));
    V["stress.close_window_us"] =
        ratio(CloseNs, static_cast<double>(Closes)) / 1e3;
    // The checker is one thread: its busy time over the run's wall time.
    V["stress.checker_busy_share"] =
        ratio(work(Plain, "window_check_ns") / 1e9, Elapsed);
    V["stress.admit.share"] =
        ratio(AdmitNs * Commits / 1e9, Elapsed * C.Workers);
    // The measured run carries no instrumentation; the replay is separate.
    V["trace.overhead_share"] = 0.0;
    emitLayers(V, O);
    std::printf("  traced: %llu records replayed over %u rounds, %zu spans\n",
                static_cast<unsigned long long>(Records), ReplayRounds,
                T.size());
  }
};

//--- audit ------------------------------------------------------------------

class AuditWorkload : public Workload {
public:
  struct SpecCase {
    std::string Kind;
    std::string SpecLine;
    std::shared_ptr<const SequentialSpec> Spec;
  };
  struct Surface {
    std::string Label;
    uint32_t RuleMask = 0;
    bool PullsUncommitted = false;
  };
  struct Parts {
    std::vector<SpecCase> Specs;
    std::vector<Surface> Surfaces;
  };

  /// ppcheck --all-engines set-up: the spec ladder and the engines grouped
  /// by effective rule surface.
  static Parts setup() {
    Parts P;
    P.Specs.push_back({"register", "spec register name=mem regs=1 vals=2",
                       std::make_shared<RegisterSpec>("mem", 1, 2)});
    P.Specs.push_back({"counter", "spec counter name=c counters=1 mod=2",
                       std::make_shared<CounterSpec>("c", 1, 2)});
    std::map<std::pair<uint32_t, bool>, std::string> Groups;
    RegisterSpec Spec("mem", 1, 2);
    MoverChecker Movers(Spec);
    for (const std::string &Name : allEngineNames()) {
      PushPullMachine M(Spec, Movers);
      M.addThread({call("mem", "read", {Value(0)})});
      std::string Error;
      std::unique_ptr<TMEngine> E = makeEngine(Name, {}, M, Error);
      if (!E)
        continue;
      std::string &Label = Groups[{E->ruleMask(), E->pullsUncommitted()}];
      Label += (Label.empty() ? "" : ",") + Name;
    }
    for (const auto &[S, Label] : Groups)
      P.Surfaces.push_back({Label, S.first, S.second});
    return P;
  }

  void setupOnly(const Env &) override { keep(setup().Surfaces.size()); }

  /// Per-call timings of one audit, from its spans.
  struct Timings {
    double CriteriaNs = 0, BatteryNs = 0, IndependenceNs = 0;
  };

  Rep runTimed(Timings &Tm, Tracer *T) {
    Rep R;
    auto T0 = Clock::now();
    Parts P = setup();
    R.SetupS = secondsSince(T0);
    Tracer Local;
    Tracer &Tr = T ? *T : Local;
    int Root = Tr.begin("analysis.audit");
    auto T1 = Clock::now();
    ShapeScope Scope;
    uint64_t Probes = 0, Shapes = 0, ShapesProbed = 0, Pairs = 0, Items = 0,
             Bad = 0;

    for (const Surface &S : P.Surfaces)
      for (const SpecCase &SC : P.Specs) {
        CriterionAuditConfig C;
        C.Scope = Scope;
        C.Spec = SC.Spec.get();
        C.SpecLine = SC.SpecLine;
        C.EngineName = S.Label;
        C.RuleMask = S.RuleMask;
        C.PullsUncommitted = S.PullsUncommitted;
        int Sp = Tr.begin("analysis.auditCriteria", Root);
        CriterionAuditReport A = auditCriteria(C);
        Tm.CriteriaNs += Tr.end(Sp, A.ProbesRun);
        std::string Key = "criteria." + S.Label + "." + SC.Kind;
        R.Exact[Key + ".shapes"] = A.ShapesAudited;
        R.Exact[Key + ".probes"] = A.ProbesRun;
        Probes += A.ProbesRun;
        Shapes += A.ShapesAudited;
        ShapesProbed += A.ShapesAudited;
        ++Items;
        if (!A.clean()) {
          ++Bad;
          R.Problems.push_back("criteria " + S.Label + " " + SC.Kind +
                               ": FAIL");
        }
      }

    int Sp = Tr.begin("analysis.runNegativeBattery", Root);
    std::vector<ConvictionResult> Battery = runNegativeBattery(Scope);
    uint64_t BatteryProbes = 0;
    for (const ConvictionResult &B : Battery) {
      std::string Key = "battery." + B.Criterion;
      R.Exact[Key + ".shapes"] = B.ShapesAudited;
      R.Exact[Key + ".probes"] = B.ProbesRun;
      R.Exact[Key + ".convicted"] = B.Convicted;
      BatteryProbes += B.ProbesRun;
      Shapes += B.ShapesAudited;
      ShapesProbed += B.ShapesAudited;
      ++Items;
      if (!B.Convicted) {
        ++Bad;
        R.Problems.push_back("battery: injected '" + B.Criterion +
                             "' was not convicted");
      }
    }
    Tm.BatteryNs += Tr.end(Sp, BatteryProbes);
    Probes += BatteryProbes;
    R.expectEq(Battery.size(), 8, "negative-battery injections");

    for (const SpecCase &SC : P.Specs) {
      IndependenceAuditConfig C;
      C.Scope = Scope;
      C.Spec = SC.Spec.get();
      int Sp2 = Tr.begin("analysis.auditIndependence", Root);
      IndependenceAuditReport A = auditIndependence(C);
      Tm.IndependenceNs += Tr.end(Sp2, A.PairsChecked);
      R.Exact["independence." + SC.Kind + ".shapes"] = A.ShapesAudited;
      R.Exact["independence." + SC.Kind + ".pairs"] = A.PairsChecked;
      Pairs += A.PairsChecked;
      Shapes += A.ShapesAudited;
      ++Items;
      if (!A.clean()) {
        ++Bad;
        R.Problems.push_back("independence " + SC.Kind + ": FAIL");
      }
    }
    R.VerdictS = secondsSince(T1);
    Tr.end(Root, Items);
    R.Exact["items"] = Items;
    R.Exact["probes"] = Probes;
    R.Exact["battery_probes"] = BatteryProbes;
    R.Exact["shapes"] = Shapes;
    R.Exact["shapes_probed"] = ShapesProbed;
    R.Exact["pairs"] = Pairs;
    R.Items = Items;
    R.Units = Probes + Pairs;
    R.FailedItems = Bad;
    return R;
  }

  Rep run(const Env &) override {
    Timings Tm;
    return runTimed(Tm, nullptr);
  }

  void describe(const std::vector<Rep> &Reps) override {
    const Rep &R = Reps[0];
    std::printf("  audit items         %llu (%llu probes, %llu diamond "
                "pairs)\n",
                static_cast<unsigned long long>(exact(R, "items")),
                static_cast<unsigned long long>(exact(R, "probes")),
                static_cast<unsigned long long>(exact(R, "pairs")));
  }

  void trace(const Env &, const Rep &Plain, Tracer &T, Output &O) override {
    // One more audit with its spans kept: the three public calls are the
    // layer boundaries.
    Timings Tm;
    Rep Traced = runTimed(Tm, &T);
    double BusyNs = Traced.VerdictS * 1e9;
    double Probes = static_cast<double>(exact(Plain, "probes"));
    double Pairs = static_cast<double>(exact(Plain, "pairs"));
    LayerValues V;
    V["analysis.probes"] = Probes;
    // A probe is one rule attempt on an installed shape.
    V["core.attempts_per_config"] =
        ratio(Probes, static_cast<double>(exact(Plain, "shapes_probed")));
    V["analysis.probe_ns"] = ratio(Tm.CriteriaNs + Tm.BatteryNs, Probes);
    V["analysis.diamond_pairs"] = Pairs;
    V["analysis.diamond_ns"] = ratio(Tm.IndependenceNs, Pairs);
    V["analysis.criteria.share"] = Tm.CriteriaNs / BusyNs;
    V["analysis.battery.share"] = Tm.BatteryNs / BusyNs;
    V["analysis.independence.share"] = Tm.IndependenceNs / BusyNs;
    V["analysis.unattributed_share"] =
        1.0 - (Tm.CriteriaNs + Tm.BatteryNs + Tm.IndependenceNs) / BusyNs;
    V["trace.overhead_share"] = ratio(Traced.VerdictS, Plain.VerdictS) - 1.0;
    emitLayers(V, O);
    std::printf("  traced: %zu spans\n", T.size());
  }
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "explore-full")
    return std::make_unique<ExploreWorkload>(false);
  if (Name == "explore-por")
    return std::make_unique<ExploreWorkload>(true);
  if (Name == "fuzz")
    return std::make_unique<FuzzWorkload>();
  if (Name == "stress")
    return std::make_unique<StressWorkload>();
  if (Name == "audit")
    return std::make_unique<AuditWorkload>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string Root = ".";
  std::string Workload;
  uint64_t Seed = 11;
  /// Input seed of the timed fuzz and stress repetitions: 11 by default;
  /// 12 is the held-out seed for checking a gain claim.
  uint64_t TimedSeed = 11;
  double Seconds = 30;
  bool Trace = false;
  bool SelfTest = false;
};

bool parseArgs(int argc, char **argv, Options &O) {
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    char *End = nullptr;
    if (A == "--self-test") {
      O.SelfTest = true;
      continue;
    }
    if (!(V = Next()) || !*V)
      return false;
    if (A == "--root") {
      O.Root = V;
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed" || A == "--timed-seed") {
      (A == "--seed" ? O.Seed : O.TimedSeed) = std::strtoull(V, &End, 10);
      if (*End)
        return false;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (*End || !(O.Seconds > 0) || O.Seconds > 600)
        return false;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return false;
      O.Trace = V[0] == '1';
    } else {
      return false;
    }
  }
  return !O.Workload.empty();
}

/// Run \p W on \p E in a child process, so the parent's peak memory stays
/// that of the timed repetitions; the child sends its Rep back as lines of
/// "<tag> <value> <name>".
Rep runInChild(Workload &W, const Env &E) {
  Rep R;
  int Fds[2];
  if (pipe(Fds) != 0) {
    R.Problems.push_back("pipe() failed");
    return R;
  }
  std::fflush(stdout);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    R.Problems.push_back("fork() failed");
    return R;
  }
  if (Pid == 0) {
    close(Fds[0]);
    Rep C = W.run(E);
    std::string Out;
    auto Line = [&](char Tag, double V, std::string Name) {
      std::replace(Name.begin(), Name.end(), '\n', ' ');
      Out += std::string(1, Tag) + " " + jsonNumber(V) + " " + Name + "\n";
    };
    Line('S', C.SetupS, "");
    Line('V', C.VerdictS, "");
    Line('I', static_cast<double>(C.Items), "");
    Line('F', static_cast<double>(C.FailedItems), "");
    Line('U', static_cast<double>(C.Units), "");
    for (const auto &[N, V] : C.Exact)
      Out += "E " + std::to_string(V) + " " + N + "\n";
    for (const auto &[N, V] : C.Work)
      Line('W', V, N);
    for (const std::string &P : C.Problems)
      Line('P', 0, P);
    size_t Done = 0;
    while (Done < Out.size()) {
      ssize_t N = write(Fds[1], Out.data() + Done, Out.size() - Done);
      if (N <= 0)
        _exit(1);
      Done += static_cast<size_t>(N);
    }
    close(Fds[1]);
    _exit(0);
  }
  close(Fds[1]);
  std::string In;
  char Buf[4096];
  ssize_t N;
  while ((N = read(Fds[0], Buf, sizeof Buf)) > 0)
    In.append(Buf, static_cast<size_t>(N));
  close(Fds[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    R.Problems.push_back("checked repetition died (status " +
                         std::to_string(Status) + ")");
    return R;
  }
  std::istringstream Lines(In);
  std::string L;
  while (std::getline(Lines, L)) {
    std::istringstream F(L);
    char Tag = 0;
    std::string Num, Name;
    F >> Tag >> Num;
    std::getline(F >> std::ws, Name);
    double V = std::strtod(Num.c_str(), nullptr);
    switch (Tag) {
    case 'S': R.SetupS = V; break;
    case 'V': R.VerdictS = V; break;
    case 'I': R.Items = static_cast<uint64_t>(V); break;
    case 'F': R.FailedItems = static_cast<uint64_t>(V); break;
    case 'U': R.Units = static_cast<uint64_t>(V); break;
    case 'E': R.Exact[Name] = std::strtoull(Num.c_str(), nullptr, 10); break;
    case 'W': R.Work[Name] = V; break;
    case 'P': R.Problems.push_back(Name); break;
    default: break;
    }
  }
  return R;
}

void printProblems(const std::vector<std::string> &Problems) {
  for (const std::string &P : Problems)
    std::printf("  CHECK FAILED: %s\n", P.c_str());
}

int selfTest(const Options &Opt, Workload &W) {
  Env E{Opt.Root, Opt.Seed, SelfTestFault};
  std::printf("self-test: %s with '%s' disabled (never used in measured "
              "runs)\n",
              Opt.Workload.c_str(), SelfTestFault);
  Rep R = W.run(E);
  printProblems(R.Problems);
  bool Caught = !R.Problems.empty() || R.FailedItems > 0;
  std::printf("self-test: %s (%zu failed checks, %llu failed items)\n",
              Caught ? "the checks caught the injected fault"
                     : "the injected fault went UNDETECTED",
              R.Problems.size(),
              static_cast<unsigned long long>(R.FailedItems));
  return Caught ? 0 : 1;
}

int runWorkload(const Options &Opt, Workload &W) {
  Env E{Opt.Root, Opt.Seed, ""};
  Env Timed = E;
  if (W.seededInputs())
    Timed.Seed = Opt.TimedSeed;
  bool CheckSeed = W.seededInputs() && Opt.Seed != Opt.TimedSeed;
  std::printf("perfbench: workload %s, seed %llu, %s\n", Opt.Workload.c_str(),
              static_cast<unsigned long long>(Opt.Seed),
              Opt.Trace ? "traced" : "untraced");
  if (W.seededInputs())
    std::printf("  timed inputs from seed %llu\n",
                static_cast<unsigned long long>(Timed.Seed));
  Output O;
  auto Start = Clock::now();

  const std::string CountsDir = Opt.Root + "/.bench_build/counts";
  auto RecordKey = [&](const Env &X) {
    return Opt.Workload + "-seed" + std::to_string(X.Seed);
  };
  if (Opt.Trace) {
    Rep Plain = W.run(Timed);
    if (Plain.Problems.empty())
      checkAgainstRecord(CountsDir, RecordKey(Timed), Plain.Exact,
                         Plain.Problems);
    O.absorb(Plain);
    Tracer T;
    W.trace(Timed, Plain, T, O);
    printProblems(O.Problems);
    O.Correct = O.Problems.empty();
    std::string Dir = Opt.Root + "/.bench_build/traces";
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);
    std::string Path = Dir + "/" + RecordKey(Timed) + ".spans.json";
    if (!EC && T.write(Path))
      std::printf("  spans written to %s\n", Path.c_str());
    std::printf("  wall %.2f s\n", secondsSince(Start));
    printResult(O);
    return O.Correct ? 0 : 1;
  }

  // setup_s: the median of many set-up samples, spread over the whole run
  // so that a transient stall does not decide it, each a batch of set-ups
  // lasting at least a millisecond so that tiny set-ups are not dominated
  // by clock resolution.
  std::vector<double> Setups;
  size_t Batch = 1;
  auto SampleSetup = [&](double Budget) {
    auto T0 = Clock::now();
    do {
      auto T1 = Clock::now();
      for (size_t I = 0; I < Batch; ++I)
        W.setupOnly(Timed);
      Setups.push_back(secondsSince(T1) / static_cast<double>(Batch));
    } while (secondsSince(T0) < Budget);
  };
  for (int I = 0; I < 3; ++I) // Warm up, then size the batch.
    SampleSetup(0.0);
  Batch = Setups.back() >= 1e-3
              ? 1
              : static_cast<size_t>(1e-3 / (Setups.back() + 1e-9)) + 1;
  Setups.clear();
  SampleSetup(0.25);

  // Repeat the unit of work until the time is spent, at least twice so
  // the exact counts can be compared.
  std::vector<Rep> Reps;
  std::vector<double> Verdicts, RepSetups;
  for (;;) {
    Reps.push_back(W.run(Timed));
    Verdicts.push_back(Reps.back().VerdictS);
    RepSetups.push_back(Reps.back().SetupS);
    if (!Reps.back().Problems.empty())
      break;
    SampleSetup(0.02);
    double Elapsed = secondsSince(Start);
    double Next = median(Verdicts) + median(RepSetups);
    if (Reps.size() >= 2 && Elapsed + Next * (CheckSeed ? 2 : 1) > Opt.Seconds)
      break;
    if (Reps.size() >= 1000)
      break;
  }

  for (const Rep &R : Reps)
    O.absorb(R);
  std::vector<std::string> Drift;
  checkDeterminism(Reps, Drift);
  if (Drift.empty() && Reps.back().Problems.empty())
    checkAgainstRecord(CountsDir, RecordKey(Timed), Reps[0].Exact, Drift);
  O.Failed += Drift.size();
  for (const std::string &D : Drift)
    O.Problems.push_back(D);

  std::vector<Rep> Checked;
  if (CheckSeed && O.Problems.empty()) {
    Checked.push_back(runInChild(W, E));
    if (Checked[0].Problems.empty())
      checkAgainstRecord(CountsDir, RecordKey(E), Checked[0].Exact,
                         Checked[0].Problems);
    O.absorb(Checked[0]);
  }
  O.Correct = O.Problems.empty();

  // The work of a repetition is fixed, so interference from other tenants
  // of the machine can only add time: the fastest repetition is the
  // steadiest estimate of the program's own cost (the median varied by up
  // to 30% between runs on a shared 4-vCPU VM, the minimum by about half
  // as much).  The median is printed beside it.
  size_t Best = static_cast<size_t>(
      std::min_element(Verdicts.begin(), Verdicts.end()) - Verdicts.begin());
  double VerdictBest = Verdicts[Best];
  double SetupMed = median(Setups);
  double Rss = peakRssMiB();
  double FailShare =
      ratio(static_cast<double>(O.Failed), static_cast<double>(O.Attempted));
  std::printf("  repetitions         %zu\n", Reps.size());
  std::printf("  verdict_s           %.4f s (fastest; median %.4f, slowest "
              "%.4f)\n",
              VerdictBest, median(Verdicts),
              *std::max_element(Verdicts.begin(), Verdicts.end()));
  std::printf("  repetition times   ");
  for (double V : Verdicts)
    std::printf(" %.4f", V);
  std::printf(" s\n");
  std::printf("  setup_s             %.6f s (median of %zu batches of %zu)\n",
              SetupMed, Setups.size(), Batch);
  std::printf("  peak_rss_mb         %.1f MiB\n", Rss);
  std::printf("  fail_share          %.4f ratio\n", FailShare);
  W.describe(Reps);
  if (!Checked.empty()) {
    std::printf("  checked inputs from seed %llu (not in the metrics):\n",
                static_cast<unsigned long long>(E.Seed));
    W.describe(Checked);
  }
  printProblems(O.Problems);
  O.add("verdict_s", VerdictBest, "s");
  O.add("work_per_s",
        ratio(static_cast<double>(Reps[Best].Units), VerdictBest), "1/s");
  O.add("setup_s", SetupMed, "s");
  O.add("peak_rss_mb", Rss, "MiB");
  printResult(O);
  return O.Correct ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  if (!parseArgs(argc, argv, Opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--root DIR] [--seed N] "
                 "[--seconds S] [--trace 0|1] [--self-test]\n");
    return 2;
  }
  std::unique_ptr<Workload> W = makeWorkload(Opt.Workload);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Opt.Workload.c_str());
    return 2;
  }
  std::error_code EC;
  if (!std::filesystem::is_directory(Opt.Root + "/scenarios", EC)) {
    std::fprintf(stderr, "perfbench: %s is not a pushpull checkout\n",
                 Opt.Root.c_str());
    return 2;
  }
  if (Opt.SelfTest) {
    if (Opt.Workload != "explore-full" && Opt.Workload != "stress") {
      std::fprintf(stderr, "perfbench: --self-test covers explore-full and "
                           "stress\n");
      return 2;
    }
    return selfTest(Opt, *W);
  }
  return runWorkload(Opt, *W);
}
