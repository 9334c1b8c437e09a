//===- stress/StressRunner.cpp - Real-concurrency stress runtime -------------===//

#include "stress/StressRunner.h"

#include "sim/Scenario.h"
#include "sim/Workload.h"
#include "stress/Arbiter.h"
#include "tm/Engine.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <thread>

using namespace pushpull;

namespace {

/// splitmix64-style mixer: (Seed, worker, round) -> independent stream.
uint64_t mixSeed(uint64_t A, uint64_t B, uint64_t C) {
  uint64_t X = A * 0x9e3779b97f4a7c15ull + B * 0xbf58476d1ce4e5b9ull +
               C * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X ? X : 1;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Everything the worker and checker threads share.  Semantic state is
/// thread-confined; this is rings + arbiter + termination flags only.
struct SharedState {
  const StressConfig &C;
  std::shared_ptr<const SequentialSpec> Spec;
  CommitArbiter Arbiter;
  std::vector<std::unique_ptr<RingTrace>> Rings;
  std::atomic<unsigned> WorkersDone{0};
  /// Worker-side build errors (mutex-guarded; rare).
  std::mutex ErrorLock;
  std::vector<std::string> BuildErrors;

  SharedState(const StressConfig &C,
              std::shared_ptr<const SequentialSpec> Spec)
      : C(C), Spec(std::move(Spec)),
        Arbiter(C.Stripes, C.WindowCommits) {
    for (unsigned W = 0; W < C.Workers; ++W)
      Rings.push_back(std::make_unique<RingTrace>(C.RingCapacity));
  }
};

} // namespace

WindowCheckConfig
pushpull::buildRoundConfig(const StressConfig &C,
                           std::shared_ptr<const SequentialSpec> Spec,
                           unsigned Worker, uint32_t Round,
                           std::string &Error) {
  WindowCheckConfig RC;
  RC.SpecKind = C.SpecKind;
  RC.SpecOpts = C.SpecOpts;
  RC.Spec = Spec;
  RC.Engine = C.Engine;
  RC.EngineOpts = C.EngineOpts;
  RC.DisabledCriterion = C.DisabledCriterion;

  // Per-round engine seed: live worker and shadow checker derive the
  // identical value from the same three numbers, which is what makes the
  // shadow replay exact.
  uint64_t RoundSeed = mixSeed(C.Seed, Worker + 1, Round + 1);
  RC.EngineOpts["seed"] = std::to_string(RoundSeed % 100000);

  WorkloadConfig WC;
  WC.Threads = C.ThreadsPerWorker < 2 ? 2 : C.ThreadsPerWorker;
  WC.TxPerThread = C.TxPerThread;
  WC.OpsPerTx = C.OpsPerTx;
  WC.KeyRange = C.KeyRange;
  WC.ZipfTheta = C.ZipfTheta;
  WC.ReadPct = C.ReadPct;
  WC.Seed = mixSeed(RoundSeed, 0x5eed, 0x10ad);

  RC.Threads = genWorkload(*Spec, WC);
  if (RC.Threads.empty())
    Error = "no workload mix for spec kind '" + C.SpecKind + "'";
  return RC;
}

/// One worker: rounds of fresh machine + engine + workload, every step
/// recorded into the worker's ring.
static StressStats workerLoop(SharedState &S, unsigned W) {
  StressStats L;
  Rng PickRng(mixSeed(S.C.Seed, W + 1, 0xfeedu));
  auto Start = std::chrono::steady_clock::now();

  for (uint32_t Round = 0;; ++Round) {
    if (S.C.DurationMs ? secondsSince(Start) * 1000.0 >=
                             static_cast<double>(S.C.DurationMs)
                       : Round >= S.C.Rounds)
      break;

    std::string Error;
    WindowCheckConfig RC = buildRoundConfig(S.C, S.Spec, W, Round, Error);
    if (!Error.empty()) {
      std::lock_guard<std::mutex> G(S.ErrorLock);
      S.BuildErrors.push_back("worker " + std::to_string(W) + ": " + Error);
      break;
    }

    MachineConfig MC;
    MC.RecordTrace = false; // The shadow records; the hot path doesn't.
    CaseRun Run(RC, std::move(MC));
    if (!Run.ok()) {
      std::lock_guard<std::mutex> G(S.ErrorLock);
      S.BuildErrors.push_back("worker " + std::to_string(W) + ": " +
                              Run.error());
      break;
    }
    const PushPullMachine &M = Run.Machine;
    TMEngine &E = *Run.Engine;

    uint64_t Order = 0;
    std::vector<TxId> Runnable;
    while (Order < S.C.MaxStepsPerRound) {
      Runnable.clear();
      for (const ThreadState &Th : M.threads())
        if (!Th.done())
          Runnable.push_back(Th.Tid);
      if (Runnable.empty())
        break;
      TxId Pick = Runnable[PickRng.below(Runnable.size())];
      StepStatus St = E.step(Pick);
      ++L.Steps;

      StressRecord R;
      R.Order = Order++;
      R.Round = Round;
      if (St == StepStatus::Committed) {
        ++L.Commits;
        // The cross-worker commit point: stripe by (worker, thread) so
        // distinct workers mostly hit distinct stripes while the global
        // sequence stays total.
        R.CommitSeq = S.Arbiter.admitCommit(W * 131u + Pick);
      } else if (St == StepStatus::Aborted) {
        ++L.Aborts;
      }
      R.Epoch = S.Arbiter.epoch();
      stampFingerprint(R, M, static_cast<uint32_t>(Pick), St);
      if (S.C.CheckWindows) {
        while (!S.Rings[W]->tryPush(R)) {
          ++L.RingSpins;
          std::this_thread::yield();
        }
        ++L.RingRecords;
      }
      if (St == StepStatus::Committed && S.C.ThinkUs)
        std::this_thread::sleep_for(std::chrono::microseconds(S.C.ThinkUs));
    }
    L.Transactions += M.committed().size();
  }
  S.WorkersDone.fetch_add(1, std::memory_order_acq_rel);
  return L;
}

StressOutcome StressRunner::run() {
  StressOutcome Outcome;
  Outcome.Stats.Workers = Config.Workers;
  if (Config.Workers == 0)
    return Outcome;
  if (Config.SpecOpts.find("name") == Config.SpecOpts.end())
    Config.SpecOpts["name"] = Config.SpecKind;

  std::string Error, SpecName;
  std::shared_ptr<const SequentialSpec> Spec =
      makeSpecPart(Config.SpecKind, Config.SpecOpts, SpecName, Error);
  if (!Spec) {
    Outcome.Failures.push_back("spec: " + Error);
    return Outcome;
  }

  SharedState S(Config, Spec);
  std::vector<StressStats> WorkerStats(Config.Workers);
  auto T0 = std::chrono::steady_clock::now();

  std::vector<std::thread> Workers;
  Workers.reserve(Config.Workers);
  for (unsigned W = 0; W < Config.Workers; ++W)
    Workers.emplace_back(
        [&S, &WorkerStats, W] { WorkerStats[W] = workerLoop(S, W); });

  // The checker: one thread draining every ring, one shadow per live
  // (worker, round), windows closed at epoch changes and round ends.
  StressStats CheckStats;
  std::thread Checker;
  if (Config.CheckWindows) {
    Checker = std::thread([this, &S, &Outcome, &CheckStats] {
      struct PerWorker {
        std::unique_ptr<WindowChecker> Chk;
        uint32_t Round = 0;
        uint64_t LastCommitSeq = 0;
      };
      std::vector<PerWorker> St(Config.Workers);

      auto harvest = [&](unsigned W) {
        PerWorker &P = St[W];
        if (!P.Chk)
          return;
        P.Chk->closeWindow();
        CheckStats.absorb(P.Chk->stats());
        if (!P.Chk->failure().empty()) {
          Outcome.Failures.push_back("worker " + std::to_string(W) +
                                     " round " + std::to_string(P.Round) +
                                     ": " + P.Chk->failure());
          if (Outcome.Dumps.size() < Config.MaxDumps) {
            std::string Text = P.Chk->dumpSchedule();
            Outcome.Dumps.push_back(Text);
            if (!Config.DumpDir.empty()) {
              std::string Path = Config.DumpDir + "/ppstress-w" +
                                 std::to_string(W) + "-r" +
                                 std::to_string(P.Round) + ".ppsched";
              std::ofstream Out(Path);
              if (Out) {
                Out << Text;
                Outcome.DumpFiles.push_back(Path);
              }
            }
          }
        }
        P.Chk.reset();
      };

      for (;;) {
        bool Progress = false;
        for (unsigned W = 0; W < Config.Workers; ++W) {
          StressRecord R;
          while (S.Rings[W]->tryPop(R)) {
            Progress = true;
            PerWorker &P = St[W];
            if (!P.Chk || R.Round != P.Round) {
              harvest(W);
              std::string Err;
              WindowCheckConfig RC =
                  buildRoundConfig(Config, S.Spec, W, R.Round, Err);
              P.Round = R.Round;
              if (Err.empty())
                P.Chk = std::make_unique<WindowChecker>(std::move(RC), Err);
              if (!Err.empty()) {
                Outcome.Failures.push_back("checker worker " +
                                           std::to_string(W) + ": " + Err);
                P.Chk.reset();
              }
            }
            // Arbiter contract, observed from the consumer side: one
            // worker's commit sequence numbers arrive strictly
            // increasing (rings are FIFO, workers commit in program
            // order).
            if (R.CommitSeq) {
              if (R.CommitSeq <= P.LastCommitSeq)
                Outcome.Failures.push_back(
                    "worker " + std::to_string(W) +
                    ": arbiter sequence regressed (" +
                    std::to_string(R.CommitSeq) + " after " +
                    std::to_string(P.LastCommitSeq) + ")");
              P.LastCommitSeq = R.CommitSeq;
            }
            if (P.Chk)
              P.Chk->feed(R);
          }
        }
        if (!Progress) {
          if (S.WorkersDone.load(std::memory_order_acquire) ==
              Config.Workers) {
            bool Empty = true;
            for (auto &Ring : S.Rings)
              Empty = Empty && Ring->size() == 0;
            if (Empty)
              break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      for (unsigned W = 0; W < Config.Workers; ++W)
        harvest(W);
    });
  }

  for (std::thread &T : Workers)
    T.join();
  if (Checker.joinable())
    Checker.join();

  Outcome.Stats.ElapsedSec = secondsSince(T0);
  for (const StressStats &WS : WorkerStats)
    Outcome.Stats.absorb(WS);
  Outcome.Stats.absorb(CheckStats);
  for (const std::string &E : S.BuildErrors)
    Outcome.Failures.push_back(E);
  if (!S.Arbiter.monotonic())
    Outcome.Failures.push_back(
        "arbiter: per-stripe sequence monotonicity violated");
  return Outcome;
}
