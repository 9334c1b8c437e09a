//===- sim/Explorer.cpp - Exhaustive interleaving explorer ------------------===//

#include "sim/Explorer.h"

#include "check/Serializability.h"
#include "core/Invariants.h"
#include "lang/Printer.h"
#include "sim/Visited.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace pushpull;

namespace {

/// Render everything the commit-order oracle looks at — the commit-ordered
/// transactions (body, start/final stacks) and the committed shared log —
/// into a key.  Two machines with equal keys get identical verdicts from
/// SerializabilityChecker::checkCommitOrder, which is deterministic in
/// that content, so verdicts can be memoized per explorer (or per worker).
std::string committedContentKey(const PushPullMachine &M, StateTable &Table) {
  const std::vector<CommittedTx> &Txs = M.committed();
  std::vector<const CommittedTx *> Order;
  Order.reserve(Txs.size());
  for (const CommittedTx &T : Txs)
    Order.push_back(&T);
  std::sort(Order.begin(), Order.end(),
            [](const CommittedTx *A, const CommittedTx *B) {
              return A->CommitSeq < B->CommitSeq;
            });

  std::string Key;
  Key.reserve(32 + 48 * Order.size());
  auto Append32 = [&Key](uint32_t V) {
    char B[4];
    std::memcpy(B, &V, 4);
    Key.append(B, 4);
  };
  auto AppendStack = [&](const Stack &S) {
    Append32(static_cast<uint32_t>(S.size()));
    for (const auto &[Var, Val] : S.entries()) {
      Key += Var; // Identifier text: never contains NUL.
      Key.push_back('\0');
      uint64_t Bits = static_cast<uint64_t>(Val);
      char B[8];
      std::memcpy(B, &Bits, 8);
      Key.append(B, 8);
    }
  };
  for (const CommittedTx *T : Order) {
    Key += T->Body->printed();
    Key.push_back('\0');
    AppendStack(T->Sigma);
    AppendStack(T->FinalSigma);
  }
  for (const Operation &Op : M.committedLog())
    Append32(Table.opKey(Op));
  return Key;
}

/// checkCommitOrder through a verdict memo (see committedContentKey).
const SerializabilityVerdict &cachedCommitOrderVerdict(
    SerializabilityChecker &Oracle,
    std::unordered_map<std::string, SerializabilityVerdict> &Memo,
    StateTable &Table, const PushPullMachine &M) {
  std::string Key = committedContentKey(M, Table);
  auto It = Memo.find(Key);
  if (It != Memo.end())
    return It->second;
  return Memo.emplace(std::move(Key), Oracle.checkCommitOrder(M))
      .first->second;
}

/// The candidate scratch arena: one per explorer worker thread, rewound
/// by expandReduced's scope after every expansion, so steady-state
/// candidate enumeration performs no heap allocation at all.
thread_local Arena CandidateArena;

/// Enumerate every candidate move from \p M as a (firing, footprint)
/// pair, in the canonical rule order the sequential DFS has always used:
/// per thread, guarded BEGIN | APP (step x completion) | PUSH (each npshd)
/// | PULL (each global entry not in L, opacity toggle respected) | CMT |
/// backward UNAPP / UNPUSH / UNPULL.  Candidates are *attempts*: whether
/// one is enabled is decided by firing it (rejections never mutate).
void enumerateCandidates(const PushPullMachine &M,
                         const ExplorerConfig &Config,
                         ArenaVec<Candidate> &Out) {
  auto FP = [](RuleKind K) {
    RuleFootprint R = ruleFootprint(K);
    FiringFootprint F;
    F.ReadsG = R.ReadsGlobal;
    F.WritesG = R.WritesGlobal;
    return F;
  };
  const FiringFootprint Local; // BEGIN and the local rules.

  for (const ThreadState &Th : M.threads()) {
    TxId T = Th.Tid;

    if (!Th.InTx) {
      if (!Th.Pending.empty())
        Out.push_back({{T, FiringKind::Begin, 0, 0}, Local});
      continue;
    }

    for (const AppChoice &Choice : M.appChoices(T))
      for (size_t CI = 0; CI < Choice.Completions.size(); ++CI)
        Out.push_back({{T, FiringKind::App,
                        static_cast<uint32_t>(Choice.StepIdx),
                        static_cast<uint32_t>(CI)},
                       Local});

    for (size_t I : Th.L.indicesOf(LocalKind::NotPushed)) {
      FiringFootprint PushFP = FP(RuleKind::Push);
      // The commutativity refinement needs the interned key of the
      // operation this push would publish; only intern when an oracle is
      // actually in play (the table is internally synchronized).
      if (Config.CommutDB)
        PushFP.OpKey = M.spec().table().opKey(Th.L[I].Op);
      Out.push_back(
          {{T, FiringKind::Push, static_cast<uint32_t>(I), 0}, PushFP});
    }

    size_t GI = 0;
    for (const GlobalEntry &GE : M.global().entries()) {
      size_t Idx = GI++;
      if (Th.L.contains(GE.Op.Id))
        continue;
      if (!Config.ExploreUncommittedPulls &&
          GE.Kind == GlobalKind::Uncommitted)
        continue;
      FiringFootprint PullFP = FP(RuleKind::Pull);
      PullFP.PullOwner = GE.Owner;
      PullFP.PullCommitted = GE.Kind == GlobalKind::Committed;
      Out.push_back(
          {{T, FiringKind::Pull, static_cast<uint32_t>(Idx), 0}, PullFP});
    }

    Out.push_back({{T, FiringKind::Commit, 0, 0}, FP(RuleKind::Commit)});

    if (Config.ExploreBackwardRules) {
      Out.push_back({{T, FiringKind::UnApp, 0, 0}, Local});
      for (size_t I : Th.L.indicesOf(LocalKind::Pushed))
        Out.push_back(
            {{T, FiringKind::UnPush, static_cast<uint32_t>(I), 0},
             FP(RuleKind::UnPush)});
      for (size_t I : Th.L.indicesOf(LocalKind::Pulled))
        Out.push_back(
            {{T, FiringKind::UnPull, static_cast<uint32_t>(I), 0}, Local});
    }
  }
}

/// Expand the successors of \p M under the configured reduction.  \p Emit
/// receives each successor machine together with its sleep set; the work
/// counters go into \p Ctr.
///
/// Sleep-set protocol: candidates are explored in canonical order; a
/// candidate already in the accumulated sleep set (the inherited set plus
/// the *applied* earlier siblings) is pruned — it was fired at an
/// ancestor and only firings independent of it happened since, so its
/// subtree here is a commutation of one already explored.  Rejected
/// candidates are never added to the accumulator: a later sibling's
/// subtree may *enable* them, and those subtrees must not prune them.
/// The child of firing C inherits the accumulated members independent of
/// C (their firing identities are stable across C: no independent firing
/// reorders another thread's local log or removes global entries).
template <typename Emit>
void expandReduced(const PushPullMachine &M, const ExplorerConfig &Config,
                   const SleepSet &Sleep, ExplorerReport &Ctr,
                   Emit &&EmitNext) {
  Arena::Scope CandScope(CandidateArena);
  ArenaVec<Candidate> Cands(CandidateArena);
  enumerateCandidates(M, Config, Cands);

  if (usesPersistentSets(Config.Reduce)) {
    size_t Dropped = restrictToPersistent(Cands);
    if (Dropped) {
      Ctr.FiringsPruned += Dropped;
      ++Ctr.PersistentCuts;
    }
  }

  const bool UseSleep = usesSleepSets(Config.Reduce);
  SleepSet Accum = Sleep;

  // Rejected rule attempts never mutate the machine (the Machine.h
  // contract: schedulers may probe moves freely), so one scratch copy of
  // M is reused across consecutive rejections; only an applied rule
  // consumes it.  This turns "one machine copy per attempt" into "one
  // per applied rule plus one", and rejections outnumber applications by
  // an order of magnitude on typical scopes.
  std::optional<PushPullMachine> Scratch;
  for (const Candidate &C : Cands) {
    if (UseSleep && Accum.contains(C.F)) {
      ++Ctr.FiringsPruned;
      continue;
    }
    if (!Scratch)
      Scratch.emplace(M);
    if (applyFiring(*Scratch, C.F)) {
      ++Ctr.RuleApplications;
      SleepSet ChildSleep =
          UseSleep ? Accum.survivorsAfter(C, Config.CommutDB) : SleepSet();
      EmitNext(std::move(*Scratch), std::move(ChildSleep));
      Scratch.reset();
      if (UseSleep)
        Accum.insert(C);
    } else if (C.F.Kind != FiringKind::Begin) {
      // Guarded begin cannot fail, so it never counts as rejected.
      ++Ctr.RejectedAttempts;
    }
  }
}

/// One unit of shared work: a configuration, the depth it was reached at,
/// and the sleep set it inherited from its parent's expansion.
struct WorkItem {
  PushPullMachine M;
  size_t Depth;
  SleepSet Sleep;
};

/// The FirstFailure text of a terminal the oracle could not certify.
std::string renderNonSerializable(const PushPullMachine &M,
                                  const SerializabilityVerdict &V) {
  std::string Text =
      "non-serializable terminal: " + V.Detail + "\n" + M.toString();
  for (const CommittedTx &C : M.committed())
    Text += "  commit[" + std::to_string(C.CommitSeq) + "] t" +
            std::to_string(C.Tid) + ": " + printCode(C.Body) +
            " start=" + C.Sigma.toString() +
            " final=" + C.FinalSigma.toString() + "\n";
  return Text + "  trace:\n" + M.trace().toString();
}

/// Add \p Part, one worker's report, into \p Sum.  The first failure is
/// the first one in worker order.
void accumulate(ExplorerReport &Sum, ExplorerReport &Part) {
  Sum.ConfigsVisited += Part.ConfigsVisited;
  Sum.TerminalConfigs += Part.TerminalConfigs;
  Sum.RuleApplications += Part.RuleApplications;
  Sum.RejectedAttempts += Part.RejectedAttempts;
  Sum.NonSerializable += Part.NonSerializable;
  Sum.InvariantViolations += Part.InvariantViolations;
  Sum.FiringsPruned += Part.FiringsPruned;
  Sum.PersistentCuts += Part.PersistentCuts;
  Sum.SymmetryHits += Part.SymmetryHits;
  Sum.OracleSkips += Part.OracleSkips;
  Sum.Truncated |= Part.Truncated;
  Sum.HitMaxConfigs |= Part.HitMaxConfigs;
  Sum.HitMaxDepth |= Part.HitMaxDepth;
  if (Sum.FirstFailure.empty())
    Sum.FirstFailure = std::move(Part.FirstFailure);
}

} // namespace

/// The search state every worker shares.
struct Explorer::Shared {
  Shared(unsigned Workers, size_t KeySections)
      : Visited(Workers, KeySections) {}

  VisitedSet Visited;
  /// Distinct configurations claimed so far; enforces MaxConfigs.
  std::atomic<uint64_t> Configs{0};
  std::mutex TerminalMutex; ///< Serializes the OnTerminal hook.

  std::mutex StackMutex;
  std::condition_variable StackCV;
  /// LIFO of the root and the subtrees donated to idle workers.
  std::vector<WorkItem> Stack;
  /// Workers inside visit.  Guarded by StackMutex.
  unsigned Busy = 0;
  /// Workers waiting for work.  Written under StackMutex and read relaxed
  /// by donors, so expanding with no idle peer takes no lock.
  std::atomic<unsigned> Idle{0};

  /// Hand a successor to a waiting worker.  Returns false, leaving the
  /// arguments untouched, when no worker is waiting or every waiting
  /// worker already has an item.
  bool donate(PushPullMachine &M, size_t Depth, SleepSet &Sleep) {
    if (Idle.load(std::memory_order_relaxed) == 0)
      return false;
    {
      std::lock_guard<std::mutex> Lock(StackMutex);
      if (Stack.size() >= Idle.load(std::memory_order_relaxed))
        return false;
      Stack.push_back(WorkItem{std::move(M), Depth, std::move(Sleep)});
    }
    StackCV.notify_one();
    return true;
  }
};

/// One worker's private state.
struct Explorer::Worker {
  /// A lone worker (\p Private false) uses the caller's checker \p Caller;
  /// a pool member gets a private checker with the same limits.
  Worker(Shared &Search, const SequentialSpec &Spec, MoverChecker &Caller,
         bool Private)
      : Search(Search),
        OwnMovers(Private ? std::make_unique<MoverChecker>(
                                Spec, Caller.limits(),
                                Caller.precongruence().limits())
                          : nullptr),
        Movers(OwnMovers ? *OwnMovers : Caller), Oracle(Spec) {}

  Shared &Search;
  std::unique_ptr<MoverChecker> OwnMovers;
  MoverChecker &Movers;
  SerializabilityChecker Oracle;
  /// Committed-content key -> oracle verdict.  The commit-order verdict is
  /// a pure function of the commit-ordered transaction bodies/stacks and
  /// the committed shared log, so distinct terminal configurations with
  /// identical committed content share one atomic-machine search.
  std::unordered_map<std::string, SerializabilityVerdict> OracleMemo;
  ExplorerReport Report;
  /// Visit scratch, reused by every visit of this worker: the rendered
  /// key, the G order it was rendered in, and the canonical sleep set.
  ConfigKeySections Key;
  SmallVec<uint32_t, 16> GOrder;
  StoredSleep Sleep;
};

std::string pushpull::truncationBounds(const ExplorerReport &R,
                                       const ExplorerConfig &C) {
  std::string Out;
  if (R.HitMaxConfigs)
    Out = "MaxConfigs=" + std::to_string(C.MaxConfigs);
  if (R.HitMaxDepth)
    Out += (Out.empty() ? "MaxDepth=" : ", MaxDepth=") +
           std::to_string(std::min(C.MaxDepth, ExplorerConfig::MaxDepthLimit));
  return Out;
}

Explorer::Explorer(const SequentialSpec &Spec, MoverChecker &Movers,
                   ExplorerConfig Config)
    : Spec(Spec), Movers(Movers), Config(Config) {
  // Visited entries hold depths in 32 bits, and a path is abandoned one
  // step past MaxDepth.
  this->Config.MaxDepth =
      std::min(this->Config.MaxDepth, ExplorerConfig::MaxDepthLimit);
}

const StoredSleep *Explorer::canonicalKey(const PushPullMachine &M,
                                          const SleepSet &Sleep,
                                          Worker &W) const {
  const CommutativityOracle *DB = Config.CommutDB;
  size_t BestPi = 0;
  if (Perms.size() <= 1)
    M.renderKey(W.Key, nullptr, DB, DB ? &W.GOrder : nullptr);
  else
    M.renderKeyCanonical(W.Key, Perms, BestPi, DB, DB ? &W.GOrder : nullptr);
  if (BestPi != 0)
    ++W.Report.SymmetryHits;
  if (!usesSleepSets(Config.Reduce))
    return nullptr;
  // Sleep sets travel in raw G-index space (stable across independent
  // firings); the visited map compares them in canonical space, so under
  // symmetry the thread ids follow the winning permutation and under the
  // commutativity quotient the PULL indices follow the G order the key
  // was rendered in (the winning permutation's, when both apply).
  W.Sleep.assign(Sleep, BestPi ? &Perms[BestPi] : nullptr,
                 DB ? &W.GOrder : nullptr);
  return &W.Sleep;
}

ExplorerReport
Explorer::explore(const std::vector<std::vector<CodePtr>> &Programs) {
  // The explorer reads the trace only when rendering a failing terminal;
  // recording it would cost a chain append per applied rule and a chain
  // share per successor copy.
  MachineConfig MC = Config.Machine;
  MC.RecordTrace = false;
  PushPullMachine M(Spec, Movers, MC);
  for (const auto &P : Programs)
    M.addThread(P);

  Perms.clear();
  if (usesSymmetry(Config.Reduce))
    Perms = symmetryGroup(Programs);

  const unsigned N = std::max(1u, Config.Threads);
  Shared Search(N, Programs.size() + 2);
  Search.Stack.push_back(WorkItem{std::move(M), 0, SleepSet()});
  std::deque<Worker> Workers;
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back(Search, Spec, Movers, /*Private=*/N > 1);
  // The calling thread is worker 0; a lone worker is the plain DFS.
  std::vector<std::thread> Pool;
  for (unsigned I = 1; I < N; ++I)
    Pool.emplace_back([this, &W = Workers[I]] { work(W); });
  work(Workers[0]);
  for (std::thread &T : Pool)
    T.join();

  ExplorerReport Report;
  for (Worker &W : Workers)
    accumulate(Report, W.Report);
  Report.VisitedBytes = Search.Visited.bytes();
  return Report;
}

void Explorer::work(Worker &W) {
  Shared &S = W.Search;
  std::unique_lock<std::mutex> Lock(S.StackMutex);
  for (;;) {
    S.Idle.fetch_add(1, std::memory_order_relaxed);
    S.StackCV.wait(Lock, [&] { return !S.Stack.empty() || S.Busy == 0; });
    S.Idle.fetch_sub(1, std::memory_order_relaxed);
    if (S.Stack.empty())
      return; // No work anywhere and nobody left to donate any: done.
    WorkItem Item = std::move(S.Stack.back());
    S.Stack.pop_back();
    ++S.Busy;
    Lock.unlock();

    Item.M.setMovers(W.Movers);
    visit(std::move(Item.M), Item.Depth, std::move(Item.Sleep), W);

    Lock.lock();
    if (--S.Busy == 0)
      S.StackCV.notify_all();
  }
}

void Explorer::visit(PushPullMachine M, size_t Depth, SleepSet Sleep,
                     Worker &W) {
  Shared &S = W.Search;
  ExplorerReport &Report = W.Report;
  if (S.Configs.load(std::memory_order_relaxed) >= Config.MaxConfigs) {
    Report.Truncated = Report.HitMaxConfigs = true;
    return;
  }
  if (Depth > Config.MaxDepth) {
    Report.Truncated = Report.HitMaxDepth = true;
    return;
  }
  // Under symmetry, key and sleep set move to the canonical labeling so
  // entries stored by isomorphic configurations compare like with like.
  const StoredSleep *Stored = canonicalKey(M, Sleep, W);
  VisitedSet::Claim C =
      S.Visited.claim(W.Key, static_cast<uint32_t>(Depth), Stored);
  if (!C.Explore)
    return;

  if (C.Fresh) {
    ++Report.ConfigsVisited;
    S.Configs.fetch_add(1, std::memory_order_relaxed);
    if (Config.CheckInvariants) {
      for (const ThreadState &Th : M.threads()) {
        InvariantReport IR = checkAllInvariants(Th, M.global(), W.Movers);
        if (!IR.Holds) {
          ++Report.InvariantViolations;
          if (Report.FirstFailure.empty())
            Report.FirstFailure = IR.Which + ": " + IR.Detail;
        }
      }
    }
  }

  if (M.quiescent()) {
    if (!C.Fresh)
      return;
    ++Report.TerminalConfigs;
    if (Config.OnTerminal) {
      std::lock_guard<std::mutex> Lock(S.TerminalMutex);
      Config.OnTerminal(M);
    }
    if (Config.SkipOracle) {
      // The program was statically proved serializable; the per-terminal
      // replay is certified redundant.
      ++Report.OracleSkips;
      return;
    }
    const SerializabilityVerdict &V =
        cachedCommitOrderVerdict(W.Oracle, W.OracleMemo, Spec.table(), M);
    if (V.Serializable != Tri::Yes) {
      ++Report.NonSerializable;
      if (Report.FirstFailure.empty())
        Report.FirstFailure = renderNonSerializable(M, V);
    }
    return;
  }

  expandReduced(M, Config, Sleep, Report,
                [&](PushPullMachine Next, SleepSet NextSleep) {
                  if (!S.donate(Next, Depth + 1, NextSleep))
                    visit(std::move(Next), Depth + 1, std::move(NextSleep),
                          W);
                });
}
