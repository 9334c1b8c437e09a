//===- sim/Scenario.cpp - Declarative experiment scenarios ------------------===//

#include "sim/Scenario.h"

#include "check/Opacity.h"
#include "check/Serializability.h"
#include "core/Invariants.h"
#include "lang/Parser.h"
#include "sim/Explorer.h"
#include "sim/Scheduler.h"
#include "spec/BankSpec.h"
#include "spec/CompositeSpec.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"
#include "support/Str.h"
#include "tm/BoostingTM.h"
#include "tm/CheckpointTM.h"
#include "tm/DependentTM.h"
#include "tm/EarlyReleaseTM.h"
#include "tm/HtmTM.h"
#include "tm/HybridHtmBoostingTM.h"
#include "tm/IrrevocableTM.h"
#include "tm/OptimisticTM.h"
#include "tm/PessimisticCommitTM.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace pushpull;

namespace {

/// Tokenize a directive line into words.
std::vector<std::string> words(const std::string &Line) {
  std::vector<std::string> Out;
  std::istringstream In(Line);
  std::string W;
  while (In >> W)
    Out.push_back(W);
  return Out;
}

/// Parse trailing key=value options into a map.
std::map<std::string, std::string>
options(const std::vector<std::string> &Ws, size_t From) {
  std::map<std::string, std::string> Out;
  for (size_t I = From; I < Ws.size(); ++I) {
    size_t Eq = Ws[I].find('=');
    if (Eq == std::string::npos)
      Out[Ws[I]] = "";
    else
      Out[Ws[I].substr(0, Eq)] = Ws[I].substr(Eq + 1);
  }
  return Out;
}

uint64_t numOr(const std::map<std::string, std::string> &Opts,
               const std::string &Key, uint64_t Default) {
  auto It = Opts.find(Key);
  if (It == Opts.end() || It->second.empty())
    return Default;
  return std::stoull(It->second);
}

std::string strOr(const std::map<std::string, std::string> &Opts,
                  const std::string &Key, const std::string &Default) {
  auto It = Opts.find(Key);
  return It == Opts.end() ? Default : It->second;
}

void collectTxs(const CodePtr &C, std::vector<CodePtr> &Out, bool &Bad) {
  switch (C->kind()) {
  case CodeKind::Tx:
    Out.push_back(C);
    return;
  case CodeKind::Seq:
    collectTxs(C->lhs(), Out, Bad);
    collectTxs(C->rhs(), Out, Bad);
    return;
  case CodeKind::Skip:
    return;
  default:
    Bad = true;
    return;
  }
}

} // namespace

std::shared_ptr<const SequentialSpec>
pushpull::makeSpecPart(const std::string &Kind,
                       const std::map<std::string, std::string> &Opts,
                       std::string &Name, std::string &Error) {
  Name = strOr(Opts, "name", Kind);
  if (Kind == "register")
    return std::make_shared<RegisterSpec>(
        Name, static_cast<unsigned>(numOr(Opts, "regs", 4)),
        static_cast<unsigned>(numOr(Opts, "vals", 4)));
  if (Kind == "counter")
    return std::make_shared<CounterSpec>(
        Name, static_cast<unsigned>(numOr(Opts, "counters", 2)),
        static_cast<unsigned>(numOr(Opts, "mod", 8)));
  if (Kind == "set")
    return std::make_shared<SetSpec>(
        Name, static_cast<unsigned>(numOr(Opts, "keys", 8)));
  if (Kind == "map")
    return std::make_shared<MapSpec>(
        Name, static_cast<unsigned>(numOr(Opts, "keys", 8)),
        static_cast<unsigned>(numOr(Opts, "vals", 4)));
  if (Kind == "queue")
    return std::make_shared<QueueSpec>(
        Name, static_cast<unsigned>(numOr(Opts, "cap", 4)),
        static_cast<unsigned>(numOr(Opts, "vals", 2)));
  if (Kind == "bank")
    return std::make_shared<BankSpec>(
        Name, static_cast<unsigned>(numOr(Opts, "accounts", 2)),
        static_cast<unsigned>(numOr(Opts, "cap", 4)),
        static_cast<unsigned>(numOr(Opts, "initial", 2)));
  Error = "unknown spec kind '" + Kind + "'";
  return nullptr;
}

std::unique_ptr<TMEngine>
pushpull::makeEngine(const std::string &Name,
                     const std::map<std::string, std::string> &Opts,
                     PushPullMachine &M, std::string &Error) {
  uint64_t Seed = std::stoull(
      Opts.count("seed") && !Opts.at("seed").empty() ? Opts.at("seed") : "1");

  if (Name == "optimistic")
    return std::make_unique<OptimisticTM>(M, OptimisticConfig{Seed});
  if (Name == "checkpoint") {
    CheckpointConfig C;
    C.Seed = Seed;
    C.CheckpointEvery = static_cast<unsigned>(numOr(Opts, "every", 2));
    return std::make_unique<CheckpointTM>(M, C);
  }
  if (Name == "boosting") {
    BoostingConfig C;
    C.Seed = Seed;
    C.DeadlockThreshold =
        static_cast<unsigned>(numOr(Opts, "deadlock", 8));
    C.KeyGranularLocks = numOr(Opts, "keylocks", 1) != 0;
    return std::make_unique<BoostingTM>(M, C);
  }
  if (Name == "pessimistic") {
    PessimisticConfig C;
    C.Seed = Seed;
    return std::make_unique<PessimisticCommitTM>(M, std::move(C));
  }
  if (Name == "irrevocable") {
    IrrevocableConfig C;
    C.Seed = Seed;
    C.IrrevocableThread =
        static_cast<TxId>(numOr(Opts, "irrevocable", 0));
    return std::make_unique<IrrevocableTM>(M, C);
  }
  if (Name == "dependent") {
    DependentConfig C;
    C.Seed = Seed;
    C.AbortChancePct =
        static_cast<unsigned>(numOr(Opts, "abortpct", 0));
    return std::make_unique<DependentTM>(M, C);
  }
  if (Name == "early-release")
    return std::make_unique<EarlyReleaseTM>(M, EarlyReleaseConfig{Seed});
  if (Name == "htm" || Name == "htm-word") {
    HtmConfig C;
    C.Seed = Seed;
    C.WordGranularity = Name == "htm-word";
    return std::make_unique<HtmTM>(M, C);
  }
  if (Name == "hybrid") {
    HybridConfig C;
    C.Seed = Seed;
    C.ConflictChancePct =
        static_cast<unsigned>(numOr(Opts, "conflictpct", 0));
    for (const std::string &Obj : splitOn(strOr(Opts, "htm", ""), ','))
      if (!Obj.empty())
        C.HtmObjects.insert(Obj);
    return std::make_unique<HybridHtmBoostingTM>(M, std::move(C));
  }
  Error = "unknown engine '" + Name + "'";
  return nullptr;
}

const std::vector<std::string> &pushpull::allEngineNames() {
  static const std::vector<std::string> Names = {
      "optimistic", "checkpoint", "boosting",      "pessimistic", "irrevocable",
      "dependent",  "early-release", "htm",        "htm-word",    "hybrid"};
  return Names;
}

const std::vector<std::string> &pushpull::allSpecKinds() {
  static const std::vector<std::string> Kinds = {
      "register", "counter", "set", "map", "queue", "bank"};
  return Kinds;
}

std::vector<CodePtr> pushpull::flattenTransactions(const CodePtr &C,
                                                   std::string &Error) {
  std::vector<CodePtr> Out;
  bool Bad = false;
  collectTxs(C, Out, Bad);
  if (Bad) {
    Error = "thread programs must be sequences of tx { ... } blocks "
            "(methods may not occur outside a transaction)";
    return {};
  }
  return Out;
}

ScenarioParseResult pushpull::parseScenario(const std::string &Text) {
  ScenarioParseResult Out;
  auto S = std::make_unique<Scenario>();
  auto Composite = std::make_shared<CompositeSpec>();
  std::vector<std::pair<std::string, std::shared_ptr<const SequentialSpec>>>
      Parts;

  auto Fail = [&](size_t LineNo, std::string Msg) {
    Out.Error = std::move(Msg);
    Out.ErrorLine = LineNo;
    Out.Parsed = nullptr;
    return std::move(Out);
  };

  std::vector<std::string> Lines = splitOn(Text, '\n');
  for (size_t N = 0; N < Lines.size(); ++N) {
    std::string Line = Lines[N];
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    std::vector<std::string> Ws = words(Line);
    if (Ws.empty())
      continue;
    const std::string &Directive = Ws[0];

    if (Directive == "spec") {
      if (Ws.size() < 2)
        return Fail(N + 1, "spec needs a kind");
      std::string Name, Error;
      auto Part = makeSpecPart(Ws[1], options(Ws, 2), Name, Error);
      if (!Part)
        return Fail(N + 1, Error);
      for (const auto &[ExistingName, _] : Parts)
        if (ExistingName == Name)
          return Fail(N + 1, "duplicate spec name '" + Name + "'");
      Parts.push_back({Name, std::move(Part)});
      continue;
    }
    if (Directive == "engine") {
      if (Ws.size() < 2)
        return Fail(N + 1, "engine needs a name");
      S->Engine = Ws[1];
      S->EngineOpts = options(Ws, 2);
      continue;
    }
    if (Directive == "schedule") {
      if (Ws.size() < 2)
        return Fail(N + 1, "schedule needs a policy");
      if (Ws[1] == "random")
        S->Policy = SchedulePolicy::RandomUniform;
      else if (Ws[1] == "roundrobin")
        S->Policy = SchedulePolicy::RoundRobin;
      else if (Ws[1] == "pct")
        S->Policy = SchedulePolicy::PriorityChangePoints;
      else if (Ws[1] == "replay")
        S->Policy = SchedulePolicy::Replay;
      else
        return Fail(N + 1, "unknown schedule policy '" + Ws[1] + "'");
      auto Opts = options(Ws, 2);
      S->ScheduleSeed = numOr(Opts, "seed", 1);
      S->MaxSteps = numOr(Opts, "maxsteps", 200000);
      S->ChangePoints =
          static_cast<unsigned>(numOr(Opts, "changepoints", 3));
      if (S->Policy == SchedulePolicy::Replay) {
        std::string Picks = strOr(Opts, "picks", "");
        if (Picks.empty())
          return Fail(N + 1, "schedule replay needs picks=t0,t1,...");
        for (const std::string &P : splitOn(Picks, ',')) {
          if (P.empty())
            continue;
          char *End = nullptr;
          unsigned long V = std::strtoul(P.c_str(), &End, 10);
          if (End == P.c_str() || *End != '\0')
            return Fail(N + 1, "bad replay pick '" + P + "'");
          S->ReplayPicks.push_back(static_cast<uint32_t>(V));
        }
      }
      continue;
    }
    if (Directive == "inject") {
      // Fault injection: the rest of the line is the exact paper-style
      // criterion name to skip, e.g. `inject PUSH criterion (ii)`.
      if (Ws.size() < 2)
        return Fail(N + 1, "inject needs a criterion name");
      size_t At = Line.find("inject");
      std::string Name = Line.substr(At + 6);
      size_t B = Name.find_first_not_of(" \t");
      size_t E = Name.find_last_not_of(" \t\r");
      if (B == std::string::npos)
        return Fail(N + 1, "inject needs a criterion name");
      S->DisabledCriterion = Name.substr(B, E - B + 1);
      continue;
    }
    if (Directive == "thread") {
      std::string Program = Line.substr(Line.find("thread") + 6);
      ParseResult PR = parseCode(Program);
      if (!PR.ok())
        return Fail(N + 1, "program parse error: " + PR.Error);
      std::string Error;
      std::vector<CodePtr> Txs = flattenTransactions(PR.Parsed, Error);
      if (!Error.empty())
        return Fail(N + 1, Error);
      if (Txs.empty())
        return Fail(N + 1, "thread has no transactions");
      S->Threads.push_back(std::move(Txs));
      continue;
    }
    if (Directive == "check") {
      if (Ws.size() < 2)
        return Fail(N + 1, "check needs a name");
      S->Checks.push_back(Ws[1]);
      continue;
    }
    return Fail(N + 1, "unknown directive '" + Directive + "'");
  }

  if (Parts.empty())
    return Fail(0, "scenario declares no spec");
  if (S->Threads.empty())
    return Fail(0, "scenario declares no threads");

  if (Parts.size() == 1) {
    S->Spec = Parts[0].second;
  } else {
    for (auto &[Name, Part] : Parts)
      Composite->add(Name, std::move(Part));
    S->Spec = Composite;
  }
  Out.Parsed = std::move(S);
  return Out;
}

ScenarioFile pushpull::loadScenarioFile(const std::string &Path) {
  ScenarioFile Out;
  std::ifstream In(Path);
  if (!In) {
    Out.Error = "cannot open '" + Path + "'";
    Out.Diagnostic = "error: " + Out.Error;
    return Out;
  }
  Out.Opened = true;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out.Text = Buf.str();
  static_cast<ScenarioParseResult &>(Out) = parseScenario(Out.Text);
  if (!Out.ok())
    Out.Diagnostic = Path + ":" + std::to_string(Out.ErrorLine) +
                     ": error: " + Out.Error;
  return Out;
}

ScenarioOutcome pushpull::runScenario(const Scenario &S) {
  ScenarioOutcome Out;
  memstats::Snapshot MemBefore = memstats::read();
  MoverChecker Movers(*S.Spec, S.Movers, S.Pre);
  MachineConfig MC;
  MC.RecordAudit = true; // Scenario runs are small; keep the discharge log.
  MC.DisabledCriterion = S.DisabledCriterion;
  PushPullMachine M(*S.Spec, Movers, MC);
  for (const auto &P : S.Threads)
    M.addThread(P);

  std::string EngineError;
  std::unique_ptr<TMEngine> Engine =
      makeEngine(S.Engine, S.EngineOpts, M, EngineError);
  if (!Engine) {
    Out.CheckResults.push_back("error: " + EngineError);
    return Out;
  }

  SchedulerConfig SC;
  SC.Policy = S.Policy;
  SC.Seed = S.ScheduleSeed;
  SC.MaxSteps = S.MaxSteps;
  SC.ChangePoints = S.ChangePoints;
  SC.ReplayPicks = S.ReplayPicks;
  Scheduler Sched(SC);
  Out.Stats = Sched.run(*Engine);
  Out.Trace = M.trace().toString();
  Out.Audit = M.auditToString();
  Out.CommittedLog = M.global().toString();
  Out.Ok = Out.Stats.Quiescent;

  for (const std::string &Check : S.Checks) {
    if (Check == "serializability" || Check == "serializability-any") {
      SerializabilityChecker Oracle(*S.Spec, {}, S.Pre);
      SerializabilityVerdict V = Check == "serializability"
                                     ? Oracle.checkCommitOrder(M)
                                     : Oracle.checkAnyOrder(M);
      Out.CheckResults.push_back(Check + ": " + toString(V.Serializable));
      Out.Ok = Out.Ok && V.Serializable == Tri::Yes;
    } else if (Check == "opacity") {
      OpacityReport R = classifyTrace(M.trace());
      Out.CheckResults.push_back(
          "opacity: " + std::string(R.InOpaqueFragment
                                        ? "in the opaque fragment"
                                        : "outside the opaque fragment") +
          " (" + std::to_string(R.UncommittedPulls) + "/" +
          std::to_string(R.TotalPulls) + " uncommitted pulls)");
    } else if (Check == "invariants") {
      bool AllHold = true;
      for (const ThreadState &Th : M.threads()) {
        InvariantReport R = checkAllInvariants(Th, M.global(), Movers);
        if (!R.Holds) {
          AllHold = false;
          Out.CheckResults.push_back("invariants: FAILED " + R.Which +
                                     " — " + R.Detail);
        }
      }
      if (AllHold)
        Out.CheckResults.push_back("invariants: hold");
      Out.Ok = Out.Ok && AllHold;
    } else if (Check == "explore") {
      // Exhaustive interleaving exploration of the scenario's programs —
      // every schedule, not just the one the engine/scheduler produced.
      ExplorerConfig EC;
      EC.Threads = S.ExplorerThreads;
      EC.Reduce = S.ExplorerReduction;
      EC.CommutDB = S.CommutDB;
      EC.SkipOracle = S.SkipOracleReplay;
      Explorer Ex(*S.Spec, Movers, EC);
      ExplorerReport R = Ex.explore(S.Threads);
      std::string Line =
          "explore: " + std::to_string(R.ConfigsVisited) + " configs, " +
          std::to_string(R.TerminalConfigs) + " terminals, " +
          std::to_string(R.NonSerializable) + " non-serializable, " +
          std::to_string(R.InvariantViolations) + " invariant violations";
      if (EC.Reduce != Reduction::None)
        Line += ", reduction=" + toString(EC.Reduce) + " pruned " +
                std::to_string(R.FiringsPruned) + " firings";
      if (R.OracleSkips)
        Line += ", " + std::to_string(R.OracleSkips) + " oracle-skipped";
      if (R.Truncated)
        Line += " (truncated)";
      Out.CheckResults.push_back(std::move(Line));
      Out.Caches.ExplorerFiringsPruned += R.FiringsPruned;
      Out.Caches.ExplorerPersistentCuts += R.PersistentCuts;
      Out.Caches.ExplorerSymmetryHits += R.SymmetryHits;
      Out.Caches.ExplorerReductionRatio = R.reductionRatio();
      Out.Caches.OracleSkips += R.OracleSkips;
      Out.Ok = Out.Ok && R.clean();
    } else {
      Out.CheckResults.push_back("error: unknown check '" + Check + "'");
      Out.Ok = false;
    }
  }

  Out.Caches.Intern = S.Spec->internStats();
  Out.Caches.MoverMemoHits = Movers.memoHits();
  Out.Caches.MoverMemoMisses = Movers.memoMisses();
  Out.Caches.PrecongruencePairs = Movers.precongruence().pairsVisited();
  Out.Caches.ReachableSets = Movers.reachableComputedCount();
  if (S.CommutDB) {
    Out.Caches.CommutTableHits = S.CommutDB->tableHits();
    Out.Caches.CommutTableMisses = S.CommutDB->tableMisses();
    Out.Caches.CertChecks = S.CommutDB->certChecks();
  }
  Out.Caches.Memory = memstats::read().delta(MemBefore);
  return Out;
}
