//===- sim/Scenario.cpp - Declarative experiment scenarios ------------------===//

#include "sim/Scenario.h"

#include "check/Opacity.h"
#include "check/Serializability.h"
#include "core/Invariants.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
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

#include <cstdint>
#include <fstream>
#include <optional>
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

using Options = std::map<std::string, std::string>;

/// Read option \p Key as a decimal integer in [\p Min, \p Max] into
/// \p Out, or \p Default when the option is absent or has no value.
/// False, with \p Error set, on a malformed, overflowing or out-of-range
/// value.
template <typename T>
bool readNum(const Options &Opts, const std::string &Key, T Default,
             uint64_t Min, uint64_t Max, T &Out, std::string &Error) {
  auto It = Opts.find(Key);
  if (It == Opts.end() || It->second.empty()) {
    Out = Default;
    return true;
  }
  std::optional<uint64_t> V = parseUnsigned(It->second, Min, Max);
  if (!V) {
    Error = "option '" + Key + "' needs an integer in [" +
            std::to_string(Min) + ", " + std::to_string(Max) + "], got '" +
            It->second + "'";
    return false;
  }
  Out = static_cast<T>(*V);
  return true;
}

/// The numeric engine options, read and range-checked in one place so the
/// parser rejects a bad value at its `engine` line and makeEngine never
/// builds from one.  Options an engine does not use are checked too.
struct EngineNumbers {
  uint64_t Seed = 1;
  unsigned Every = 2;
  unsigned Deadlock = 8;
  unsigned KeyLocks = 1;
  TxId Irrevocable = 0;
  unsigned AbortPct = 0;
  unsigned ConflictPct = 0;
};

bool readEngineNumbers(const Options &Opts, EngineNumbers &N,
                       std::string &Error) {
  const uint64_t U32 = UINT32_MAX;
  return readNum(Opts, "seed", N.Seed, 0, UINT64_MAX, N.Seed, Error) &&
         readNum(Opts, "every", N.Every, 1, U32, N.Every, Error) &&
         readNum(Opts, "deadlock", N.Deadlock, 0, U32, N.Deadlock, Error) &&
         readNum(Opts, "keylocks", N.KeyLocks, 0, 1, N.KeyLocks, Error) &&
         readNum(Opts, "irrevocable", N.Irrevocable, 0, U32, N.Irrevocable,
                 Error) &&
         readNum(Opts, "abortpct", N.AbortPct, 0, 100, N.AbortPct, Error) &&
         readNum(Opts, "conflictpct", N.ConflictPct, 0, 100, N.ConflictPct,
                 Error);
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
pushpull::makeSpecPart(const std::string &Kind, const Options &Opts,
                       std::string &Name, std::string &Error) {
  Name = strOr(Opts, "name", Kind);
  unsigned A = 0, B = 0, C = 0; // Domain sizes, in constructor order.
  auto Domain = [&](const char *Key, unsigned Default, unsigned &Out) {
    return readNum(Opts, Key, Default, 1, MaxSpecDomain, Out, Error);
  };
  if (Kind == "register")
    return Domain("regs", 4, A) && Domain("vals", 4, B)
               ? std::make_shared<RegisterSpec>(Name, A, B)
               : nullptr;
  if (Kind == "counter")
    return Domain("counters", 2, A) && Domain("mod", 8, B)
               ? std::make_shared<CounterSpec>(Name, A, B)
               : nullptr;
  if (Kind == "set")
    return Domain("keys", 8, A) ? std::make_shared<SetSpec>(Name, A)
                                : nullptr;
  if (Kind == "map")
    return Domain("keys", 8, A) && Domain("vals", 4, B)
               ? std::make_shared<MapSpec>(Name, A, B)
               : nullptr;
  if (Kind == "queue")
    return Domain("cap", 4, A) && Domain("vals", 2, B)
               ? std::make_shared<QueueSpec>(Name, A, B)
               : nullptr;
  if (Kind == "bank") {
    if (!Domain("accounts", 2, A) || !Domain("cap", 4, B) ||
        !readNum(Opts, "initial", 2u, 0, B, C, Error))
      return nullptr;
    if (C > B) { // The default initial balance may exceed a small cap.
      Error = "bank initial balance " + std::to_string(C) +
              " exceeds cap " + std::to_string(B);
      return nullptr;
    }
    return std::make_shared<BankSpec>(Name, A, B, C);
  }
  Error = "unknown spec kind '" + Kind + "'";
  return nullptr;
}

bool SpecAssembler::add(const std::string &Kind, const Options &Opts,
                        std::string &Error) {
  std::string Name;
  auto Part = makeSpecPart(Kind, Opts, Name, Error);
  if (!Part)
    return false;
  for (const auto &[Existing, _] : Parts)
    if (Existing == Name) {
      Error = "duplicate spec name '" + Name + "'";
      return false;
    }
  Parts.push_back({Name, std::move(Part)});
  return true;
}

std::shared_ptr<const SequentialSpec> SpecAssembler::spec() const {
  if (Parts.size() <= 1)
    return Parts.empty() ? nullptr : Parts[0].second;
  auto Composite = std::make_shared<CompositeSpec>();
  for (const auto &[Name, Part] : Parts)
    Composite->add(Name, Part);
  return Composite;
}

std::unique_ptr<TMEngine>
pushpull::makeEngine(const std::string &Name, const Options &Opts,
                     PushPullMachine &M, std::string &Error) {
  EngineNumbers N;
  if (!readEngineNumbers(Opts, N, Error))
    return nullptr;
  uint64_t Seed = N.Seed;

  if (Name == "optimistic")
    return std::make_unique<OptimisticTM>(M, OptimisticConfig{Seed});
  if (Name == "checkpoint") {
    CheckpointConfig C;
    C.Seed = Seed;
    C.CheckpointEvery = N.Every;
    return std::make_unique<CheckpointTM>(M, C);
  }
  if (Name == "boosting") {
    BoostingConfig C;
    C.Seed = Seed;
    C.DeadlockThreshold = N.Deadlock;
    C.KeyGranularLocks = N.KeyLocks != 0;
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
    C.IrrevocableThread = N.Irrevocable;
    return std::make_unique<IrrevocableTM>(M, C);
  }
  if (Name == "dependent") {
    DependentConfig C;
    C.Seed = Seed;
    C.AbortChancePct = N.AbortPct;
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
    C.ConflictChancePct = N.ConflictPct;
    for (const std::string &Obj : splitOn(strOr(Opts, "htm", ""), ','))
      if (!Obj.empty())
        C.HtmObjects.insert(Obj);
    return std::make_unique<HybridHtmBoostingTM>(M, std::move(C));
  }
  Error = "unknown engine '" + Name + "'";
  return nullptr;
}

std::string pushpull::directiveLine(const std::string &Head,
                                    const Options &Opts) {
  std::string Out = Head;
  for (const auto &[K, V] : Opts)
    Out += " " + K + (V.empty() ? "" : "=" + V);
  return Out + "\n";
}

std::string pushpull::threadLine(const std::vector<CodePtr> &Txs) {
  std::string Out = "thread ";
  for (size_t I = 0; I < Txs.size(); ++I)
    Out += (I ? "; " : "") + printCode(Txs[I]);
  return Out + "\n";
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
  SpecAssembler Specs;

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
      std::string Error;
      if (!Specs.add(Ws[1], options(Ws, 2), Error))
        return Fail(N + 1, Error);
      continue;
    }
    if (Directive == "engine") {
      if (Ws.size() < 2)
        return Fail(N + 1, "engine needs a name");
      S->Engine = Ws[1];
      S->EngineOpts = options(Ws, 2);
      // The name is checked when the engine is built (the linter reports
      // an unknown one); its numbers are checked here, at their line.
      EngineNumbers Unused;
      std::string Error;
      if (!readEngineNumbers(S->EngineOpts, Unused, Error))
        return Fail(N + 1, Error);
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
      std::string Error;
      if (!readNum(Opts, "seed", uint64_t{1}, 0, UINT64_MAX, S->ScheduleSeed,
                   Error) ||
          !readNum(Opts, "maxsteps", uint64_t{200000}, 0, UINT64_MAX,
                   S->MaxSteps, Error) ||
          // At most one change point per step of the PCT horizon.
          !readNum(Opts, "changepoints", 3u, 0, 4096, S->ChangePoints,
                   Error))
        return Fail(N + 1, Error);
      if (S->Policy == SchedulePolicy::Replay) {
        std::string Picks = strOr(Opts, "picks", "");
        if (Picks.empty())
          return Fail(N + 1, "schedule replay needs picks=t0,t1,...");
        for (const std::string &P : splitOn(Picks, ',')) {
          if (P.empty())
            continue;
          std::optional<uint64_t> V = parseUnsigned(P, 0, UINT32_MAX);
          if (!V)
            return Fail(N + 1, "bad replay pick '" + P + "'");
          S->ReplayPicks.push_back(static_cast<uint32_t>(*V));
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

  S->Spec = Specs.spec();
  if (!S->Spec)
    return Fail(0, "scenario declares no spec");
  if (S->Threads.empty())
    return Fail(0, "scenario declares no threads");
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

SchedulerConfig Scenario::schedule() const {
  SchedulerConfig SC;
  SC.Policy = Policy;
  SC.Seed = ScheduleSeed;
  SC.MaxSteps = MaxSteps;
  SC.ChangePoints = ChangePoints;
  SC.ReplayPicks = ReplayPicks;
  return SC;
}

static MachineConfig injecting(MachineConfig MC, const std::string &Criterion) {
  MC.DisabledCriterion = Criterion;
  return MC;
}

CaseRun::CaseRun(const Scenario &S, MachineConfig MC)
    : Movers(*S.Spec, S.Movers, S.Pre),
      Machine(*S.Spec, Movers,
              injecting(std::move(MC), S.DisabledCriterion)) {
  for (const auto &P : S.Threads)
    Machine.addThread(P);
  Engine = makeEngine(S.Engine, S.EngineOpts, Machine, Error);
}

void CaseRun::fillCaches(CacheStats &C,
                         const memstats::Snapshot &Before) const {
  C.Intern = Machine.spec().internStats();
  C.MoverMemoHits = Movers.memoHits();
  C.MoverMemoMisses = Movers.memoMisses();
  C.PrecongruencePairs = Movers.precongruence().pairsVisited();
  C.ReachableSets = Movers.reachableComputedCount();
  C.Memory = memstats::read().delta(Before);
}

ScenarioOutcome pushpull::runScenario(const Scenario &S) {
  ScenarioOutcome Out;
  memstats::Snapshot MemBefore = memstats::read();
  MachineConfig MC;
  MC.RecordAudit = true; // Scenario runs are small; keep the discharge log.
  CaseRun Run(S, std::move(MC));
  if (!Run.ok()) {
    Out.CheckResults.push_back("error: " + Run.error());
    return Out;
  }
  PushPullMachine &M = Run.Machine;
  MoverChecker &Movers = Run.Movers;

  Out.Stats = Scheduler(S.schedule()).run(*Run.Engine);
  Out.Trace = M.trace().toString();
  Out.Audit = M.auditToString();
  Out.CommittedLog = M.global().toString();
  Out.Ok = Out.Stats.Quiescent;
  bool Inconclusive = false;

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
        Line += " (truncated at " + truncationBounds(R, EC) + ")";
      Out.CheckResults.push_back(std::move(Line));
      Out.Caches.ExplorerFiringsPruned += R.FiringsPruned;
      Out.Caches.ExplorerPersistentCuts += R.PersistentCuts;
      Out.Caches.ExplorerSymmetryHits += R.SymmetryHits;
      Out.Caches.ExplorerReductionRatio = R.reductionRatio();
      Out.Caches.ExplorerConfigs += R.ConfigsVisited;
      Out.Caches.ExplorerVisitedBytes += R.VisitedBytes;
      Out.Caches.OracleSkips += R.OracleSkips;
      // A truncated search is no verdict: it found no failure only in the
      // part it explored.
      Out.Ok = Out.Ok && R.clean();
      Inconclusive = Inconclusive || R.Truncated;
    } else {
      Out.CheckResults.push_back("error: unknown check '" + Check + "'");
      Out.Ok = false;
    }
  }

  if (S.CommutDB) {
    Out.Caches.CommutTableHits = S.CommutDB->tableHits();
    Out.Caches.CommutTableMisses = S.CommutDB->tableMisses();
    Out.Caches.CertChecks = S.CommutDB->certChecks();
  }
  Run.fillCaches(Out.Caches, MemBefore);
  Out.Unknown = Out.Ok && Inconclusive;
  Out.Ok = Out.Ok && !Inconclusive;
  return Out;
}
