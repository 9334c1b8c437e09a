//===- sim/Scenario.h - Declarative experiment scenarios --------*- C++ -*-===//
//
// Part of the pushpull project: an executable semantics for the PUSH/PULL
// model of transactions (Koskinen & Parkinson, PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative format for describing a complete experiment — the
/// specification(s), the TM engine, the schedule, the thread programs,
/// and the checks to run — so scenarios can live in text files and be
/// driven by the `pprun` tool (or constructed programmatically in tests):
///
///   # Figure 2, in scenario form.
///   spec map name=map keys=8 vals=4
///   engine boosting seed=42
///   schedule random seed=7 maxsteps=100000
///   thread tx { a := map.put(1, 2) }; tx { b := map.get(1) }
///   thread tx { c := map.put(1, 3) }
///   check serializability
///   check opacity
///
/// Multiple `spec` lines compose into a CompositeSpec (the Section 7
/// mixture).  Supported specs: register, counter, set, map, queue, bank.
/// Supported engines: optimistic, checkpoint, boosting, pessimistic,
/// irrevocable, dependent, early-release, htm, htm-word, hybrid.
///
//===----------------------------------------------------------------------===//

#ifndef PUSHPULL_SIM_SCENARIO_H
#define PUSHPULL_SIM_SCENARIO_H

#include "core/Machine.h"
#include "sim/Reduction.h"
#include "sim/Scheduler.h"
#include "sim/Stats.h"
#include "tm/Engine.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pushpull {

/// A parsed scenario, ready to run: the one description of an engine run,
/// whether parsed (pprun), built from a FuzzCase (buildCase) or built per
/// stress round.  CaseRun turns it into a running machine.
struct Scenario {
  /// The composed specification (single part or composite).
  std::shared_ptr<const SequentialSpec> Spec;
  /// Engine selector (one of the names above).
  std::string Engine = "optimistic";
  /// Engine key=value options (seed, deadlock, abort%, conflict%, htm=...).
  std::map<std::string, std::string> EngineOpts;
  /// Scheduler policy ("random", "roundrobin", "pct", or "replay"), seed,
  /// step budget, and PCT change-point count.
  SchedulePolicy Policy = SchedulePolicy::RandomUniform;
  uint64_t ScheduleSeed = 1;
  uint64_t MaxSteps = 200000;
  unsigned ChangePoints = 3;
  /// For the "replay" policy: the recorded pick sequence
  /// (`schedule replay picks=0,1,0,...` — the `.ppsched` format).
  std::vector<uint32_t> ReplayPicks;
  /// Fault injection (`inject PUSH criterion (ii)`): forwarded to
  /// MachineConfig::DisabledCriterion.  Empty in production scenarios.
  std::string DisabledCriterion;
  /// Per-thread transaction sequences.
  std::vector<std::vector<CodePtr>> Threads;
  /// Requested checks: "serializability", "serializability-any",
  /// "opacity", "invariants", "explore".
  std::vector<std::string> Checks;
  /// Resource bounds for the mover/precongruence engines the run and its
  /// checks construct (pprun --max-reachable / --max-pairs).
  MoverLimits Movers;
  PrecongruenceLimits Pre;
  /// Worker threads for the "explore" check (pprun --threads).
  unsigned ExplorerThreads = 1;
  /// Partial-order reduction for the "explore" check (pprun --reduction).
  Reduction ExplorerReduction = Reduction::None;
  /// Certified commutativity oracle for the "explore" check (pprun
  /// --commut-db): enables the PUSH x PUSH independence refinement and the
  /// G-order quotient key together.  Not owned; must outlive the run and
  /// cover the scenario's operation alphabet (see core/Commut.h).
  const CommutativityOracle *CommutDB = nullptr;
  /// Skip the per-terminal serializability replay in "explore": only set
  /// after ppcheck --prove (or pprun --static-prove) established a
  /// whole-program proof for this scenario's engine surface.
  bool SkipOracleReplay = false;

  /// The scheduler settings of this run.
  SchedulerConfig schedule() const;
};

/// Upper bound on every spec domain size (regs, vals, keys, ...).  The
/// mover and oracle checks enumerate state sets, so one map.put over
/// keys=64 vals=64 already takes about half a second.
constexpr unsigned MaxSpecDomain = 64;

/// Parse outcome.
struct ScenarioParseResult {
  std::unique_ptr<Scenario> Parsed;
  std::string Error;
  size_t ErrorLine = 0;

  bool ok() const { return Parsed != nullptr; }
};

/// Parse the scenario text format.  Never throws.
ScenarioParseResult parseScenario(const std::string &Text);

/// A scenario file read from disk and parsed (loadScenarioFile).
struct ScenarioFile : ScenarioParseResult {
  /// False when the file could not be opened.
  bool Opened = false;
  /// The file's contents.
  std::string Text;
  /// Empty on success; otherwise the one-line diagnostic the tools print:
  /// "error: cannot open '<path>'" or "<path>:<line>: error: <message>".
  std::string Diagnostic;
};

/// Read and parse the scenario file at \p Path.  Never throws.
ScenarioFile loadScenarioFile(const std::string &Path);

/// Build one spec part from a scenario-style kind ("register", "counter",
/// "set", "map", "queue", "bank") and key=value options.  \p Name receives
/// the part's object name (the "name" option, defaulting to the kind).
/// Returns nullptr and sets \p Error for an unknown kind or a numeric
/// option that is malformed or outside [1, MaxSpecDomain] (a bank's
/// initial balance may be 0 and may not exceed its cap).
std::shared_ptr<const SequentialSpec>
makeSpecPart(const std::string &Kind,
             const std::map<std::string, std::string> &Opts,
             std::string &Name, std::string &Error);

/// Assembles a case's spec from its parts: one part is the spec, several
/// compose into a CompositeSpec (the Section 7 mixture).  The parser adds
/// a part per `spec` line, so each diagnostic names its line.
class SpecAssembler {
public:
  /// Build one part (makeSpecPart) and add it.  False, with \p Error set,
  /// when the part cannot be built or another part has its name.
  bool add(const std::string &Kind,
           const std::map<std::string, std::string> &Opts,
           std::string &Error);

  /// The assembled spec; null when no part was added.
  std::shared_ptr<const SequentialSpec> spec() const;

private:
  std::vector<std::pair<std::string, std::shared_ptr<const SequentialSpec>>>
      Parts;
};

/// Build a TM engine by scenario name ("optimistic", "checkpoint",
/// "boosting", "pessimistic", "irrevocable", "dependent", "early-release",
/// "htm", "htm-word", "hybrid") over \p M, honouring the engine's
/// key=value options.  Returns nullptr and sets \p Error for an unknown
/// name or a malformed or out-of-range numeric option.  In the library
/// only CaseRun calls it.
std::unique_ptr<TMEngine>
makeEngine(const std::string &Name,
           const std::map<std::string, std::string> &Opts,
           PushPullMachine &M, std::string &Error);

/// A scenario built to run: its mover checker, the machine over that
/// checker holding the threads, and the engine over that machine.  Every
/// engine run in the library is built here; callers differ only in the
/// MachineConfig.  Members are declared in ownership order, so the engine
/// is destroyed before the machine and the machine before the checker.
/// Not copyable or movable, since the machine and engine refer into it.
class CaseRun {
public:
  /// Build \p S (Spec set) with the caller's machine settings \p MC; the
  /// checker limits and the fault injection come from \p S.  On a bad
  /// engine name or option ok() is false and error() says why.
  CaseRun(const Scenario &S, MachineConfig MC);
  CaseRun(CaseRun &&) = delete;

  bool ok() const { return Engine != nullptr; }
  const std::string &error() const { return Error; }

  /// Fill \p C's interning, memo and snapshot counters (since \p Before).
  void fillCaches(CacheStats &C, const memstats::Snapshot &Before) const;

  MoverChecker Movers;
  PushPullMachine Machine;
  std::unique_ptr<TMEngine> Engine;

private:
  std::string Error;
};

/// A `spec` or `engine` line as the parser reads it back: \p Head, then
/// ` key=value` per option (` key` for an empty value).
std::string directiveLine(const std::string &Head,
                          const std::map<std::string, std::string> &Opts);

/// A `thread` line: the transactions, printed and `; `-separated.
std::string threadLine(const std::vector<CodePtr> &Txs);

/// The ten scenario engine names, in canonical order.
const std::vector<std::string> &allEngineNames();

/// The six primitive spec kinds, in canonical order ("composite" mixes
/// are built from several parts).
const std::vector<std::string> &allSpecKinds();

/// Split a thread program `tx {..}; tx {..}; ...` into its transaction
/// list.  Returns empty (and sets Error) if a method occurs outside a
/// transaction (the paper's well-formedness condition).
std::vector<CodePtr> flattenTransactions(const CodePtr &C,
                                         std::string &Error);

/// Result of running a scenario.
struct ScenarioOutcome {
  RunStats Stats;
  /// Verdicts of the requested checks, as "name: verdict" lines.
  std::vector<std::string> CheckResults;
  /// The run's rule trace rendering.
  std::string Trace;
  /// The criteria audit: every applied rule with per-criterion verdicts
  /// (the machine-checked discharge record of the paper's
  /// side-conditions).
  std::string Audit;
  /// Final committed shared log rendering.
  std::string CommittedLog;
  /// Interning/memoization effectiveness of the run (pprun --stats).
  CacheStats Caches;
  /// True iff the run finished and every check passed.
  bool Ok = false;
  /// True iff no check failed but some check reached no verdict within
  /// its bounds (a truncated exploration); Ok is false then.
  bool Unknown = false;
};

/// Build the case (recording the audit), run it, perform the checks.
ScenarioOutcome runScenario(const Scenario &S);

} // namespace pushpull

#endif // PUSHPULL_SIM_SCENARIO_H
