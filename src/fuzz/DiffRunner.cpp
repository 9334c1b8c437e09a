//===- fuzz/DiffRunner.cpp - One differential run ---------------------------===//

#include "fuzz/DiffRunner.h"

#include "check/Serializability.h"
#include "core/Invariants.h"
#include "sim/Scheduler.h"

using namespace pushpull;

static uint32_t bit(RuleKind K) { return 1u << static_cast<int>(K); }

uint32_t pushpull::expectedRuleMask(const std::string &Engine) {
  const uint32_t App = bit(RuleKind::App), UnApp = bit(RuleKind::UnApp),
                 Push = bit(RuleKind::Push), UnPush = bit(RuleKind::UnPush),
                 Pull = bit(RuleKind::Pull), UnPull = bit(RuleKind::UnPull),
                 Cmt = bit(RuleKind::Commit);
  const uint32_t Base = App | Push | Pull | Cmt;
  const uint32_t All = Base | UnApp | UnPush | UnPull;
  // Per-engine strategy signatures, confirmed empirically by fixed-seed
  // campaigns (every listed rule fires for every engine under the smoke
  // campaign's directed seed corpus; see fuzz_smoke_test).  No single
  // engine fires all seven rules, but the union over the ten engines
  // covers the whole rule set:
  //
  //  * optimistic/checkpoint/irrevocable push only *validated* effects in
  //    their commit phase and abort by rewinding unpushed+pulled entries,
  //    so UNPUSH is unreachable for them;
  //  * pessimistic never aborts (writers wait instead), so UNAPP/UNPULL
  //    never fire — but its all-or-nothing commit phase rolls back
  //    partially-pushed writes with UNPUSH when a later push is rejected;
  //  * every eager-publication engine (boosting, dependent,
  //    early-release, htm, htm-word, hybrid) aborts by inverse operations
  //    and so exercises all seven.
  if (Engine == "optimistic" || Engine == "checkpoint" ||
      Engine == "irrevocable")
    return Base | UnApp | UnPull;
  if (Engine == "pessimistic")
    return Base | UnPush;
  if (Engine == "boosting" || Engine == "dependent" ||
      Engine == "early-release" || Engine == "htm" || Engine == "htm-word" ||
      Engine == "hybrid")
    return All;
  return 0;
}

bool pushpull::engineExpectedOpaque(const std::string &Engine) {
  // The dependent-transaction engine pulls uncommitted effects by design
  // (that is its whole point); everything else only ever pulls committed
  // entries and must therefore stay inside the Section 6.1 fragment.
  return Engine != "dependent";
}

Scenario pushpull::buildCase(const FuzzCase &Case, std::string &Error) {
  SpecAssembler Parts;
  for (const SpecDesc &D : Case.Specs)
    if (!Parts.add(D.Kind, D.Opts, Error))
      return Scenario();
  Scenario S = Case;
  S.Spec = Parts.spec();
  if (!S.Spec)
    Error = "fuzz case declares no spec";
  return S;
}

DiffReport DiffRunner::run(const FuzzCase &Case) const {
  std::string Error;
  Scenario S = buildCase(Case, Error);
  if (!S.Spec) {
    DiffReport R;
    R.BuildError = Error;
    return R;
  }
  return run(std::move(S));
}

DiffReport DiffRunner::run(Scenario Case) const {
  DiffReport Report;
  if (!Case.Spec) {
    Report.BuildError = "case has no spec";
    return Report;
  }
  if (Case.Threads.empty()) {
    Report.BuildError = "case has no threads";
    return Report;
  }
  Case.Movers = Config.Movers;
  Case.Pre = Config.Pre;
  if (!Config.DisabledCriterion.empty())
    Case.DisabledCriterion = Config.DisabledCriterion;

  memstats::Snapshot MemBefore = memstats::read();

  // (3) Invariants after every rule firing, via the observation hook.  The
  // hook receives the machine that fired — engines probe on *copies* of
  // the machine (optimistic validation dry-runs), and those firings are
  // checked against the copy's own configuration.
  MachineConfig MC;
  if (Config.CheckInvariantsEachRule) {
    MC.OnRuleApplied = [&Report, this](const PushPullMachine &FM, RuleKind K,
                                       TxId T) {
      if (Report.InvariantViolated ||
          Report.RulesInvariantChecked >= Config.MaxInvariantCheckedRules)
        return;
      ++Report.RulesInvariantChecked;
      for (const ThreadState &Th : FM.threads()) {
        InvariantReport R = checkAllInvariants(Th, FM.global(), FM.movers());
        if (!R.Holds) {
          Report.InvariantViolated = true;
          Report.InvariantDetail = "after " + toString(K) + " by thread " +
                                   std::to_string(T) + ": " + R.Which +
                                   " failed for thread " +
                                   std::to_string(Th.Tid) +
                                   (R.Detail.empty() ? "" : " — " + R.Detail);
          return;
        }
      }
    };
  }

  CaseRun Run(Case, std::move(MC));
  if (!Run.ok()) {
    Report.BuildError = Run.error();
    return Report;
  }
  Report.Built = true;
  const PushPullMachine &M = Run.Machine;
  Report.Stats = Scheduler(Case.schedule()).run(*Run.Engine);

  // (1) Atomic-oracle replay in commit order — the witness Theorem 5.17's
  // proof constructs, so anything but Yes is suspect (No: discrepancy;
  // Unknown: oracle budget exhausted, inconclusive).
  SerializabilityChecker Oracle(*Case.Spec, Config.Atomic, Config.Pre);
  SerializabilityVerdict V = Oracle.checkCommitOrder(M);
  Report.Serializable = V.Serializable;
  Report.SerializabilityDetail = V.Detail;
  Report.OutcomesTried = V.OutcomesTried;
  if (Report.Serializable == Tri::No && Config.EscalateToAnyOrder) {
    // Diagnostic context: is some non-commit order a witness (commit-order
    // bookkeeping bug) or is the run flatly non-serializable?
    Report.SerializableAnyOrder = Oracle.checkAnyOrder(M).Serializable;
  }

  // (2) Fragment classification against the engine's declared strategy.
  Report.Opacity = classifyTrace(M.trace());
  Report.OpacityViolated =
      engineExpectedOpaque(Case.Engine) && !Report.Opacity.InOpaqueFragment;

  Run.fillCaches(Report.Caches, MemBefore);
  return Report;
}

std::string DiffReport::toString() const {
  if (!Built)
    return "build error: " + BuildError + "\n";
  std::string Out;
  Out += "  stats: " + Stats.toString() + "\n";
  Out += "  serializable (commit order): " + pushpull::toString(Serializable);
  if (!SerializabilityDetail.empty())
    Out += " — " + SerializabilityDetail;
  Out += " [" + std::to_string(OutcomesTried) + " outcomes]\n";
  if (Serializable == Tri::No)
    Out += "  serializable (any order): " +
           pushpull::toString(SerializableAnyOrder) + "\n";
  Out += "  opacity: " +
         std::string(Opacity.InOpaqueFragment ? "in" : "OUTSIDE") +
         " the opaque fragment (" + std::to_string(Opacity.UncommittedPulls) +
         "/" + std::to_string(Opacity.TotalPulls) + " uncommitted pulls)" +
         (OpacityViolated ? " — UNEXPECTED for this engine" : "") + "\n";
  Out += "  invariants: ";
  if (InvariantViolated)
    Out += "VIOLATED " + InvariantDetail + "\n";
  else
    Out += "held over " + std::to_string(RulesInvariantChecked) +
           " checked rule firings\n";
  Out += Caches.toString();
  return Out;
}
