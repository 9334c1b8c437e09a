//===- tests/engine_test.cpp - The Section 6 algorithm engines --------------===//
//
// Every engine x characteristic workload: runs reach quiescence, the
// independent oracle certifies serializability, and each algorithm's
// rule-usage *signature* holds (optimistic never UNPUSHes, boosting
// pushes eagerly, the irrevocable thread never rolls back, ...).
//
//===----------------------------------------------------------------------===//

#include "check/Serializability.h"
#include "lang/Parser.h"
#include "sim/Scheduler.h"
#include "sim/Workload.h"
#include "spec/MapSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"
#include "tm/BoostingTM.h"
#include "tm/DependentTM.h"
#include "tm/EarlyReleaseTM.h"
#include "tm/HtmTM.h"
#include "tm/IrrevocableTM.h"
#include "tm/OptimisticTM.h"
#include "tm/PessimisticCommitTM.h"

#include <gtest/gtest.h>

using namespace pushpull;

namespace {

/// Run an engine over a machine until quiescence; assert it got there and
/// the run is serializable in commit order.
RunStats runAndCertify(TMEngine &E, const SequentialSpec &Spec,
                       uint64_t Seed) {
  Scheduler Sched({SchedulePolicy::RandomUniform, Seed, 200000});
  RunStats St = Sched.run(E);
  EXPECT_TRUE(St.Quiescent) << "engine failed to finish";
  SerializabilityChecker Oracle(Spec);
  SerializabilityVerdict V = Oracle.checkCommitOrder(E.machine());
  EXPECT_EQ(V.Serializable, Tri::Yes) << V.Detail;
  return St;
}

} // namespace

// --- Optimistic (Section 6.2) ------------------------------------------------

TEST(OptimisticEngine, SerializableUnderContention) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 3;
    WC.TxPerThread = 3;
    WC.OpsPerTx = 2;
    WC.KeyRange = 2;
    WC.ReadPct = 50;
    WC.Seed = Seed;
    for (auto &P : genRegisterWorkload(Spec, WC))
      M.addThread(P);
    OptimisticTM E(M);
    RunStats St = runAndCertify(E, Spec, Seed);
    // Signature: an optimistic abort never needs UNPUSH (Section 6.2).
    EXPECT_EQ(St.ruleCount(RuleKind::UnPush), 0u);
  }
}

TEST(OptimisticEngine, AbortsUnderConflictThenRetries) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  // Maximal conflict: everyone reads and writes the single register.
  for (int T = 0; T < 3; ++T)
    M.addThread({parseOrDie("tx { v := mem.read(0); mem.write(0, 1) }"),
                 parseOrDie("tx { w := mem.read(0); mem.write(0, 0) }")});
  OptimisticTM E(M);
  RunStats St = runAndCertify(E, Spec, 7);
  EXPECT_EQ(St.Commits, 6u);
  EXPECT_GT(St.ruleCount(RuleKind::UnApp), 0u) << "conflicts must abort";
}

// --- Boosting (Section 6.3 / Figure 2) ---------------------------------------

TEST(BoostingEngine, ConflictFreeOnDisjointKeys) {
  SetSpec Spec("set", 8);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  // Threads touch disjoint keys: the abstract locks never contend, so
  // nothing ever blocks or aborts (E1/E5's shape claim).
  M.addThread({parseOrDie("tx { a := set.add(0); b := set.add(1) }")});
  M.addThread({parseOrDie("tx { c := set.add(2); d := set.add(3) }")});
  M.addThread({parseOrDie("tx { e := set.add(4); f := set.remove(5) }")});
  BoostingTM E(M);
  RunStats St = runAndCertify(E, Spec, 11);
  EXPECT_EQ(St.Aborts, 0u);
  EXPECT_EQ(St.BlockedSteps, 0u);
  // Signature: eager publication — every APP has its PUSH.
  EXPECT_EQ(St.ruleCount(RuleKind::App), St.ruleCount(RuleKind::Push));
}

TEST(BoostingEngine, SameKeyContentionBlocksNotAborts) {
  SetSpec Spec("set", 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  for (int T = 0; T < 3; ++T)
    M.addThread({parseOrDie("tx { a := set.add(0); b := set.remove(0) }")});
  BoostingTM E(M);
  RunStats St = runAndCertify(E, Spec, 13);
  EXPECT_EQ(St.Commits, 3u);
  EXPECT_GT(St.BlockedSteps, 0u) << "same-key transactions must wait";
}

TEST(BoostingEngine, DeadlockResolvedByAbort) {
  SetSpec Spec("set", 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  // Classic lock-order inversion: 0 then 1 vs 1 then 0.
  M.addThread({parseOrDie("tx { a := set.add(0); b := set.add(1) }")});
  M.addThread({parseOrDie("tx { c := set.add(1); d := set.add(0) }")});
  BoostingConfig BC;
  BC.DeadlockThreshold = 3;
  BoostingTM E(M, BC);
  // Round-robin forces the interleaving that deadlocks.
  Scheduler Sched({SchedulePolicy::RoundRobin, 1, 50000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  EXPECT_GT(E.deadlockAborts(), 0u);
  // The abort path used inverse operations: UNPUSH appeared.
  EXPECT_GT(St.ruleCount(RuleKind::UnPush), 0u);
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}

TEST(BoostingEngine, MapWorkloadSerializable) {
  for (uint64_t Seed : {3u, 17u, 23u}) {
    MapSpec Spec("ht", 6, 3);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 4;
    WC.TxPerThread = 2;
    WC.OpsPerTx = 3;
    WC.KeyRange = 6;
    WC.Seed = Seed;
    for (auto &P : genMapWorkload(Spec, WC))
      M.addThread(P);
    BoostingTM E(M);
    runAndCertify(E, Spec, Seed);
  }
}

TEST(BoostingEngine, QueueSerializesViaWholeObjectLock) {
  QueueSpec Spec("q", 3, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({parseOrDie("tx { a := q.enq(0); b := q.enq(1) }")});
  M.addThread({parseOrDie("tx { c := q.deq(); d := q.deq() }")});
  BoostingConfig BC;
  BC.KeyGranularLocks = false; // Queue ops on distinct args don't commute.
  BoostingTM E(M, BC);
  runAndCertify(E, Spec, 19);
}

// --- Pessimistic commit (Matveev-Shavit, Section 6.3) ------------------------

TEST(PessimisticEngine, NeverAborts) {
  for (uint64_t Seed : {1u, 9u, 27u}) {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 3;
    WC.TxPerThread = 2;
    WC.OpsPerTx = 2;
    WC.KeyRange = 2;
    WC.ReadPct = 60;
    WC.Seed = Seed;
    for (auto &P : genRegisterWorkload(Spec, WC))
      M.addThread(P);
    PessimisticCommitTM E(M);
    RunStats St = runAndCertify(E, Spec, Seed);
    EXPECT_EQ(St.Aborts, 0u) << "fully pessimistic: nobody ever aborts";
    EXPECT_EQ(St.ruleCount(RuleKind::UnApp), 0u);
  }
}

TEST(PessimisticEngine, WriterWaitsForReaders) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  // A reader with two reads and a writer on the same register.
  M.addThread({parseOrDie("tx { v := mem.read(0); w := mem.read(0) }")});
  M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
  PessimisticCommitTM E(M);
  // Round-robin: reader does one read, writer tries to commit between the
  // reader's reads and must wait.
  Scheduler Sched({SchedulePolicy::RoundRobin, 1, 50000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  EXPECT_EQ(St.Aborts, 0u);
  EXPECT_GT(E.writerWaits() + St.BlockedSteps, 0u);
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
  // The reader saw a consistent snapshot.
  for (const CommittedTx &C : M.committed())
    if (C.Tid == 0) {
      EXPECT_EQ(C.FinalSigma.getOrDie("v"), C.FinalSigma.getOrDie("w"));
    }
}

// --- Mixed / irrevocable (Section 6.4) ----------------------------------------

TEST(IrrevocableEngine, IrrevocableThreadNeverRollsBack) {
  for (uint64_t Seed : {5u, 6u}) {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 3;
    WC.TxPerThread = 2;
    WC.OpsPerTx = 2;
    WC.KeyRange = 2;
    WC.Seed = Seed;
    for (auto &P : genRegisterWorkload(Spec, WC))
      M.addThread(P);
    IrrevocableTM E(M);
    runAndCertify(E, Spec, Seed);
    EXPECT_EQ(E.irrevocableRollbacks(), 0u);
  }
}

TEST(IrrevocableEngine, OptimisticPeersAbortAgainstIrrevocable) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({parseOrDie("tx { mem.write(0, 1); v := mem.read(0) }")});
  M.addThread({parseOrDie("tx { w := mem.read(0); mem.write(0, 0) }")});
  M.addThread({parseOrDie("tx { u := mem.read(0); mem.write(0, 1) }")});
  IrrevocableTM E(M);
  RunStats St = runAndCertify(E, Spec, 31);
  EXPECT_EQ(St.Commits, 3u);
  EXPECT_EQ(E.irrevocableRollbacks(), 0u);
}

// --- Early release (Section 6.5) ----------------------------------------------

TEST(EarlyReleaseEngine, DetectsConflictsEarlyAndReleases) {
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  WorkloadConfig WC;
  WC.Threads = 3;
  WC.TxPerThread = 2;
  WC.OpsPerTx = 2;
  WC.KeyRange = 2;
  WC.Seed = 41;
  for (auto &P : genRegisterWorkload(Spec, WC))
    M.addThread(P);
  EarlyReleaseTM E(M);
  RunStats St = runAndCertify(E, Spec, 41);
  EXPECT_GT(E.releases(), 0u) << "read handles must be released pre-commit";
  (void)St;
}

// --- Dependent transactions (Section 6.5) --------------------------------------

TEST(DependentEngine, DependencyGatesCommit) {
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({parseOrDie("tx { mem.write(0, 1); mem.write(1, 1) }")});
  M.addThread({parseOrDie("tx { v := mem.read(0); w := mem.read(1) }")});
  DependentTM E(M);
  Scheduler Sched({SchedulePolicy::RoundRobin, 1, 50000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  EXPECT_GT(E.dependenciesFormed(), 0u);
  EXPECT_GT(E.gatedCommits() + E.gatedPublications(), 0u)
      << "reader must wait for the writer somewhere";
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkAnyOrder(M).Serializable, Tri::Yes);
}

TEST(DependentEngine, CascadingAbortDetangles) {
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({parseOrDie("tx { mem.write(0, 1); mem.write(1, 1) }")});
  M.addThread({parseOrDie("tx { v := mem.read(0); w := mem.read(1) }")});
  DependentConfig DC;
  DC.AbortChancePct = 60; // Make the writer abort often.
  DC.Seed = 3;
  DependentTM E(M, DC);
  Scheduler Sched({SchedulePolicy::RoundRobin, 2, 100000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  EXPECT_GT(St.Aborts, 0u);
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkAnyOrder(M).Serializable, Tri::Yes);
}

TEST(DependentEngine, RandomizedRunsSerializable) {
  for (uint64_t Seed : {2u, 4u, 8u}) {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 3;
    WC.TxPerThread = 2;
    WC.OpsPerTx = 2;
    WC.KeyRange = 2;
    WC.ReadPct = 70;
    WC.Seed = Seed;
    for (auto &P : genRegisterWorkload(Spec, WC))
      M.addThread(P);
    DependentConfig DC;
    DC.AbortChancePct = 10;
    DC.Seed = Seed;
    DependentTM E(M, DC);
    Scheduler Sched({SchedulePolicy::RandomUniform, Seed, 200000});
    RunStats St = Sched.run(E);
    ASSERT_TRUE(St.Quiescent);
    SerializabilityChecker Oracle(Spec);
    EXPECT_EQ(Oracle.checkAnyOrder(M).Serializable, Tri::Yes);
  }
}

// --- HTM (Section 7 substrate) -------------------------------------------------

TEST(HtmEngine, SemanticModeSerializable) {
  for (uint64_t Seed : {1u, 2u}) {
    RegisterSpec Spec("mem", 2, 2);
    MoverChecker Movers(Spec);
    PushPullMachine M(Spec, Movers);
    WorkloadConfig WC;
    WC.Threads = 3;
    WC.TxPerThread = 2;
    WC.OpsPerTx = 2;
    WC.KeyRange = 2;
    WC.Seed = Seed;
    for (auto &P : genRegisterWorkload(Spec, WC))
      M.addThread(P);
    HtmTM E(M);
    runAndCertify(E, Spec, Seed);
  }
}

TEST(HtmEngine, WordGranularityCountsFalseConflicts) {
  // Blind counter increments commute semantically; word-granular HTM
  // aborts them anyway — the Section 7 motivation.
  CounterSpec Spec("c", 1, 8);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  for (int T = 0; T < 3; ++T)
    M.addThread({parseOrDie("tx { c.inc(0); c.inc(0) }")});
  HtmConfig HC;
  HC.WordGranularity = true;
  HtmTM E(M, HC);
  Scheduler Sched({SchedulePolicy::RoundRobin, 1, 100000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  EXPECT_GT(E.falseConflicts(), 0u)
      << "hardware conservatism must show against commuting increments";
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}

TEST(HtmEngine, SemanticModeLetsIncrementsRace) {
  CounterSpec Spec("c", 1, 8);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  for (int T = 0; T < 3; ++T)
    M.addThread({parseOrDie("tx { c.inc(0); c.inc(0) }")});
  HtmTM E(M); // Semantic conflicts only.
  Scheduler Sched({SchedulePolicy::RoundRobin, 1, 100000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  EXPECT_EQ(St.Aborts, 0u) << "commuting increments never conflict";
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}

TEST(HtmEngine, FallbackLockAfterRepeatedAborts) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  for (int T = 0; T < 4; ++T)
    M.addThread({parseOrDie("tx { v := mem.read(0); mem.write(0, 1) }"),
                 parseOrDie("tx { w := mem.read(0); mem.write(0, 0) }")});
  HtmConfig HC;
  HC.MaxRetries = 1;
  HtmTM E(M, HC);
  RunStats St = Scheduler({SchedulePolicy::RandomUniform, 3, 200000}).run(E);
  ASSERT_TRUE(St.Quiescent);
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes);
}
