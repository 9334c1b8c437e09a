//===- tests/opacity_test.cpp - Section 6.1 opacity fragments ---------------===//

#include "check/Opacity.h"

#include "TestUtil.h"
#include "lang/Parser.h"
#include "sim/Scheduler.h"
#include "sim/Workload.h"
#include "spec/CounterSpec.h"
#include "spec/RegisterSpec.h"
#include "sim/Scheduler.h"
#include "check/Serializability.h"
#include "tm/DependentTM.h"
#include "tm/OptimisticTM.h"

#include <gtest/gtest.h>

using namespace pushpull;

TEST(Opacity, EmptyTraceIsOpaque) {
  RuleTrace T;
  OpacityReport R = classifyTrace(T);
  EXPECT_TRUE(R.InOpaqueFragment);
  EXPECT_EQ(R.TotalPulls, 0u);
}

TEST(Opacity, CommittedPullsStayOpaque) {
  RuleTrace T;
  TraceEvent E;
  E.Rule = RuleKind::Pull;
  E.PulledUncommitted = false;
  T.record(E);
  OpacityReport R = classifyTrace(T);
  EXPECT_TRUE(R.InOpaqueFragment);
  EXPECT_EQ(R.TotalPulls, 1u);
  EXPECT_EQ(R.UncommittedPulls, 0u);
}

TEST(Opacity, UncommittedPullLeavesFragment) {
  RuleTrace T;
  TraceEvent E;
  E.Rule = RuleKind::Pull;
  E.PulledUncommitted = true;
  T.record(E);
  OpacityReport R = classifyTrace(T);
  EXPECT_FALSE(R.InOpaqueFragment);
  EXPECT_EQ(R.UncommittedPulls, 1u);
}

TEST(Opacity, OptimisticRunsAreOpaqueByConstruction) {
  RegisterSpec Spec("mem", 3, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  WorkloadConfig WC;
  WC.Threads = 3;
  WC.TxPerThread = 3;
  WC.OpsPerTx = 2;
  WC.KeyRange = 3;
  WC.Seed = 21;
  for (auto &P : genRegisterWorkload(Spec, WC))
    M.addThread(P);
  OptimisticTM E(M);
  Scheduler Sched({SchedulePolicy::RandomUniform, 21, 50000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  EXPECT_TRUE(classifyTrace(M.trace()).InOpaqueFragment);
}

TEST(Opacity, DependentRunsLeaveTheFragment) {
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  // A writer and a reader with overlapping lifetimes: the reader pulls
  // the writer's uncommitted write.
  M.addThread({parseOrDie("tx { mem.write(0, 1); mem.write(1, 1) }")});
  M.addThread({parseOrDie("tx { v := mem.read(0); w := mem.read(1) }")});
  DependentConfig DC;
  DC.PullUncommitted = true;
  DependentTM E(M, DC);
  // Round-robin interleaves the two transactions deterministically.
  Scheduler Sched({SchedulePolicy::RoundRobin, 1, 50000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  OpacityReport R = classifyTrace(M.trace());
  EXPECT_FALSE(R.InOpaqueFragment);
  EXPECT_GT(R.UncommittedPulls, 0u);
  EXPECT_GT(E.dependenciesFormed(), 0u);
}

TEST(Opacity, CommutationRelaxationAcceptsCommutingFuture) {
  // Thread still has to run only blind increments; pulling an uncommitted
  // increment is safe by commutation (Section 6.1's relaxation).
  CounterSpec Spec("c", 1, 4);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  TxId T0 = M.addThread({parseOrDie("tx { c.inc(0) }")});
  TxId T1 = M.addThread({parseOrDie("tx { c.inc(0); c.dec(0) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 0).Applied);
  const Operation &Pushed = M.global()[0].Op;
  EXPECT_EQ(pullCommutationSafe(M, T1, Pushed), Tri::Yes);
}

TEST(Opacity, CommutationRelaxationRejectsObservingFuture) {
  CounterSpec Spec("c", 1, 4);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  TxId T0 = M.addThread({parseOrDie("tx { c.inc(0) }")});
  TxId T1 = M.addThread({parseOrDie("tx { v := c.read(0) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 0).Applied);
  const Operation &Pushed = M.global()[0].Op;
  // T1 will read the counter: reads do not commute with the increment.
  EXPECT_EQ(pullCommutationSafe(M, T1, Pushed), Tri::No);
}

TEST(Opacity, CommutationRelaxationConservativeOnUnresolvable) {
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  TxId T0 = M.addThread({parseOrDie("tx { mem.write(1, 1) }")});
  // T1's second op's argument depends on the first op's result: the
  // reachable-operation set cannot be enumerated yet.
  TxId T1 =
      M.addThread({parseOrDie("tx { v := mem.read(0); mem.write(1, v) }")});
  ASSERT_TRUE(M.beginTx(T0));
  ASSERT_TRUE(M.beginTx(T1));
  ASSERT_TRUE(M.app(T0, 0, 0).Applied);
  ASSERT_TRUE(M.push(T0, 0).Applied);
  const Operation &Pushed = M.global()[0].Op;
  EXPECT_EQ(pullCommutationSafe(M, T1, Pushed), Tri::Unknown);
}

TEST(Opacity, IdleThreadIsVacuouslySafe) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  TxId T = M.addThread({parseOrDie("tx { mem.write(0, 1) }")});
  Operation Op;
  Op.Call = {"mem", "write", {0, 1}};
  Op.Result = 1;
  EXPECT_EQ(pullCommutationSafe(M, T, Op), Tri::Yes) << "not in tx yet";
}

TEST(Opacity, CommutationGuardedEngineStaysObservationallyOpaque) {
  // Section 6.1's refinement as an engine mode: with
  // OnlyCommutationSafePulls the dependent engine pulls an uncommitted
  // blind increment (all its remaining methods commute with it) but
  // refuses uncommitted effects its future observes.
  CounterSpec Spec("c", 1, 8);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({parseOrDie("tx { c.inc(0); c.inc(0) }")});
  M.addThread({parseOrDie("tx { c.inc(0); c.dec(0) }")});
  DependentConfig DC;
  DC.PullUncommitted = true;
  DC.OnlyCommutationSafePulls = true;
  DependentTM E(M, DC);
  Scheduler Sched({SchedulePolicy::RoundRobin, 1, 100000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  // Uncommitted pulls happened (we left the syntactic fragment)...
  OpacityReport R = classifyTrace(M.trace());
  EXPECT_GT(R.UncommittedPulls, 0u);
  EXPECT_FALSE(R.InOpaqueFragment);
  // ...but every one of them was commutation-safe at pull time, so the
  // run is observationally opaque; and it is serializable.
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkAnyOrder(M).Serializable, Tri::Yes);
}

TEST(Opacity, CommutationGuardRefusesObservingFutures) {
  // A reader thread (its future observes the counter) never pulls the
  // writer's uncommitted increment under the guard.
  CounterSpec Spec("c", 1, 8);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  M.addThread({parseOrDie("tx { c.inc(0); c.inc(0) }")});
  M.addThread({parseOrDie("tx { v := c.read(0) }")});
  DependentConfig DC;
  DC.PullUncommitted = true;
  DC.OnlyCommutationSafePulls = true;
  DependentTM E(M, DC);
  Scheduler Sched({SchedulePolicy::RoundRobin, 1, 100000});
  RunStats St = Sched.run(E);
  ASSERT_TRUE(St.Quiescent);
  // Thread 1 (the reader) performed no uncommitted pull.
  for (const TraceEvent &Ev : M.trace().events())
    if (Ev.Tid == 1 && Ev.Rule == RuleKind::Pull) {
      EXPECT_FALSE(Ev.PulledUncommitted);
    }
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkAnyOrder(M).Serializable, Tri::Yes);
}
