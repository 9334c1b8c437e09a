//===- tests/explorer_test.cpp - Exhaustive exploration (Theorem 5.17) -------===//

#include "sim/Explorer.h"

#include "analysis/MoverTable.h"
#include "lang/Parser.h"
#include "spec/CounterSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

using namespace pushpull;

TEST(Explorer, SingleThreadAllPathsSerializable) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  Explorer E(Spec, Movers);
  ExplorerReport R = E.explore(
      {{parseOrDie("tx { mem.write(0, 1) + (v := mem.read(0)) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_GT(R.TerminalConfigs, 0u);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
}

TEST(Explorer, TwoConflictingRegisterTxsAllInterleavingsSerializable) {
  // Threads=1: the RejectedAttempts assertion below counts *work
  // performed*, which is deterministic only for the sequential engine
  // (parallel workers may race to a configuration and re-expand it).
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  Explorer E(Spec, Movers);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { v := mem.read(0); mem.write(0, 1) }")},
                 {parseOrDie("tx { mem.write(0, 0) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_GT(R.TerminalConfigs, 0u);
  EXPECT_GT(R.RejectedAttempts, 0u)
      << "conflicting pushes must have been rejected somewhere";
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
}

TEST(Explorer, SetTransactionsWithInvariantChecking) {
  // Runs the parallel explorer by default: everything asserted here
  // (truncation, verdicts, invariant count) is one of the deterministic
  // aggregates, so worker count must not matter.
  SetSpec Spec("set", 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.CheckInvariants = true;
  EC.Threads = 4;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { a := set.add(0) }")},
                 {parseOrDie("tx { b := set.add(0); c := set.remove(1) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
  EXPECT_EQ(R.InvariantViolations, 0u);
}

TEST(Explorer, BackwardRulesStaySerializable) {
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.ExploreBackwardRules = true;
  EC.MaxConfigs = 500000;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { mem.write(0, 1) }")},
                 {parseOrDie("tx { v := mem.read(0) }")}});
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
  EXPECT_GT(R.ConfigsVisited, 10u);
}

TEST(Explorer, UncommittedPullsExploredAndStillSerializable) {
  // The non-opaque region: pulls of uncommitted effects are explored too;
  // CMT criterion (iii) gates commits so every terminal stays
  // serializable.
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.ExploreUncommittedPulls = true;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R = E.explore({{parseOrDie("tx { c.inc(0) }")},
                                {parseOrDie("tx { c.inc(0) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
}

TEST(Explorer, OpaqueFragmentSmallerThanFullModel) {
  CounterSpec Spec("c", 1, 3);
  MoverChecker Movers(Spec);
  ExplorerConfig Opaque;
  Opaque.ExploreUncommittedPulls = false;
  ExplorerConfig Full;
  Full.ExploreUncommittedPulls = true;
  Explorer EO(Spec, Movers, Opaque);
  Explorer EF(Spec, Movers, Full);
  std::vector<std::vector<CodePtr>> Programs = {
      {parseOrDie("tx { c.inc(0) }")}, {parseOrDie("tx { c.inc(0) }")}};
  ExplorerReport RO = EO.explore(Programs);
  ExplorerReport RF = EF.explore(Programs);
  EXPECT_LT(RO.ConfigsVisited, RF.ConfigsVisited)
      << "forbidding uncommitted pulls must shrink the state space";
  EXPECT_TRUE(RO.clean());
  EXPECT_TRUE(RF.clean());
}

TEST(Explorer, QueueNonCommutativityForcesSerialOrder) {
  // Threads=1: asserts RejectedAttempts, which is only deterministic for
  // the sequential engine.
  QueueSpec Spec("q", 2, 2);
  MoverChecker Movers(Spec);
  Explorer E(Spec, Movers);
  ExplorerReport R = E.explore({{parseOrDie("tx { a := q.enq(0) }")},
                                {parseOrDie("tx { b := q.enq(1) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
  EXPECT_GT(R.RejectedAttempts, 0u)
      << "pushing both uncommitted enqueues must be rejected";
}

TEST(Explorer, TruncationReported) {
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.MaxConfigs = 5;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { mem.write(0, 1); mem.write(1, 1) }")},
                 {parseOrDie("tx { v := mem.read(0) }")}});
  EXPECT_TRUE(R.Truncated);
}

TEST(Explorer, TruncationNamesMaxConfigs) {
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.MaxConfigs = 5;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R =
      E.explore({{parseOrDie("tx { mem.write(0, 1); mem.write(1, 1) }")},
                 {parseOrDie("tx { v := mem.read(0) }")}});
  EXPECT_TRUE(R.Truncated);
  EXPECT_TRUE(R.HitMaxConfigs);
  EXPECT_FALSE(R.HitMaxDepth);
  EXPECT_EQ(truncationBounds(R, EC), "MaxConfigs=5");
}

TEST(Explorer, TruncationNamesMaxDepth) {
  // One thread, one transaction of two writes: BEGIN, two APPs, two
  // PUSHes and CMT make every complete path 6 rules deep.
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  std::vector<std::vector<CodePtr>> Programs = {
      {parseOrDie("tx { mem.write(0, 1); mem.write(1, 1) }")}};
  ExplorerConfig EC;
  EC.MaxDepth = 3;
  ExplorerReport R = Explorer(Spec, Movers, EC).explore(Programs);
  EXPECT_TRUE(R.Truncated);
  EXPECT_TRUE(R.HitMaxDepth);
  EXPECT_FALSE(R.HitMaxConfigs);
  EXPECT_EQ(R.TerminalConfigs, 0u);
  EXPECT_EQ(truncationBounds(R, EC), "MaxDepth=3");

  // A depth bound past the visited map's 32-bit depth field is the field's
  // limit, which no path reaches.
  EC.MaxDepth = SIZE_MAX;
  ExplorerReport Unbounded = Explorer(Spec, Movers, EC).explore(Programs);
  EXPECT_FALSE(Unbounded.Truncated);
  EXPECT_GT(Unbounded.TerminalConfigs, 0u);
  EXPECT_TRUE(Unbounded.clean()) << Unbounded.FirstFailure;
}

TEST(Explorer, VisitedMapStaysCompact) {
  // Collapse compression keeps a visited configuration to a tuple of
  // interned key-section ids plus depth and sleep-set id (sim/Visited.h):
  // well under 64 bytes each, index slack and interned sections included.
  // A string-keyed map spent about 650.
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  Explorer E(Spec, Movers);
  ExplorerReport R = E.explore(
      {{parseOrDie("tx { v := mem.read(0); w := mem.read(1) }")},
       {parseOrDie("tx { mem.write(0, 1); mem.write(1, 1) }")},
       {parseOrDie("tx { u := mem.read(1) }")}});
  ASSERT_FALSE(R.Truncated);
  ASSERT_GE(R.ConfigsVisited, 20000u);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
  EXPECT_GT(R.VisitedBytes, 0u);
  EXPECT_LE(R.VisitedBytes, 64 * R.ConfigsVisited)
      << R.VisitedBytes / R.ConfigsVisited << " bytes per configuration";
}

TEST(Explorer, ThreeThreadsStillClean) {
  // The widest scope in this file runs on the worker pool by default —
  // only deterministic totals are asserted.
  RegisterSpec Spec("mem", 1, 2);
  MoverChecker Movers(Spec);
  ExplorerConfig EC;
  EC.MaxConfigs = 500000;
  EC.Threads = 4;
  Explorer E(Spec, Movers, EC);
  ExplorerReport R = E.explore({{parseOrDie("tx { mem.write(0, 1) }")},
                                {parseOrDie("tx { v := mem.read(0) }")},
                                {parseOrDie("tx { mem.write(0, 0) }")}});
  EXPECT_FALSE(R.Truncated);
  EXPECT_TRUE(R.clean()) << R.FirstFailure;
}

TEST(Explorer, GrayCriteriaAblationConfirmsNotStrictlyNecessary) {
  // The paper marks UNPUSH criterion (i) and PULL criterion (iii) gray —
  // "not strictly necessary".  The executable ablation confirms it:
  // exploring with them DISABLED still yields zero non-serializable
  // terminals, because PUSH criterion (iii) independently refuses to
  // publish any operation the now-inconsistent local view produced (the
  // transaction wedges instead of committing an anomaly).  What the gray
  // criteria buy is *hygiene*: with them enabled the doomed pull is
  // rejected up front, so the extra wedged region is never entered —
  // visible here as a strictly smaller explored state space.
  auto Explore = [](bool EnforceGray) {
    RegisterSpec Spec("mem", 1, 2);
    MoverChecker Movers(Spec);
    ExplorerConfig EC;
    EC.Machine.EnforceGrayCriteria = EnforceGray;
    Explorer E(Spec, Movers, EC);
    return E.explore(
        {{parseOrDie("tx { v := mem.read(0); w := mem.read(0) }")},
         {parseOrDie("tx { mem.write(0, 1) }")}});
  };
  ExplorerReport WithGray = Explore(true);
  EXPECT_FALSE(WithGray.Truncated);
  EXPECT_TRUE(WithGray.clean()) << WithGray.FirstFailure;

  ExplorerReport WithoutGray = Explore(false);
  EXPECT_FALSE(WithoutGray.Truncated);
  EXPECT_TRUE(WithoutGray.clean())
      << "safety must not depend on the gray criteria: "
      << WithoutGray.FirstFailure;
  EXPECT_GT(WithoutGray.ConfigsVisited, WithGray.ConfigsVisited)
      << "without the gray criteria the explorer enters the wedged region";
}

TEST(Explorer, ParallelSearchMatchesSequentialTotals) {
  // Threads > 1 shards the search but keeps the visited/accounting
  // protocol, so on non-truncated explorations the deterministic
  // aggregates (configs, terminals, verdicts) must equal the Threads=1
  // run exactly — across specs, backward rules, and invariant checking.
  struct Case {
    const char *Name;
    std::function<ExplorerReport(unsigned)> Run;
  };
  auto MakeCase = [](auto MakeSpec, std::vector<std::string> Programs,
                     bool Backward = false, bool Invariants = false) {
    return [=](unsigned Threads) {
      auto Spec = MakeSpec();
      MoverChecker Movers(*Spec);
      ExplorerConfig EC;
      EC.Threads = Threads;
      EC.ExploreBackwardRules = Backward;
      EC.CheckInvariants = Invariants;
      EC.MaxConfigs = 500000;
      Explorer E(*Spec, Movers, EC);
      std::vector<std::vector<CodePtr>> Ps;
      for (const std::string &P : Programs)
        Ps.push_back({parseOrDie(P)});
      return E.explore(Ps);
    };
  };

  std::vector<Case> Cases = {
      {"register r/w vs w",
       MakeCase([] { return std::make_unique<RegisterSpec>("mem", 1, 2); },
                {"tx { v := mem.read(0); mem.write(0, 1) }",
                 "tx { mem.write(0, 0) }"})},
      // (Backward-rule explorations are inherently depth-truncated — the
      // do/undo cycles never bottom out — so they are excluded here: the
      // totals guarantee is for non-truncated searches.)
      {"register three threads",
       MakeCase([] { return std::make_unique<RegisterSpec>("mem", 1, 2); },
                {"tx { mem.write(0, 1) }", "tx { v := mem.read(0) }",
                 "tx { mem.write(0, 0) }"})},
      {"set adds + invariants",
       MakeCase([] { return std::make_unique<SetSpec>("set", 2); },
                {"tx { a := set.add(0) }",
                 "tx { b := set.add(0); c := set.remove(1) }"},
                /*Backward=*/false, /*Invariants=*/true)},
      {"queue enq vs enq",
       MakeCase([] { return std::make_unique<QueueSpec>("q", 2, 2); },
                {"tx { a := q.enq(0) }", "tx { b := q.enq(1) }"})},
  };

  for (Case &C : Cases) {
    ExplorerReport Seq = C.Run(1);
    ExplorerReport Par = C.Run(4);
    ASSERT_FALSE(Seq.Truncated) << C.Name;
    ASSERT_FALSE(Par.Truncated) << C.Name;
    EXPECT_EQ(Par.ConfigsVisited, Seq.ConfigsVisited) << C.Name;
    EXPECT_EQ(Par.TerminalConfigs, Seq.TerminalConfigs) << C.Name;
    EXPECT_EQ(Par.NonSerializable, Seq.NonSerializable) << C.Name;
    EXPECT_EQ(Par.InvariantViolations, Seq.InvariantViolations) << C.Name;
    EXPECT_TRUE(Par.clean()) << C.Name << ": " << Par.FirstFailure;
  }
}

TEST(Explorer, LoneWorkerUsesCallersCheckerAndPoolNeverTouchesIt) {
  // Threads=1 runs the DFS on the calling thread with the caller's
  // MoverChecker, so its memo counters record the exploration's mover
  // traffic (pprun --stats reports them).  A pool gives every worker a
  // private checker: the caller's counters must not move.
  QueueSpec Spec("q", 2, 2);
  MoverChecker Movers(Spec);
  std::vector<std::vector<CodePtr>> Programs = {
      {parseOrDie("tx { a := q.enq(0) }")},
      {parseOrDie("tx { b := q.enq(1) }")}};
  auto Explore = [&](unsigned Threads) {
    ExplorerConfig EC;
    EC.Threads = Threads;
    EC.CheckInvariants = true;
    return Explorer(Spec, Movers, EC).explore(Programs);
  };

  ExplorerReport Seq = Explore(1);
  uint64_t Hits = Movers.memoHits(), Misses = Movers.memoMisses();
  EXPECT_GT(Hits + Misses, 0u) << "the lone worker used another checker";

  ExplorerReport Par = Explore(4);
  EXPECT_EQ(Movers.memoHits(), Hits) << "the pool touched the caller's checker";
  EXPECT_EQ(Movers.memoMisses(), Misses);
  EXPECT_EQ(Par.ConfigsVisited, Seq.ConfigsVisited);
  EXPECT_EQ(Par.TerminalConfigs, Seq.TerminalConfigs);
  EXPECT_TRUE(Par.clean()) << Par.FirstFailure;
}

TEST(Explorer, ParallelCommutSymmetryMatchesSequential) {
  // Four workers share the visited map's intern tables (locked shards)
  // while the commutativity quotient and symmetry both rewrite keys and
  // sleep sets: the deterministic totals must equal the lone worker's.
  CounterSpec Spec("c", 2, 3);
  CommutativityDB DB(Spec);
  std::vector<std::vector<CodePtr>> Programs = {
      {parseOrDie("tx { c.inc(0); c.inc(1) }")},
      {parseOrDie("tx { c.inc(0); c.inc(1) }")}};
  ASSERT_TRUE(DB.coversProgram(Programs));
  auto Explore = [&](unsigned Threads) {
    MoverChecker Movers(Spec);
    ExplorerConfig EC;
    EC.Threads = Threads;
    EC.Reduce = Reduction::PersistentSymmetry;
    EC.CommutDB = &DB;
    return Explorer(Spec, Movers, EC).explore(Programs);
  };
  ExplorerReport Seq = Explore(1);
  ExplorerReport Par = Explore(4);
  ASSERT_FALSE(Seq.Truncated);
  ASSERT_FALSE(Par.Truncated);
  EXPECT_GT(Seq.SymmetryHits, 0u);
  EXPECT_EQ(Par.ConfigsVisited, Seq.ConfigsVisited);
  EXPECT_EQ(Par.TerminalConfigs, Seq.TerminalConfigs);
  EXPECT_EQ(Par.NonSerializable, 0u);
  EXPECT_TRUE(Par.clean()) << Par.FirstFailure;
}
