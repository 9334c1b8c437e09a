//===- tests/property_test.cpp - Parameterized property sweeps ----------------===//
//
// Property-style tests over generated inputs, parameterized with TEST_P:
//
//   * prefix closure of `allowed` (Parameter 3.1) on randomized logs of
//     every specification;
//   * the definitional law of left-movers (Definition 4.1): whenever the
//     checker answers Yes for (A, B), every sampled reachable log l
//     satisfies l.A.B =< l.B.A — and whenever it answers No, some
//     reachable log refutes it;
//   * do/undo reversibility: a random forward/backward walk of machine
//     rules never wedges, and rewinding everything restores the otx;
//   * engine x seed matrix: every engine on its home workload reaches
//     quiescence and the oracle certifies commit-order (or any-order for
//     the dependent engine) serializability.
//
//===----------------------------------------------------------------------===//

#include "check/Serializability.h"
#include "core/Invariants.h"
#include "core/Machine.h"
#include "core/Mover.h"
#include "core/Precongruence.h"
#include "lang/Parser.h"
#include "sim/Scheduler.h"
#include "sim/Workload.h"
#include "spec/BankSpec.h"
#include "spec/CompositeSpec.h"
#include "spec/CounterSpec.h"
#include "spec/MapSpec.h"
#include "spec/QueueSpec.h"
#include "spec/RegisterSpec.h"
#include "spec/SetSpec.h"
#include "support/Rng.h"
#include "tm/BoostingTM.h"
#include "tm/CheckpointTM.h"
#include "tm/DependentTM.h"
#include "tm/EarlyReleaseTM.h"
#include "tm/HtmTM.h"
#include "tm/IrrevocableTM.h"
#include "tm/OptimisticTM.h"
#include "tm/PessimisticCommitTM.h"

#include <gtest/gtest.h>

#include <memory>

using namespace pushpull;

namespace {

/// Factory for the small instance of each spec family.
std::shared_ptr<SequentialSpec> makeSpec(const std::string &Kind) {
  if (Kind == "register")
    return std::make_shared<RegisterSpec>("mem", 2, 3);
  if (Kind == "counter")
    return std::make_shared<CounterSpec>("c", 2, 4);
  if (Kind == "set")
    return std::make_shared<SetSpec>("set", 3);
  if (Kind == "map")
    return std::make_shared<MapSpec>("map", 3, 2);
  if (Kind == "queue")
    return std::make_shared<QueueSpec>("q", 2, 2);
  if (Kind == "bank")
    return std::make_shared<BankSpec>("bank", 2, 3, 1);
  if (Kind == "composite") {
    // A small Section 7-style product: a boosted set next to a counter.
    auto S = std::make_shared<CompositeSpec>();
    S->add("s", std::make_shared<SetSpec>("s", 2));
    S->add("c", std::make_shared<CounterSpec>("c", 1, 3));
    return S;
  }
  return nullptr;
}

/// The seven spec instances every lemma battery sweeps: the six
/// primitive families plus the disjoint product.
const std::string AllSevenSpecs[] = {"register", "counter", "set",   "map",
                                     "queue",    "bank",    "composite"};

/// Generate a random *allowed* log by walking the spec with probe ops.
std::vector<Operation> randomAllowedLog(const SequentialSpec &S, Rng &R,
                                        size_t MaxLen) {
  std::vector<Operation> Probes = S.probeOps();
  std::vector<Operation> Log;
  StateSet View = S.initial();
  size_t Len = R.below(MaxLen + 1);
  OpId NextId = 1000;
  for (size_t I = 0; I < Len; ++I) {
    // Collect the probes enabled in the current denotation.
    std::vector<Operation> Enabled;
    for (const Operation &P : Probes)
      if (!S.applyOp(View, P).empty())
        Enabled.push_back(P);
    if (Enabled.empty())
      break;
    Operation Op = R.pick(Enabled);
    Op.Id = NextId++;
    View = S.applyOp(View, Op);
    Log.push_back(std::move(Op));
  }
  return Log;
}

} // namespace

// --- Prefix closure ----------------------------------------------------------

class PrefixClosureTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PrefixClosureTest, RandomAllowedLogsArePrefixClosed) {
  auto Spec = makeSpec(GetParam());
  ASSERT_TRUE(Spec);
  Rng R(2024);
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::vector<Operation> Log = randomAllowedLog(*Spec, R, 8);
    ASSERT_TRUE(Spec->allowed(Log));
    for (size_t N = 0; N <= Log.size(); ++N)
      EXPECT_TRUE(Spec->allowed({Log.begin(), Log.begin() + N}))
          << GetParam() << " trial " << Trial << " prefix " << N;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, PrefixClosureTest,
                         ::testing::ValuesIn(AllSevenSpecs),
                         [](const auto &Info) { return Info.param; });

// --- Definition 4.1 law -------------------------------------------------------

class MoverLawTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MoverLawTest, CheckerAgreesWithDefinitionOnSamples) {
  auto Spec = makeSpec(GetParam());
  ASSERT_TRUE(Spec);
  MoverChecker Movers(*Spec);
  PrecongruenceChecker Pre(*Spec);
  Rng R(7);
  std::vector<Operation> Probes = Spec->probeOps();

  int Checked = 0;
  for (int Trial = 0; Trial < 40 && Checked < 25; ++Trial) {
    Operation A = R.pick(Probes);
    Operation B = R.pick(Probes);
    A.Id = 1;
    B.Id = 2;
    Tri V = Movers.leftMover(A, B);
    if (V == Tri::Unknown)
      continue;
    ++Checked;
    // Sample reachable logs l and check l.A.B =< l.B.A matches.
    bool Refuted = false;
    for (int S = 0; S < 10; ++S) {
      std::vector<Operation> L = randomAllowedLog(*Spec, R, 5);
      std::vector<Operation> AB = L, BA = L;
      AB.push_back(A);
      AB.push_back(B);
      BA.push_back(B);
      BA.push_back(A);
      Tri P = Pre.checkLogs(AB, BA);
      if (P == Tri::No)
        Refuted = true;
      if (V == Tri::Yes) {
        EXPECT_NE(P, Tri::No)
            << GetParam() << ": " << A.toString() << " <| " << B.toString()
            << " claimed Yes but refuted after a reachable log";
      }
    }
    (void)Refuted; // A No verdict's witness may lie outside the sample.
  }
  EXPECT_GT(Checked, 0) << "sweep exercised no definite verdicts";
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, MoverLawTest,
                         ::testing::Values("register", "counter", "set",
                                           "map", "queue", "bank"),
                         [](const auto &Info) { return Info.param; });

// --- Do/undo walks ------------------------------------------------------------

class DoUndoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DoUndoTest, RandomForwardBackwardWalkIsSafe) {
  SetSpec Spec("set", 3);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  WorkloadConfig WC;
  WC.Threads = 2;
  WC.TxPerThread = 1;
  WC.OpsPerTx = 3;
  WC.KeyRange = 3;
  WC.Seed = GetParam();
  for (auto &P : genSetWorkload(Spec, WC))
    M.addThread(P);
  for (TxId T = 0; T < 2; ++T)
    ASSERT_TRUE(M.beginTx(T));

  Rng R(GetParam() * 31 + 7);
  for (int Step = 0; Step < 200; ++Step) {
    TxId T = static_cast<TxId>(R.below(2));
    const ThreadState &Th = M.thread(T);
    if (!Th.InTx)
      continue;
    switch (R.below(6)) {
    case 0: { // APP
      auto Choices = M.appChoices(T);
      if (!Choices.empty()) {
        const AppChoice &C = R.pick(Choices);
        M.app(T, C.StepIdx, R.below(C.Completions.size()));
      }
      break;
    }
    case 1: // UNAPP
      M.unapp(T);
      break;
    case 2: { // PUSH a random npshd entry
      auto Idx = Th.L.indicesOf(LocalKind::NotPushed);
      if (!Idx.empty())
        M.push(T, R.pick(Idx));
      break;
    }
    case 3: { // UNPUSH a random pshd entry
      auto Idx = Th.L.indicesOf(LocalKind::Pushed);
      if (!Idx.empty())
        M.unpush(T, R.pick(Idx));
      break;
    }
    case 4: { // PULL a random global entry
      if (!M.global().empty())
        M.pull(T, R.below(M.global().size()));
      break;
    }
    case 5: { // UNPULL a random pld entry
      auto Idx = Th.L.indicesOf(LocalKind::Pulled);
      if (!Idx.empty())
        M.unpull(T, R.pick(Idx));
      break;
    }
    }
  }

  // Rewind both threads fully: every backward rule must cooperate (in
  // dependency order), and the otx must be restored exactly.
  for (int Round = 0; Round < 8; ++Round) {
    for (TxId T = 0; T < 2; ++T) {
      while (true) {
        const ThreadState &Th = M.thread(T);
        if (!Th.InTx || Th.L.empty())
          break;
        size_t Last = Th.L.size() - 1;
        bool Progress = false;
        switch (Th.L[Last].Kind) {
        case LocalKind::Pulled:
          Progress = M.unpull(T, Last).Applied;
          break;
        case LocalKind::NotPushed:
          Progress = M.unapp(T).Applied;
          break;
        case LocalKind::Pushed:
          Progress = M.unpush(T, Last).Applied && M.unapp(T).Applied;
          break;
        }
        if (!Progress)
          break; // Another thread's pull blocks us this round.
      }
    }
  }
  for (TxId T = 0; T < 2; ++T) {
    const ThreadState &Th = M.thread(T);
    ASSERT_TRUE(Th.L.empty()) << "full rewind wedged for t" << T;
    EXPECT_TRUE(codeEquals(Th.Code, Th.OrigCode));
    EXPECT_EQ(Th.Sigma, Th.OrigSigma);
  }
  EXPECT_TRUE(M.global().empty()) << "everything retracted";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoUndoTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Engine x seed matrix -----------------------------------------------------

struct EngineCase {
  std::string Engine;
  uint64_t Seed;
};

class EngineMatrixTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(EngineMatrixTest, QuiescentAndSerializable) {
  auto [Engine, Seed] = GetParam();
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  PushPullMachine M(Spec, Movers);
  WorkloadConfig WC;
  WC.Threads = 3;
  WC.TxPerThread = 2;
  WC.OpsPerTx = 2;
  WC.KeyRange = 2;
  WC.ReadPct = 50;
  WC.Seed = Seed;
  for (auto &P : genRegisterWorkload(Spec, WC))
    M.addThread(P);

  std::unique_ptr<TMEngine> E;
  if (Engine == "optimistic")
    E = std::make_unique<OptimisticTM>(M, OptimisticConfig{Seed});
  else if (Engine == "checkpoint")
    E = std::make_unique<CheckpointTM>(M, CheckpointConfig{Seed, 2});
  else if (Engine == "boosting")
    E = std::make_unique<BoostingTM>(M, BoostingConfig{Seed, 8, true});
  else if (Engine == "pessimistic") {
    PessimisticConfig C;
    C.Seed = Seed;
    E = std::make_unique<PessimisticCommitTM>(M, std::move(C));
  } else if (Engine == "irrevocable")
    E = std::make_unique<IrrevocableTM>(M, IrrevocableConfig{Seed, 0});
  else if (Engine == "dependent") {
    DependentConfig C;
    C.Seed = Seed;
    E = std::make_unique<DependentTM>(M, C);
  } else if (Engine == "early-release")
    E = std::make_unique<EarlyReleaseTM>(M, EarlyReleaseConfig{Seed});
  else if (Engine == "htm") {
    HtmConfig C;
    C.Seed = Seed;
    E = std::make_unique<HtmTM>(M, C);
  }
  ASSERT_TRUE(E);

  Scheduler Sched({SchedulePolicy::RandomUniform, Seed * 7 + 1, 300000});
  RunStats St = Sched.run(*E);
  ASSERT_TRUE(St.Quiescent) << Engine << " seed " << Seed;

  SerializabilityChecker Oracle(Spec);
  // The dependent engine may commit in non-dependency order only when
  // detangled; any-order search covers it.  Everyone else must satisfy
  // the commit-order witness of Theorem 5.17's proof.
  SerializabilityVerdict V = Engine == "dependent"
                                 ? Oracle.checkAnyOrder(M)
                                 : Oracle.checkCommitOrder(M);
  EXPECT_EQ(V.Serializable, Tri::Yes)
      << Engine << " seed " << Seed << ": " << V.Detail;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrixTest,
    ::testing::Combine(::testing::Values("optimistic", "checkpoint",
                                         "boosting", "pessimistic",
                                         "irrevocable", "dependent",
                                         "early-release", "htm"),
                       ::testing::Values(11u, 22u, 33u, 44u)),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_s" + std::to_string(std::get<1>(Info.param));
    });

// --- Lemma 5.1 ---------------------------------------------------------------

class Lemma51Test : public ::testing::TestWithParam<std::string> {};

TEST_P(Lemma51Test, MoverAllowsLaw) {
  // Lemma 5.1: l2 <| op and allowed(l1.l2.op) imply allowed(l1.op).
  // Sample l1, l2 as random allowed logs and op from the probe alphabet.
  auto Spec = makeSpec(GetParam());
  ASSERT_TRUE(Spec);
  MoverChecker Movers(*Spec);
  Rng R(99);
  std::vector<Operation> Probes = Spec->probeOps();
  int Exercised = 0;
  for (int Trial = 0; Trial < 60 && Exercised < 20; ++Trial) {
    std::vector<Operation> L1 = randomAllowedLog(*Spec, R, 4);
    std::vector<Operation> L2 = randomAllowedLog(*Spec, R, 3);
    Operation Op = R.pick(Probes);
    Op.Id = 9999;
    // Check the hypothesis l2 <| op (every element of l2 moves left of op).
    Tri Mover = Tri::Yes;
    for (const Operation &X : L2)
      Mover = triAnd(Mover, Movers.leftMover(X, Op));
    if (Mover != Tri::Yes)
      continue;
    std::vector<Operation> Whole = L1;
    Whole.insert(Whole.end(), L2.begin(), L2.end());
    Whole.push_back(Op);
    if (!Spec->allowed(Whole))
      continue;
    ++Exercised;
    std::vector<Operation> Short = L1;
    Short.push_back(Op);
    EXPECT_TRUE(Spec->allowed(Short))
        << GetParam() << ": Lemma 5.1 violated for op " << Op.toString();
  }
  EXPECT_GT(Exercised, 0) << "sweep exercised no instances";
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, Lemma51Test,
                         ::testing::Values("register", "counter", "set",
                                           "map", "bank"),
                         [](const auto &Info) { return Info.param; });

// --- Lemma 5.4 ---------------------------------------------------------------

class Lemma54Test : public ::testing::TestWithParam<std::string> {};

TEST_P(Lemma54Test, BlockSlideLaw) {
  // Lemma 5.4 (block slide): if every x in l2 is a left-mover of op, the
  // whole block slides — l1.l2.op =< l1.op.l2.  This is the inductive
  // lift of Definition 4.1 the PUSH rule's criterion (ii) relies on when
  // it commutes a pushed suffix past a foreign operation.
  auto Spec = makeSpec(GetParam());
  ASSERT_TRUE(Spec);
  MoverChecker Movers(*Spec);
  PrecongruenceChecker Pre(*Spec);
  Rng R(541);
  std::vector<Operation> Probes = Spec->probeOps();
  int Exercised = 0;
  for (int Trial = 0; Trial < 80 && Exercised < 20; ++Trial) {
    std::vector<Operation> L1 = randomAllowedLog(*Spec, R, 4);
    std::vector<Operation> L2 = randomAllowedLog(*Spec, R, 3);
    if (L2.empty())
      continue; // An empty block slides trivially.
    for (size_t I = 0; I < L2.size(); ++I)
      L2[I].Id = 2000 + I;
    Operation Op = R.pick(Probes);
    Op.Id = 9999;
    // Hypothesis: the entire block l2 moves left of op.
    Tri Mover = Tri::Yes;
    for (const Operation &X : L2)
      Mover = triAnd(Mover, Movers.leftMover(X, Op));
    if (Mover != Tri::Yes)
      continue;
    std::vector<Operation> Slid = L1, Unslid = L1;
    Unslid.insert(Unslid.end(), L2.begin(), L2.end());
    Unslid.push_back(Op);
    Slid.push_back(Op);
    Slid.insert(Slid.end(), L2.begin(), L2.end());
    if (!Spec->allowed(Unslid))
      continue; // Vacuous: the left log denotes nothing.
    ++Exercised;
    EXPECT_NE(Pre.checkLogs(Unslid, Slid), Tri::No)
        << GetParam() << ": Lemma 5.4 violated sliding "
        << Op.toString() << " across a " << L2.size() << "-op block";
  }
  EXPECT_GT(Exercised, 0) << "sweep exercised no instances";
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, Lemma54Test,
                         ::testing::ValuesIn(AllSevenSpecs),
                         [](const auto &Info) { return Info.param; });

// --- Lemma 5.6 ---------------------------------------------------------------

class Lemma56Test : public ::testing::TestWithParam<std::string> {};

TEST_P(Lemma56Test, DenotationSubsetImpliesPrecongruence) {
  // Lemma 5.6: [[l1]] subset-of [[l2]] implies l1 =< l2.  This is exactly
  // the subset shortcut PrecongruenceChecker::check prunes with, so the
  // battery pins the shortcut's soundness from the outside: whenever the
  // denotations nest, the full coinductive search must answer Yes, and
  // contrapositively a No verdict must come with non-nested denotations.
  auto Spec = makeSpec(GetParam());
  ASSERT_TRUE(Spec);
  PrecongruenceChecker Pre(*Spec);
  Rng R(1733);
  int Exercised = 0, Proper = 0;
  for (int Trial = 0; Trial < 60; ++Trial) {
    std::vector<Operation> L1 = randomAllowedLog(*Spec, R, 5);
    // Every third trial compares a log against itself — the reflexive
    // instance the diagonal of the lemma guarantees.
    bool Reflexive = Trial % 3 == 0;
    std::vector<Operation> L2 =
        Reflexive ? L1 : randomAllowedLog(*Spec, R, 5);
    StateSet D1 = Spec->denote(L1);
    StateSet D2 = Spec->denote(L2);
    Tri V = Pre.checkLogs(L1, L2);
    if (D1.subsetOf(D2)) {
      ++Exercised;
      if (!Reflexive)
        ++Proper;
      EXPECT_EQ(V, Tri::Yes)
          << GetParam() << ": Lemma 5.6 violated on trial " << Trial;
    } else if (V == Tri::No) {
      // Soundness of the contrapositive: a refuted pair can never have
      // nested denotations.
      EXPECT_FALSE(D1.subsetOf(D2)) << GetParam();
    }
  }
  EXPECT_GT(Exercised, 0) << "sweep exercised no instances";
  (void)Proper; // Non-reflexive subsets depend on the spec's alphabet.
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, Lemma56Test,
                         ::testing::ValuesIn(AllSevenSpecs),
                         [](const auto &Info) { return Info.param; });

// --- Lemma 5.13 --------------------------------------------------------------

namespace {

/// Two contended hand-written threads per spec family, touching
/// overlapping keys so pulls and pushes interleave.
std::vector<std::string> lemma513Programs(const std::string &Kind) {
  if (Kind == "register")
    return {"tx { mem.write(0, 1); a := mem.read(1) }",
            "tx { mem.write(1, 2); b := mem.read(0) }"};
  if (Kind == "counter")
    return {"tx { c.inc(0); a := c.read(1) }",
            "tx { c.inc(1); c.dec(0) }"};
  if (Kind == "set")
    return {"tx { a := set.add(0); b := set.contains(1) }",
            "tx { c := set.add(1); d := set.remove(0) }"};
  if (Kind == "map")
    return {"tx { map.put(0, 1); a := map.get(1) }",
            "tx { map.put(1, 0); b := map.remove(0) }"};
  if (Kind == "queue")
    return {"tx { a := q.enq(0); b := q.deq() }", "tx { c := q.enq(1) }"};
  if (Kind == "bank")
    return {"tx { bank.deposit(0, 1); a := bank.balance(1) }",
            "tx { b := bank.transfer(0, 1, 1) }"};
  if (Kind == "composite")
    return {"tx { a := s.add(0); c.inc(0) }",
            "tx { b := s.contains(1); c.dec(0) }"};
  return {};
}

} // namespace

class Lemma513Test : public ::testing::TestWithParam<std::string> {};

TEST_P(Lemma513Test, ILocalReorderHoldsAlongRandomRuleWalks) {
  // Lemma 5.13 (I_localReorder): at every reachable configuration, each
  // thread's effL(L) is a precongruence-preserving reordering of the
  // chronological local log.  Walk the seven rules at random — including
  // the backward ones, which are where a reordering bug would creep in —
  // and audit the invariant as we go.
  auto Spec = makeSpec(GetParam());
  ASSERT_TRUE(Spec);
  MoverChecker Movers(*Spec);
  PrecongruenceChecker Pre(*Spec);
  PushPullMachine M(*Spec, Movers);
  for (const std::string &P : lemma513Programs(GetParam()))
    M.addThread({parseOrDie(P)});
  for (TxId T = 0; T < 2; ++T)
    ASSERT_TRUE(M.beginTx(T));

  auto Audit = [&](int Step) {
    for (TxId T = 0; T < 2; ++T) {
      const ThreadState &Th = M.thread(T);
      if (!Th.InTx)
        continue;
      InvariantReport Rep = checkILocalReorder(Th, M.global(), Pre, *Spec);
      EXPECT_TRUE(Rep.Holds) << GetParam() << " step " << Step << " t" << T
                             << ": " << Rep.Which << ": " << Rep.Detail;
    }
  };

  Rng R(4211);
  int Audited = 0;
  for (int Step = 0; Step < 160; ++Step) {
    TxId T = static_cast<TxId>(R.below(2));
    const ThreadState &Th = M.thread(T);
    if (!Th.InTx)
      continue;
    switch (R.below(6)) {
    case 0: { // APP
      auto Choices = M.appChoices(T);
      if (!Choices.empty()) {
        const AppChoice &C = R.pick(Choices);
        M.app(T, C.StepIdx, R.below(C.Completions.size()));
      }
      break;
    }
    case 1: // UNAPP
      M.unapp(T);
      break;
    case 2: { // PUSH
      auto Idx = Th.L.indicesOf(LocalKind::NotPushed);
      if (!Idx.empty())
        M.push(T, R.pick(Idx));
      break;
    }
    case 3: { // UNPUSH
      auto Idx = Th.L.indicesOf(LocalKind::Pushed);
      if (!Idx.empty())
        M.unpush(T, R.pick(Idx));
      break;
    }
    case 4: { // PULL
      if (!M.global().empty())
        M.pull(T, R.below(M.global().size()));
      break;
    }
    case 5: { // UNPULL
      auto Idx = Th.L.indicesOf(LocalKind::Pulled);
      if (!Idx.empty())
        M.unpull(T, R.pick(Idx));
      break;
    }
    }
    if (Step % 8 == 0) {
      Audit(Step);
      ++Audited;
    }
  }
  Audit(160);
  EXPECT_GT(Audited, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, Lemma513Test,
                         ::testing::ValuesIn(AllSevenSpecs),
                         [](const auto &Info) { return Info.param; });

// --- Engine matrix under PCT scheduling ----------------------------------------

class EnginePctTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(EnginePctTest, QuiescentAndSerializableUnderPriorities) {
  auto [Engine, Seed] = GetParam();
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

  std::unique_ptr<TMEngine> E;
  if (Engine == "optimistic")
    E = std::make_unique<OptimisticTM>(M, OptimisticConfig{Seed});
  else if (Engine == "boosting")
    E = std::make_unique<BoostingTM>(M, BoostingConfig{Seed, 8, true});
  else if (Engine == "pessimistic") {
    PessimisticConfig C;
    C.Seed = Seed;
    E = std::make_unique<PessimisticCommitTM>(M, std::move(C));
  } else if (Engine == "htm") {
    HtmConfig C;
    C.Seed = Seed;
    E = std::make_unique<HtmTM>(M, C);
  }
  ASSERT_TRUE(E);

  SchedulerConfig SC;
  SC.Policy = SchedulePolicy::PriorityChangePoints;
  SC.Seed = Seed * 13 + 5;
  SC.MaxSteps = 300000;
  RunStats St = Scheduler(SC).run(*E);
  ASSERT_TRUE(St.Quiescent) << Engine << " seed " << Seed;
  SerializabilityChecker Oracle(Spec);
  EXPECT_EQ(Oracle.checkCommitOrder(M).Serializable, Tri::Yes)
      << Engine << " seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EnginePctTest,
    ::testing::Combine(::testing::Values("optimistic", "boosting",
                                         "pessimistic", "htm"),
                       ::testing::Values(3u, 7u)),
    [](const auto &Info) {
      return std::get<0>(Info.param) + "_s" +
             std::to_string(std::get<1>(Info.param));
    });

// --- Full-validation engine sweep ----------------------------------------------

class FullValidationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FullValidationTest, InvariantsHoldAfterEveryRule) {
  // Full mode re-checks the Section 5.3 invariants after every mutation
  // and aborts the process on violation — so merely *finishing* this run
  // is the assertion.
  std::string Engine = GetParam();
  RegisterSpec Spec("mem", 2, 2);
  MoverChecker Movers(Spec);
  MachineConfig MC;
  MC.Level = ValidationLevel::Full;
  PushPullMachine M(Spec, Movers, MC);
  WorkloadConfig WC;
  WC.Threads = 3;
  WC.TxPerThread = 2;
  WC.OpsPerTx = 2;
  WC.KeyRange = 2;
  WC.Seed = 77;
  for (auto &P : genRegisterWorkload(Spec, WC))
    M.addThread(P);

  std::unique_ptr<TMEngine> E;
  if (Engine == "optimistic")
    E = std::make_unique<OptimisticTM>(M, OptimisticConfig{77});
  else if (Engine == "boosting")
    E = std::make_unique<BoostingTM>(M, BoostingConfig{77, 8, true});
  else if (Engine == "dependent") {
    DependentConfig C;
    C.Seed = 77;
    E = std::make_unique<DependentTM>(M, C);
  } else if (Engine == "htm") {
    HtmConfig C;
    C.Seed = 77;
    E = std::make_unique<HtmTM>(M, C);
  }
  ASSERT_TRUE(E);
  Scheduler Sched({SchedulePolicy::RandomUniform, 78, 300000});
  RunStats St = Sched.run(*E);
  EXPECT_TRUE(St.Quiescent);
}

INSTANTIATE_TEST_SUITE_P(Engines, FullValidationTest,
                         ::testing::Values("optimistic", "boosting",
                                           "dependent", "htm"),
                         [](const auto &Info) { return Info.param; });
