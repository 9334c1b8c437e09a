//===- tests/lang_fuzz_test.cpp - Randomized printer/parser round-trips -------===//
//
// Generate random code trees, print them, reparse, and require structural
// equality — plus step()/fin() consistency laws on the generated trees:
//
//   * fin(c) agrees between a tree and its printed-reparsed image;
//   * every step(c) continuation is itself printable and reparseable;
//   * step() of a finite tree terminates with finitely many items whose
//     calls all appear among the tree's reachable methods.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Printer.h"
#include "lang/StepFin.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace pushpull;

namespace {

/// Random code tree of depth <= Depth.
CodePtr randomCode(Rng &R, unsigned Depth) {
  // Bias leaves when the budget runs out.
  unsigned Kind = Depth == 0 ? R.below(2) : R.below(6);
  switch (Kind) {
  case 0:
    return skip();
  case 1: {
    std::vector<Arg> Args;
    for (uint64_t I = R.below(3); I > 0; --I) {
      if (R.chance(1, 3))
        Args.push_back(Arg(std::string("v") + std::to_string(R.below(3))));
      else
        Args.push_back(Arg(static_cast<Value>(R.range(-4, 9))));
    }
    std::optional<std::string> ResultVar;
    if (R.chance(1, 2))
      ResultVar = "r" + std::to_string(R.below(4));
    std::string Obj = R.chance(1, 2) ? "alpha" : "beta";
    std::string Mth = R.chance(1, 2) ? "foo" : "bar";
    return call(Obj, Mth, std::move(Args), std::move(ResultVar));
  }
  case 2:
    return seq(randomCode(R, Depth - 1), randomCode(R, Depth - 1));
  case 3:
    return choice(randomCode(R, Depth - 1), randomCode(R, Depth - 1));
  case 4:
    return loop(randomCode(R, Depth - 1));
  default:
    return tx(randomCode(R, Depth - 1));
  }
}

} // namespace

class LangFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LangFuzzTest, PrintParseRoundTrip) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 200; ++Trial) {
    CodePtr C = randomCode(R, 4);
    std::string Printed = printCode(C);
    ParseResult PR = parseCode(Printed);
    ASSERT_TRUE(PR.ok()) << "failed to reparse: " << Printed << " -- "
                         << PR.Error;
    EXPECT_TRUE(codeEquals(C, PR.Parsed))
        << "round trip changed structure: " << Printed << " vs "
        << printCode(PR.Parsed);
  }
}

TEST_P(LangFuzzTest, FinStableUnderRoundTrip) {
  Rng R(GetParam() * 131 + 7);
  for (int Trial = 0; Trial < 200; ++Trial) {
    CodePtr C = randomCode(R, 4);
    CodePtr C2 = parseOrDie(printCode(C));
    EXPECT_EQ(fin(C), fin(C2));
  }
}

TEST_P(LangFuzzTest, StepItemsWellFormed) {
  Rng R(GetParam() * 977 + 3);
  for (int Trial = 0; Trial < 100; ++Trial) {
    CodePtr C = randomCode(R, 4);
    std::vector<MethodExpr> Reachable = reachableMethods(C);
    for (const StepItem &It : step(C)) {
      // The stepped call must be one of the reachable methods.
      bool Found = false;
      for (const MethodExpr &ME : Reachable)
        Found = Found || (ME.Object == It.Call.Object &&
                          ME.Method == It.Call.Method &&
                          ME.Args == It.Call.Args &&
                          ME.ResultVar == It.Call.ResultVar);
      EXPECT_TRUE(Found) << It.Call.toString() << " not reachable in "
                         << printCode(C);
      // Continuations print and reparse.
      ASSERT_NE(It.Rest, nullptr);
      EXPECT_TRUE(parseCode(printCode(It.Rest)).ok());
    }
  }
}

TEST_P(LangFuzzTest, StepOfFinishableSkipFreePathsConsistent) {
  // If step(c) is empty and fin(c) is false the program is wedged; our
  // generator cannot produce such trees (calls always step), so check
  // the invariant: step(c).empty() implies fin(c).
  Rng R(GetParam() * 31337 + 11);
  for (int Trial = 0; Trial < 200; ++Trial) {
    CodePtr C = randomCode(R, 4);
    if (step(C).empty()) {
      EXPECT_TRUE(fin(C)) << printCode(C);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LangFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));
