//===- tests/scenario_test.cpp - Scenario format + runner ---------------------===//

#include "sim/Scenario.h"

#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace pushpull;

namespace {

const char *Fig2Scenario = R"(
# Figure 2 in scenario form.
spec map name=map keys=8 vals=4
engine boosting seed=42
schedule random seed=7 maxsteps=100000
thread tx { a := map.put(1, 2) }; tx { b := map.get(1) }
thread tx { c := map.put(1, 3) }
check serializability
check opacity
check invariants
)";

} // namespace

TEST(ScenarioParse, Figure2Parses) {
  ScenarioParseResult R = parseScenario(Fig2Scenario);
  ASSERT_TRUE(R.ok()) << R.Error;
  const Scenario &S = *R.Parsed;
  EXPECT_EQ(S.Engine, "boosting");
  EXPECT_EQ(S.EngineOpts.at("seed"), "42");
  EXPECT_EQ(S.Threads.size(), 2u);
  EXPECT_EQ(S.Threads[0].size(), 2u) << "two transactions on thread 0";
  EXPECT_EQ(S.Checks.size(), 3u);
  EXPECT_EQ(S.ScheduleSeed, 7u);
  EXPECT_EQ(S.MaxSteps, 100000u);
}

TEST(ScenarioParse, CompositeFromMultipleSpecs) {
  ScenarioParseResult R = parseScenario(R"(
spec set name=skiplist keys=4
spec counter name=size counters=1 mod=8
engine hybrid htm=size conflictpct=100
thread tx { s := skiplist.add(1); size.inc(0) }
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_NE(R.Parsed->Spec->name().find("composite"), std::string::npos);
}

TEST(ScenarioParse, Errors) {
  EXPECT_FALSE(parseScenario("").ok());
  EXPECT_FALSE(parseScenario("spec map\n").ok()) << "no threads";
  EXPECT_FALSE(parseScenario("spec nosuch\nthread tx { skip }\n").ok());
  EXPECT_FALSE(
      parseScenario("spec map\nthread map.get(1)\n").ok())
      << "method outside a transaction";
  EXPECT_FALSE(parseScenario("spec map\nfrobnicate\n").ok());
  EXPECT_FALSE(
      parseScenario("spec map\nspec map\nthread tx { skip }\n").ok())
      << "duplicate object name";
  {
    ScenarioParseResult R =
        parseScenario("spec map\nthread tx { oops \n");
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.ErrorLine, 2u);
  }
}

/// Parse \p Text, expecting a diagnostic on \p Line that mentions
/// \p Fragment.
void expectRejected(const std::string &Text, size_t Line,
                    const std::string &Fragment) {
  ScenarioParseResult R = parseScenario(Text);
  ASSERT_FALSE(R.ok()) << "accepted:\n" << Text;
  EXPECT_EQ(R.ErrorLine, Line) << R.Error;
  EXPECT_NE(R.Error.find(Fragment), std::string::npos) << R.Error;
}

const char *OneGet = "thread tx { v := map.get(1) }\n";

TEST(ScenarioParse, MalformedSpecNumberIsRejectedAtItsLine) {
  expectRejected(std::string("spec map keys=abc\n") + OneGet, 1,
                 "option 'keys' needs an integer in [1, 64], got 'abc'");
}

TEST(ScenarioParse, MalformedEngineNumberIsRejectedAtItsLine) {
  expectRejected(std::string("spec map\nengine boosting seed=abc\n") + OneGet,
                 2, "option 'seed'");
  expectRejected(std::string("spec map\nengine dependent abortpct=101\n") +
                     OneGet,
                 2, "option 'abortpct' needs an integer in [0, 100]");
}

TEST(ScenarioParse, TrailingGarbageInScheduleNumberIsRejected) {
  expectRejected(std::string("spec map\nschedule random maxsteps=1x\n") +
                     OneGet,
                 2, "got '1x'");
  expectRejected(std::string("spec map\nschedule pct changepoints=4097\n") +
                     OneGet,
                 2, "option 'changepoints' needs an integer in [0, 4096]");
}

TEST(ScenarioParse, DomainSizeThatWouldWrapIsRejected) {
  expectRejected(std::string("spec map keys=4294967296\n") + OneGet, 1,
                 "got '4294967296'");
}

TEST(ScenarioParse, DomainSizesAreBounded) {
  expectRejected(std::string("spec map keys=1000000\n") + OneGet, 1,
                 "got '1000000'");
  expectRejected(std::string("spec map keys=65\n") + OneGet, 1, "'keys'");
  expectRejected(std::string("spec map keys=0\n") + OneGet, 1, "'keys'");
  expectRejected("spec bank cap=1\nthread tx { bank.deposit(0, 1) }\n", 1,
                 "initial balance 2 exceeds cap 1");
  EXPECT_TRUE(parseScenario(std::string("spec map keys=64 vals=64\n") +
                            OneGet)
                  .ok());
}

TEST(ScenarioParse, MalformedReplayPickIsRejected) {
  expectRejected(std::string("spec map\nschedule replay picks=0,-1\n") +
                     OneGet,
                 2, "bad replay pick '-1'");
  expectRejected(std::string("spec map\nschedule replay picks=4294967296\n") +
                     OneGet,
                 2, "bad replay pick");
}

TEST(ScenarioParse, ProgramNestedPastTheBoundIsRejected) {
  std::string Deep = "spec map\nthread tx { " + std::string(300000, '(') +
                     "v := map.get(1)" + std::string(300000, ')') + " }\n";
  expectRejected(Deep, 2, "levels deep");
}

TEST(EngineOptions, MakeEngineRejectsWhatTheParserRejects) {
  // Callers that build options in code (ppstress, the fuzzer) get the
  // same checks as scenario text.
  ScenarioParseResult R = parseScenario(std::string("spec map\n") + OneGet);
  ASSERT_TRUE(R.ok()) << R.Error;
  MoverChecker Movers(*R.Parsed->Spec);
  PushPullMachine M(*R.Parsed->Spec, Movers);
  std::string Error;
  EXPECT_EQ(makeEngine("checkpoint", {{"every", "0"}}, M, Error), nullptr);
  EXPECT_NE(Error.find("option 'every'"), std::string::npos) << Error;
  Error.clear();
  EXPECT_EQ(makeEngine("boosting", {{"keylocks", "2"}}, M, Error), nullptr);
  EXPECT_NE(Error.find("option 'keylocks'"), std::string::npos) << Error;
  Error.clear();
  EXPECT_NE(makeEngine("boosting", {{"seed", "18446744073709551615"}}, M,
                       Error),
            nullptr)
      << Error;
}

TEST(CaseRun, BuildsTheCaseWithTheCallersMachineSettings) {
  ScenarioParseResult R = parseScenario(std::string(
      "spec map\nengine boosting seed=3\ninject PUSH criterion (ii)\n"
      "thread tx { v := map.get(1) }\nthread tx { map.put(1, 2) }\n"));
  ASSERT_TRUE(R.ok()) << R.Error;
  MachineConfig MC;
  MC.RecordTrace = false;
  CaseRun Run(*R.Parsed, MC);
  ASSERT_TRUE(Run.ok()) << Run.error();
  EXPECT_EQ(Run.Machine.threads().size(), 2u);
  EXPECT_FALSE(Run.Machine.config().RecordTrace);
  EXPECT_EQ(Run.Machine.config().DisabledCriterion, "PUSH criterion (ii)");
  EXPECT_EQ(&Run.Machine.movers(), &Run.Movers);
  RunStats Stats = Scheduler(R.Parsed->schedule()).run(*Run.Engine);
  EXPECT_TRUE(Stats.Quiescent);
  EXPECT_EQ(Stats.Commits, 2u);
}

TEST(CaseRun, ReportsAnUnknownEngine) {
  ScenarioParseResult R =
      parseScenario(std::string("spec map\nengine quantum\n") + OneGet);
  ASSERT_TRUE(R.ok()) << R.Error;
  CaseRun Run(*R.Parsed, MachineConfig{});
  EXPECT_FALSE(Run.ok());
  EXPECT_EQ(Run.error(), "unknown engine 'quantum'");
}

TEST(ScenarioParse, CommentsAndBlankLines) {
  ScenarioParseResult R = parseScenario(R"(
# leading comment

spec register regs=2 vals=2   # trailing comment
thread tx { v := register.read(0) }
)");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(FlattenTransactions, Shapes) {
  std::string Error;
  auto One = flattenTransactions(parseOrDie("tx { o.a() }"), Error);
  EXPECT_EQ(One.size(), 1u);
  auto Three = flattenTransactions(
      parseOrDie("tx { o.a() }; tx { o.b() }; tx { o.c() }"), Error);
  EXPECT_EQ(Three.size(), 3u);
  EXPECT_TRUE(Error.empty());
  auto Bad = flattenTransactions(parseOrDie("o.a(); tx { o.b() }"), Error);
  EXPECT_TRUE(Bad.empty());
  EXPECT_FALSE(Error.empty());
}

TEST(ScenarioRun, Figure2EndToEnd) {
  ScenarioParseResult R = parseScenario(Fig2Scenario);
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_TRUE(O.Ok);
  EXPECT_EQ(O.Stats.Commits, 3u);
  ASSERT_EQ(O.CheckResults.size(), 3u);
  EXPECT_EQ(O.CheckResults[0], "serializability: yes");
  EXPECT_NE(O.CheckResults[1].find("in the opaque fragment"),
            std::string::npos);
  EXPECT_EQ(O.CheckResults[2], "invariants: hold");
  EXPECT_FALSE(O.Trace.empty());
}

TEST(ScenarioRun, EveryEngineRunsTheRegisterScenario) {
  for (const char *Engine :
       {"optimistic", "checkpoint", "boosting", "pessimistic", "irrevocable",
        "dependent", "early-release", "htm", "htm-word"}) {
    std::string Text = std::string(R"(
spec register name=mem regs=2 vals=2
engine )") + Engine + R"(
schedule random seed=5 maxsteps=200000
thread tx { v := mem.read(0); mem.write(1, 1) }
thread tx { mem.write(0, 1) }
check serializability-any
)";
    ScenarioParseResult R = parseScenario(Text);
    ASSERT_TRUE(R.ok()) << Engine << ": " << R.Error;
    ScenarioOutcome O = runScenario(*R.Parsed);
    EXPECT_TRUE(O.Ok) << Engine << " failed: "
                      << (O.CheckResults.empty() ? "no checks"
                                                 : O.CheckResults[0]);
  }
}

TEST(ScenarioRun, HybridScenario) {
  ScenarioParseResult R = parseScenario(R"(
spec set name=skiplist keys=4
spec counter name=size counters=1 mod=8
engine hybrid htm=size conflictpct=100 seed=3
schedule roundrobin seed=1 maxsteps=100000
thread tx { s := skiplist.add(1); size.inc(0) }
thread tx { t := skiplist.add(2); size.inc(0) }
check serializability
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_TRUE(O.Ok) << (O.CheckResults.empty() ? "?" : O.CheckResults[0]);
  EXPECT_EQ(O.Stats.Commits, 2u);
}

TEST(ScenarioRun, UnknownEngineReportsError) {
  ScenarioParseResult R = parseScenario(R"(
spec register regs=1 vals=2
engine quantum
thread tx { v := register.read(0) }
)");
  ASSERT_TRUE(R.ok());
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_FALSE(O.Ok);
}

TEST(ScenarioRun, BankScenario) {
  ScenarioParseResult R = parseScenario(R"(
spec bank accounts=2 cap=4 initial=2
engine boosting seed=9
thread tx { bank.deposit(0, 1) }; tx { r := bank.withdraw(1, 1) }
thread tx { b := bank.balance(0) }
check serializability
check invariants
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_TRUE(O.Ok) << (O.CheckResults.empty() ? "?" : O.CheckResults[0]);
}

TEST(ScenarioRun, TruncatedExploreIsUnknownNotOk) {
  // Thirty-three empty transactions on one thread: the only complete
  // path is 66 rules deep (BEGIN and CMT each), past the explorer's
  // default MaxDepth of 64, so `check explore` cannot reach a verdict.
  std::string Text = "spec register name=mem regs=1 vals=2\nthread ";
  for (int I = 0; I < 33; ++I)
    Text += I ? "; tx { skip }" : "tx { skip }";
  Text += "\ncheck explore\n";
  ScenarioParseResult R = parseScenario(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  ASSERT_EQ(O.CheckResults.size(), 1u);
  EXPECT_NE(O.CheckResults[0].find("0 non-serializable"), std::string::npos)
      << O.CheckResults[0];
  EXPECT_NE(O.CheckResults[0].find("(truncated at MaxDepth=64)"),
            std::string::npos)
      << O.CheckResults[0];
  EXPECT_FALSE(O.Ok) << "a truncated exploration is not a pass";
  EXPECT_TRUE(O.Unknown);
}

TEST(ScenarioRun, FailedCheckBeatsTruncation) {
  // A definite failure elsewhere (here an unknown check) makes the run
  // FAILED, not UNKNOWN.
  std::string Text = "spec register name=mem regs=1 vals=2\nthread ";
  for (int I = 0; I < 33; ++I)
    Text += I ? "; tx { skip }" : "tx { skip }";
  Text += "\ncheck explore\ncheck nosuch\n";
  ScenarioParseResult R = parseScenario(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  ASSERT_EQ(O.CheckResults.size(), 2u);
  EXPECT_NE(O.CheckResults[0].find("(truncated at MaxDepth=64)"),
            std::string::npos)
      << O.CheckResults[0];
  EXPECT_FALSE(O.Ok);
  EXPECT_FALSE(O.Unknown);
}

TEST(ScenarioRun, AuditRecordsCriteria) {
  ScenarioParseResult R = parseScenario(Fig2Scenario);
  ASSERT_TRUE(R.ok()) << R.Error;
  ScenarioOutcome O = runScenario(*R.Parsed);
  ASSERT_TRUE(O.Ok);
  EXPECT_NE(O.Audit.find("PUSH criterion (ii)"), std::string::npos);
  EXPECT_NE(O.Audit.find("CMT criterion (iii)"), std::string::npos);
  EXPECT_EQ(O.Audit.find("rejected"), std::string::npos)
      << "the audit records applied rules only";
}

TEST(ScenarioRun, PctSchedulePolicy) {
  ScenarioParseResult R = parseScenario(R"(
spec register name=mem regs=2 vals=2
engine optimistic seed=2
schedule pct seed=6 maxsteps=200000 changepoints=2
thread tx { v := mem.read(0); mem.write(1, 1) }
thread tx { mem.write(0, 1) }
check serializability
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Parsed->Policy, SchedulePolicy::PriorityChangePoints);
  EXPECT_EQ(R.Parsed->ChangePoints, 2u);
  ScenarioOutcome O = runScenario(*R.Parsed);
  EXPECT_TRUE(O.Ok) << (O.CheckResults.empty() ? "?" : O.CheckResults[0]);
}
