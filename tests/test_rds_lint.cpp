// Token-rule contract tests for rds_analyze (the rules that carry the
// `// rds_lint: allow(rule) -- reason` suppression syntax): every rule fires
// on its tripping fixture and stays quiet on its passing twin, and the
// suppression syntax behaves as documented (docs/static_analysis.md).
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/rds_analyze/analyze.hpp"
#include "tools/rds_analyze/report.hpp"

namespace {

using rds::analyze::Analyzer;
using rds::analyze::analyze_text;
using rds::analyze::Finding;
using rds::analyze::Options;

std::string fixture_path(const std::string& name) {
  return std::string(RDS_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding> analyze_file(const std::string& path,
                                  const Options& opts = {}) {
  Analyzer analyzer;
  EXPECT_TRUE(analyzer.add_file(path)) << path;
  return analyzer.run(opts);
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  const Options& opts = {}) {
  return analyze_file(fixture_path(name), opts);
}

std::set<std::string> rules_of(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

TEST(RdsLint, RuleListIsComplete) {
  const std::vector<std::string>& ids = rds::analyze::rule_ids();
  for (const std::string id :
       {"atomic-memory-order", "result-path-throw", "placement-determinism",
        "header-hygiene", "metrics-naming", "nodiscard-result",
        "stale-suppression"}) {
    EXPECT_EQ(std::count(ids.begin(), ids.end(), id), 1) << id;
  }
}

TEST(RdsLint, AtomicMemoryOrderTrips) {
  const auto findings = lint_fixture("atomic_order_bad.cpp");
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_EQ(rules_of(findings),
            std::set<std::string>{"atomic-memory-order"});
}

TEST(RdsLint, AtomicMemoryOrderPasses) {
  EXPECT_TRUE(lint_fixture("atomic_order_good.cpp").empty());
}

TEST(RdsLint, ResultPathThrowTrips) {
  const auto findings = lint_fixture("result_throw_bad.cpp");
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"result-path-throw"});
}

TEST(RdsLint, ResultPathThrowPasses) {
  EXPECT_TRUE(lint_fixture("result_throw_good.cpp").empty());
}

TEST(RdsLint, PlacementDeterminismTrips) {
  const auto findings = lint_fixture("placement/determinism_bad.cpp");
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_EQ(rules_of(findings),
            std::set<std::string>{"placement-determinism"});
}

TEST(RdsLint, PlacementDeterminismPasses) {
  EXPECT_TRUE(lint_fixture("placement/determinism_good.cpp").empty());
}

TEST(RdsLint, PlacementRuleIsPathScoped) {
  // The same entropy calls outside a placement/ directory are legal.
  EXPECT_FALSE(lint_fixture("placement/determinism_bad.cpp",
                            Options{{"placement-determinism"}})
                   .empty());
  const auto elsewhere =
      analyze_text("src/sim/workload.cpp", "int f() { return rand(); }");
  EXPECT_TRUE(elsewhere.empty());
}

TEST(RdsLint, HeaderHygieneTrips) {
  const auto findings = lint_fixture("header_bad.hpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"header-hygiene"});
  EXPECT_EQ(findings.front().line, 1);  // missing #pragma once reports line 1
}

TEST(RdsLint, HeaderHygienePasses) {
  EXPECT_TRUE(lint_fixture("header_good.hpp").empty());
}

TEST(RdsLint, MetricsNamingTrips) {
  const auto findings = lint_fixture("metrics_bad.cpp");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"metrics-naming"});
}

TEST(RdsLint, MetricsNamingPasses) {
  EXPECT_TRUE(lint_fixture("metrics_good.cpp").empty());
}

TEST(RdsLint, NodiscardResultTrips) {
  const auto findings = lint_fixture("nodiscard_bad.hpp");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"nodiscard-result"});
}

TEST(RdsLint, NodiscardResultPasses) {
  EXPECT_TRUE(lint_fixture("nodiscard_good.hpp").empty());
}

TEST(RdsLint, JournalMetricsNamingTrips) {
  const auto findings = lint_fixture("journal/metrics_bad.cpp");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"metrics-naming"});
}

TEST(RdsLint, JournalMetricsNamingPasses) {
  // Every metric family the journal subsystem actually registers.
  EXPECT_TRUE(lint_fixture("journal/metrics_good.cpp").empty());
}

TEST(RdsLint, JournalHeaderHygieneTrips) {
  const auto findings = lint_fixture("journal/header_bad.hpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"header-hygiene"});
}

TEST(RdsLint, JournalHeaderHygienePasses) {
  EXPECT_TRUE(lint_fixture("journal/header_good.hpp").empty());
}

TEST(RdsLint, JournalSourcesLintClean) {
  // The shipped journal subsystem itself obeys every rule (the recovery
  // path is the one most tempted to throw inside Result-returning code).
  for (const std::string file :
       {"/src/journal/journal.cpp", "/src/journal/record.cpp",
        "/src/journal/recovery.cpp", "/src/journal/journal.hpp",
        "/src/journal/record.hpp", "/src/journal/recovery.hpp",
        "/src/journal/torn_write.hpp"}) {
    const auto out = analyze_file(std::string(RDS_LINT_SOURCE_DIR) + file);
    EXPECT_TRUE(out.empty())
        << file << ":" << out.front().line << " [" << out.front().rule
        << "] " << out.front().message;
  }
}

TEST(RdsLint, SuppressionsWithReasonsAreHonored) {
  EXPECT_TRUE(lint_fixture("suppression_good.cpp").empty());
}

TEST(RdsLint, BadSuppressionsKeepTheFinding) {
  // Bare allow(), wrong rule id, and a comment separated from the finding
  // by another code line must all leave the finding standing -- and the
  // two reasoned-but-useless comments are additionally flagged as stale
  // (the bare one was never a suppression, so it cannot be stale).
  const auto findings = lint_fixture("suppression_bad.cpp");
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_EQ(rules_of(findings),
            (std::set<std::string>{"atomic-memory-order",
                                   "stale-suppression"}));
  std::size_t stale = 0;
  for (const Finding& f : findings) {
    if (f.rule == "stale-suppression") ++stale;
  }
  EXPECT_EQ(stale, 2u);
}

TEST(RdsLint, StaleSuppressionTrips) {
  const auto findings = lint_fixture("suppression_stale_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "stale-suppression");
  EXPECT_EQ(findings.front().line, 11);  // the comment line, not the code
}

TEST(RdsLint, StaleSuppressionPasses) {
  // A used suppression and a rule id this tool does not own are both fine.
  EXPECT_TRUE(lint_fixture("suppression_stale_good.cpp").empty());
}

TEST(RdsLint, StaleSuppressionNeedsAllRules) {
  // With a --rule filter the other rules never ran, so "matches nothing"
  // would be meaningless; the stale pass must stay off.
  const auto findings = lint_fixture("suppression_stale_bad.cpp",
                                     Options{{"atomic-memory-order"}});
  EXPECT_TRUE(findings.empty());
}

TEST(RdsLint, OnlyRulesFilters) {
  const auto findings =
      lint_fixture("header_bad.hpp", Options{{"metrics-naming"}});
  EXPECT_TRUE(findings.empty());
}

TEST(RdsLint, UnreadableFileReportsError) {
  Analyzer analyzer;
  EXPECT_FALSE(analyzer.add_file(fixture_path("does_not_exist.cpp")));
  ASSERT_EQ(analyzer.io_errors().size(), 1u);
  EXPECT_NE(analyzer.io_errors().front().find("does_not_exist.cpp"),
            std::string::npos);
}

TEST(RdsLint, TokenizerSurvivesRawStringsAndOddLiterals) {
  // Raw strings containing quotes/comment markers must not desync the
  // lexer; the atomic op after it must still be seen.
  const std::string text = R"src(
#include <atomic>
const char* kDoc = R"doc(not a "comment" // nor /* one */)doc";
std::atomic<int> v;
int f() { return v.load(); }
)src";
  const auto findings = analyze_text("odd.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "atomic-memory-order");
  EXPECT_EQ(findings.front().line, 5);
}

TEST(RdsLint, AtomicMemoryOrderFiresInsideLambdaBodies) {
  // Token rules descend into lambda bodies: a relaxed-order-less store is
  // no more acceptable inside a closure than outside one.
  const std::string text = R"src(
#include <atomic>
std::atomic<int> v;
void f() {
  auto g = [] { v.store(1); };
  g();
}
)src";
  const auto findings = analyze_text("lambda.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "atomic-memory-order");
  EXPECT_EQ(findings.front().line, 5);
}

TEST(RdsLint, ResultPathThrowStopsAtLambdaBoundary) {
  // A lambda is its own function scope: a throw inside a plain lambda
  // defined in a try_* function belongs to the lambda, not to the
  // enclosing Result path.
  const std::string text = R"src(
int try_fetch() {
  auto fail = [](const char* m) { throw m; };
  fail("boom");
  return 0;
}
)src";
  EXPECT_TRUE(analyze_text("lambda.cpp", text).empty());
}

TEST(RdsLint, ResultPathThrowFiresInNoexceptAndTryLambdas) {
  // The obligation attaches to the lambda itself: declared noexcept, or
  // named like a try_* path through the variable it initializes.
  const std::string text = R"src(
void run() {
  auto cb = [](int v) noexcept { if (v < 0) throw v; };
  auto try_push = [](int v) { if (v < 0) throw v; return v; };
  cb(try_push(1));
}
)src";
  const auto findings = analyze_text("lambda.cpp", text);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"result-path-throw"});
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].line, 4);
}

TEST(RdsLint, ResultPathThrowCoversScopeLambdasAndLinkageBlocks) {
  // Bodies outside the usual function shapes keep the obligation: a
  // noexcept lambda initializing a namespace-scope variable, and a
  // noexcept function inside an extern "C" block.
  const std::string text = R"src(
const auto kCheck = [](int v) noexcept { if (v < 0) throw v; };
extern "C" {
void on_exit() noexcept { throw 1; }
}
)src";
  const auto findings = analyze_text("scopes.cpp", text);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"result-path-throw"});
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 4);
}

TEST(RdsLint, LintTreeIsClean) {
  // A one-file spot check of a shipped source against the committed
  // baseline (the analyze_tree ctest covers the whole tree), so a plain
  // `ctest -R RdsLint` exercises it.
  const std::string root = RDS_LINT_SOURCE_DIR;
  std::ifstream in(root + "/tools/rds_analyze/baseline.txt");
  std::ostringstream baseline;
  baseline << in.rdbuf();
  const auto out = rds::analyze::new_findings(
      analyze_file(root + "/src/storage/virtual_disk.cpp"),
      rds::analyze::parse_baseline(baseline.str()), root);
  EXPECT_TRUE(out.empty()) << out.front().file << ":" << out.front().line
                           << " [" << out.front().rule << "] "
                           << out.front().message;
}

}  // namespace
