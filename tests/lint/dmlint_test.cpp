#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/token.h"

namespace dm::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(DM_SOURCE_ROOT) + "/tests/lint/fixtures/" + name;
}

LintReport lint_fixture(const std::string& name) {
  return run_lint({SourceFile{name, read_file(fixture_path(name))}});
}

LintReport lint_text(const std::string& text) {
  return run_lint({SourceFile{"inline.cc", text}});
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&rule](const Finding& f) { return f.rule == rule; }));
}

// --- tokenizer ------------------------------------------------------------

TEST(LintTokenizer, StringsNeverLeakIdentifiers) {
  const auto ts = tokenize("const char* s = \"std::rand() // not code\";");
  for (const Token& t : ts.tokens) {
    EXPECT_NE(t.text, "rand");
  }
  EXPECT_TRUE(ts.comments.empty());
}

TEST(LintTokenizer, CommentsCarryPlacement) {
  const auto ts = tokenize("int a;  // trailing\n// own line\nint b;\n");
  ASSERT_EQ(ts.comments.size(), 2u);
  EXPECT_FALSE(ts.comments[0].own_line);
  EXPECT_EQ(ts.comments[0].line, 1);
  EXPECT_TRUE(ts.comments[1].own_line);
  EXPECT_EQ(ts.comments[1].line, 2);
}

TEST(LintTokenizer, RawStringsAndBlockCommentsTrackLines) {
  const auto ts = tokenize("auto s = R\"(line1\nline2)\";\n/* block\nstill */\nint x;\n");
  ASSERT_FALSE(ts.tokens.empty());
  EXPECT_EQ(ts.tokens.back().text, ";");
  EXPECT_EQ(ts.tokens.back().line, 5);
  ASSERT_EQ(ts.comments.size(), 1u);
  EXPECT_EQ(ts.comments[0].line, 3);
}

// --- rule fixtures: positive / suppressed / clean -------------------------

TEST(LintRules, NondetPositive) {
  const auto report = lint_fixture("nondet_positive.cc");
  EXPECT_EQ(count_rule(report.findings, kRuleNondetCall), 1u);
  EXPECT_EQ(report.findings.size(), 1u);
}

TEST(LintRules, NondetSuppressed) {
  const auto report = lint_fixture("nondet_suppressed.cc");
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(count_rule(report.suppressed, kRuleNondetCall), 1u);
}

TEST(LintRules, NondetClean) {
  const auto report = lint_fixture("nondet_clean.cc");
  EXPECT_TRUE(report.findings.empty());
  EXPECT_TRUE(report.suppressed.empty());
}

TEST(LintRules, PointerKeyPositive) {
  const auto report = lint_fixture("pointer_key_positive.cc");
  EXPECT_EQ(count_rule(report.findings, kRulePointerKey), 1u);
  EXPECT_EQ(report.findings.size(), 1u);
}

TEST(LintRules, PointerKeyClean) {
  const auto report = lint_fixture("pointer_key_clean.cc");
  EXPECT_TRUE(report.findings.empty());
}

TEST(LintRules, UnorderedIterPositive) {
  const auto report = lint_fixture("unordered_iter_positive.cc");
  // Range-for plus the .begin() and .end() calls in std::accumulate.
  EXPECT_EQ(count_rule(report.findings, kRuleUnorderedIter), 3u);
}

TEST(LintRules, UnorderedIterSuppressed) {
  const auto report = lint_fixture("unordered_iter_suppressed.cc");
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(count_rule(report.suppressed, kRuleUnorderedIter), 1u);
}

TEST(LintRules, UnorderedIterClean) {
  const auto report = lint_fixture("unordered_iter_clean.cc");
  EXPECT_TRUE(report.findings.empty());
}

TEST(LintRules, SortTiePositive) {
  const auto report = lint_fixture("sort_tie_positive.cc");
  EXPECT_EQ(count_rule(report.findings, kRuleSortTieBreak), 1u);
  EXPECT_EQ(report.findings.size(), 1u);
}

TEST(LintRules, SortTieAnnotated) {
  const auto report = lint_fixture("sort_tie_annotated.cc");
  EXPECT_TRUE(report.findings.empty());
}

TEST(LintRules, SortTieClean) {
  const auto report = lint_fixture("sort_tie_clean.cc");
  EXPECT_TRUE(report.findings.empty());
}

TEST(LintRules, SoaScratchCleanReuseIsNotAFinding) {
  // A batch decoder that refills one caller-owned SoA scratch block per
  // next() call. The reuse pattern itself is deterministic — every
  // consumed row is overwritten first — and must lint clean.
  const auto report = lint_fixture("soa_scratch_clean.cc");
  EXPECT_TRUE(report.findings.empty());
  EXPECT_TRUE(report.suppressed.empty());
}

TEST(LintRules, SoaScratchPointerKeyedResultsStillFire) {
  // The actual hazard of reused scratch: keying anything by the block's
  // address. Same slot, different contents every call.
  const auto report = lint_fixture("soa_scratch_positive.cc");
  EXPECT_EQ(count_rule(report.findings, kRulePointerKey), 1u);
  EXPECT_EQ(report.findings.size(), 1u);
}

TEST(LintRules, CoveragePositive) {
  const auto report = lint_fixture("coverage_positive.cc");
  ASSERT_EQ(count_rule(report.findings, kRuleCheckpointCoverage), 1u);
  EXPECT_NE(report.findings[0].message.find("b"), std::string::npos);
}

TEST(LintRules, CoverageClean) {
  const auto report = lint_fixture("coverage_clean.cc");
  EXPECT_TRUE(report.findings.empty());
}

// --- suppression policy ---------------------------------------------------

TEST(LintSuppression, BareAllowIsRejectedAndSuppressesNothing) {
  const auto report = lint_fixture("suppression_no_reason.cc");
  EXPECT_EQ(count_rule(report.findings, kRuleSuppressionReason), 1u);
  EXPECT_EQ(count_rule(report.findings, kRuleNondetCall), 1u);
  EXPECT_TRUE(report.suppressed.empty());
}

TEST(LintSuppression, UnknownRuleNameIsADirectiveFinding) {
  const auto report = lint_text(
      "// dmlint: allow(no-such-rule) because reasons\nint x = 0;\n");
  EXPECT_EQ(count_rule(report.findings, kRuleDirective), 1u);
}

TEST(LintSuppression, UnknownKeywordIsADirectiveFinding) {
  const auto report = lint_text("// dmlint: frobnicate everything\nint x;\n");
  EXPECT_EQ(count_rule(report.findings, kRuleDirective), 1u);
}

TEST(LintSuppression, CoversWithoutEndIsADirectiveFinding) {
  const auto report = lint_text(
      "struct R { int a = 0; };\n"
      "void f(const R& r, int* o) {\n"
      "  // dmlint: covers(r, R)\n"
      "  o[0] = r.a;\n"
      "}\n");
  EXPECT_EQ(count_rule(report.findings, kRuleDirective), 1u);
}

TEST(LintSuppression, CheckpointedNeedsTwoRegions) {
  const auto report = lint_text(
      "struct R {\n"
      "  // dmlint: checkpointed\n"
      "  int a = 0;\n"
      "};\n"
      "void save(const R& r, int* o) {\n"
      "  // dmlint: covers(r, R)\n"
      "  o[0] = r.a;\n"
      "  // dmlint: covers-end(r)\n"
      "}\n");
  EXPECT_EQ(count_rule(report.findings, kRuleCheckpointCoverage), 1u);
}

TEST(LintSuppression, StaleCoversFieldIsAFinding) {
  const auto report = lint_text(
      "struct R { int a = 0; };\n"
      "void f(const R& r, int* o) {\n"
      "  // dmlint: covers(r, R)\n"
      "  o[0] = r.a;\n"
      "  o[1] = r.gone;\n"
      "  // dmlint: covers-end(r)\n"
      "}\n");
  ASSERT_EQ(count_rule(report.findings, kRuleCheckpointCoverage), 1u);
  EXPECT_NE(report.findings[0].message.find("gone"), std::string::npos);
}

// --- fingerprints ---------------------------------------------------------

TEST(LintFingerprint, StableAndOrdinalDistinguished) {
  const Finding f{"a.cpp", 10, kRuleNondetCall, "msg"};
  EXPECT_EQ(fingerprint(f, 0), fingerprint(f, 0));
  EXPECT_NE(fingerprint(f, 0), fingerprint(f, 1));
  Finding moved = f;
  moved.line = 99;  // line drift must not change the identity
  EXPECT_EQ(fingerprint(f, 0), fingerprint(moved, 0));
}

// --- repository self-scan -------------------------------------------------

TEST(LintSelfScan, RepositoryIsCleanWithEmptyBaseline) {
  const auto files = load_tree(DM_SOURCE_ROOT, {"src", "tools", "bench"});
  ASSERT_GT(files.size(), 50u);
  const auto report = run_lint(files);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  // Every suppression in the repo carries a reason (a bare allow would have
  // surfaced as a suppression-reason finding above).
  EXPECT_FALSE(report.suppressed.empty());
}

TEST(LintSelfScan, DeletingASerializedFieldFailsFieldCoverage) {
  auto files = load_tree(DM_SOURCE_ROOT, {"src", "tools"});
  auto it = std::find_if(files.begin(), files.end(), [](const SourceFile& f) {
    return f.path == "src/detect/stream.cpp";
  });
  ASSERT_NE(it, files.end());
  const std::string needle = "put_u64(payload, r.packets);";
  const std::size_t pos = it->text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  it->text.replace(pos, needle.size(), "");
  const auto report = run_lint(files);
  const auto hit = std::find_if(
      report.findings.begin(), report.findings.end(), [](const Finding& f) {
        return f.rule == kRuleCheckpointCoverage &&
               f.file == "src/detect/stream.cpp" &&
               f.message.find("packets") != std::string::npos;
      });
  EXPECT_NE(hit, report.findings.end())
      << "removing a serialized field must fail the coverage rule";
}

}  // namespace
}  // namespace dm::lint
