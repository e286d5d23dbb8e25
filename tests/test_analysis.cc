// Tests for the static analyzer (analysis/), the lenient parse plumbing
// that feeds it, and the `relacc lint` CLI surface.
//
// The crafted-bad-spec matrix pins one fixture per check ID — severity,
// source span, and the JSON document shape — so a check ID or span
// regression fails here before any consumer notices.

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "api/accuracy_service.h"
#include "chase/chase_engine.h"
#include "cli/commands.h"
#include "datagen/profile_generator.h"
#include "io/spec_io.h"
#include "mj_fixture.h"
#include "rules/rule_builder.h"
#include "temp_path.h"

namespace relacc {
namespace {

using testing_fixture::MjSpecification;
using testing_fixture::Phi12;

std::string SpecPath(const std::string& rel) {
  return std::string(RELACC_SOURCE_DIR) + "/" + rel;
}

struct LintRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

LintRun Lint(const std::vector<std::string>& argv) {
  std::ostringstream out;
  std::ostringstream err;
  LintRun run;
  run.exit_code = RunCli(argv, out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

/// Finds the first diagnostic with `check` in a lint --json document.
const Json* FindCheck(const Json& doc, const std::string& check) {
  const Json* diags = doc.Find("diagnostics");
  if (diags == nullptr) return nullptr;
  for (int i = 0; i < diags->size(); ++i) {
    const Json* id = diags->at(i).Find("check");
    if (id != nullptr && id->as_string() == check) return &diags->at(i);
  }
  return nullptr;
}

// --- check metadata -----------------------------------------------------------

TEST(Analyzer, CheckVocabularyIsStable) {
  const std::vector<AnalyzerCheck>& checks = AnalyzerChecks();
  ASSERT_EQ(checks.size(), 9u);
  std::vector<std::string> ids;
  for (const AnalyzerCheck& c : checks) ids.push_back(c.id);
  for (const char* expected :
       {"parse-syntax", "schema-unknown-attr", "schema-unknown-master",
        "rule-dead-lhs", "rule-duplicate", "rule-shadowed",
        "cr-order-conflict", "cr-assign-conflict", "cr-order-cycle"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << "missing check id " << expected;
  }
}

// --- the crafted-bad-spec matrix ---------------------------------------------

struct BadSpecCase {
  const char* file;      // under tests/specs/bad/
  const char* check;     // the check ID the fixture must trigger
  const char* severity;  // "error" / "warning" / "note"
  int line;              // span within the embedded rule DSL text
  int column;
  int exit_with_werror;  // 4 for errors+warnings, 0 for notes
};

// Without this gtest prints the case as raw bytes, pointer values included,
// and gtest_discover_tests bakes them into the CTest names.
void PrintTo(const BadSpecCase& c, std::ostream* os) {
  *os << c.file << " [" << c.check << "]";
}

class BadSpecMatrix : public ::testing::TestWithParam<BadSpecCase> {};

TEST_P(BadSpecMatrix, DetectedWithSeveritySpanAndJson) {
  const BadSpecCase& c = GetParam();
  const std::string path = SpecPath(std::string("tests/specs/bad/") + c.file);

  LintRun json_run = Lint({"lint", path, "--json", "--werror"});
  EXPECT_EQ(json_run.exit_code, c.exit_with_werror) << json_run.err;
  Result<Json> doc = Json::Parse(json_run.out);
  ASSERT_TRUE(doc.ok()) << json_run.out;
  const Json* diag = FindCheck(doc.value(), c.check);
  ASSERT_NE(diag, nullptr) << "no " << c.check << " finding in\n"
                           << json_run.out;
  EXPECT_EQ(diag->Find("severity")->as_string(), c.severity);
  ASSERT_NE(diag->Find("line"), nullptr);
  EXPECT_EQ(diag->Find("line")->as_int(), c.line);
  EXPECT_EQ(diag->Find("column")->as_int(), c.column);

  // The text rendering carries the same span and the bracketed check ID.
  LintRun text_run = Lint({"lint", path, "--werror"});
  EXPECT_EQ(text_run.exit_code, c.exit_with_werror);
  const std::string tag = std::string("[") + c.check + "]";
  EXPECT_NE(text_run.out.find(tag), std::string::npos) << text_run.out;
  const std::string anchor = path + ":" + std::to_string(c.line) + ":" +
                             std::to_string(c.column) + ":";
  EXPECT_NE(text_run.out.find(anchor), std::string::npos) << text_run.out;
}

INSTANTIATE_TEST_SUITE_P(
    AllChecks, BadSpecMatrix,
    ::testing::Values(
        BadSpecCase{"parse_syntax.json", "parse-syntax", "error", 3, 18, 4},
        BadSpecCase{"schema_unknown_attr.json", "schema-unknown-attr",
                    "error", 3, 6, 4},
        BadSpecCase{"schema_unknown_master.json", "schema-unknown-master",
                    "error", 2, 16, 4},
        BadSpecCase{"rule_dead_lhs.json", "rule-dead-lhs", "warning", 1, 6, 4},
        BadSpecCase{"rule_duplicate.json", "rule-duplicate", "warning", 6, 6,
                    4},
        BadSpecCase{"rule_shadowed.json", "rule-shadowed", "warning", 6, 6, 4},
        BadSpecCase{"cr_order_conflict.json", "cr-order-conflict", "warning",
                    1, 6, 4},
        BadSpecCase{"cr_assign_conflict.json", "cr-assign-conflict",
                    "warning", 1, 6, 4},
        BadSpecCase{"cr_order_cycle.json", "cr-order-cycle", "note", 1, 6,
                    0}),
    [](const ::testing::TestParamInfo<BadSpecCase>& info) {
      std::string name = info.param.check;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// --- shipped specs stay clean -------------------------------------------------

TEST(Lint, ShippedSpecsPassWerror) {
  for (const char* rel : {"examples/specs/mj.json",
                          "tests/specs/good/minimal.json",
                          "tests/specs/good/master_assign.json"}) {
    LintRun run = Lint({"lint", SpecPath(rel), "--werror"});
    EXPECT_EQ(run.exit_code, 0) << rel << "\n" << run.out << run.err;
  }
}

// --- exit-code contract -------------------------------------------------------

TEST(Lint, ExitCodeContract) {
  // Usage errors: missing positional, unknown flag.
  EXPECT_EQ(Lint({"lint"}).exit_code, 2);
  EXPECT_EQ(Lint({"lint", SpecPath("tests/specs/good/minimal.json"),
                  "--bogus"})
                .exit_code,
            2);
  // I/O and document-level failures.
  EXPECT_EQ(Lint({"lint", "/nonexistent/spec.json"}).exit_code, 1);
  const std::string broken = testing_fixture::TempPath("broken.json");
  ASSERT_TRUE(WriteFile(broken, "{ not json").ok());
  EXPECT_EQ(Lint({"lint", broken}).exit_code, 1);
  // Warnings only fail under --werror.
  const std::string warn = SpecPath("tests/specs/bad/rule_duplicate.json");
  EXPECT_EQ(Lint({"lint", warn}).exit_code, 0);
  EXPECT_EQ(Lint({"lint", warn, "--werror"}).exit_code, 4);
}

// --- JSON round-trip ----------------------------------------------------------

TEST(Diagnostics, JsonRoundTripsFieldsAndNotes) {
  Diagnostic d;
  d.check_id = "cr-order-conflict";
  d.severity = Severity::kWarning;
  d.message = "rules clash";
  d.span = {4, 7};
  d.notes.push_back({"other rule", {9, 2}});
  Json j = DiagnosticToJson(d);
  EXPECT_EQ(j.Find("check")->as_string(), "cr-order-conflict");
  EXPECT_EQ(j.Find("severity")->as_string(), "warning");
  EXPECT_EQ(j.Find("message")->as_string(), "rules clash");
  EXPECT_EQ(j.Find("line")->as_int(), 4);
  EXPECT_EQ(j.Find("column")->as_int(), 7);
  ASSERT_EQ(j.Find("notes")->size(), 1);
  EXPECT_EQ(j.Find("notes")->at(0).Find("line")->as_int(), 9);

  // Unknown spans omit line/column entirely instead of emitting 0.
  Diagnostic unlocated;
  unlocated.check_id = "schema-unknown-attr";
  unlocated.severity = Severity::kError;
  unlocated.message = "bad attr";
  Json u = DiagnosticToJson(unlocated);
  EXPECT_EQ(u.Find("line"), nullptr);
  EXPECT_EQ(u.Find("column"), nullptr);
}

// --- static/runtime cross-reference ------------------------------------------

TEST(Lint, OrderConflictMatchesRuntimeViolation) {
  const std::string path = SpecPath("tests/specs/bad/cr_order_conflict.json");

  // Static side: the warning names both rules of the pair.
  LintRun lint = Lint({"lint", path, "--json"});
  Result<Json> doc = Json::Parse(lint.out);
  ASSERT_TRUE(doc.ok());
  const Json* diag = FindCheck(doc.value(), "cr-order-conflict");
  ASSERT_NE(diag, nullptr);
  const std::string static_msg = diag->Find("message")->as_string();
  EXPECT_NE(static_msg.find("order_a"), std::string::npos);
  EXPECT_NE(static_msg.find("order_b"), std::string::npos);

  // Runtime side: the chase fails on the same rule pair and points back
  // at the lint check.
  Result<std::string> text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  Result<SpecDocument> spec = SpecFromJsonText(text.value(), "");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ChaseOutcome outcome = IsCR(spec.value().spec);
  ASSERT_FALSE(outcome.church_rosser);
  EXPECT_NE(outcome.violation.find("order_a"), std::string::npos)
      << outcome.violation;
  EXPECT_NE(outcome.violation.find("order_b"), std::string::npos)
      << outcome.violation;
  EXPECT_NE(outcome.violation.find("cr-order-conflict"), std::string::npos)
      << outcome.violation;
}

TEST(Lint, AssignConflictMatchesRuntimeViolation) {
  const std::string path = SpecPath("tests/specs/bad/cr_assign_conflict.json");
  Result<std::string> text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  Result<SpecDocument> spec = SpecFromJsonText(text.value(), "");
  ASSERT_TRUE(spec.ok());
  ChaseOutcome outcome = IsCR(spec.value().spec);
  ASSERT_FALSE(outcome.church_rosser);
  EXPECT_NE(outcome.violation.find("assign_p"), std::string::npos)
      << outcome.violation;
  EXPECT_NE(outcome.violation.find("assign_q"), std::string::npos)
      << outcome.violation;
  EXPECT_NE(outcome.violation.find("cr-assign-conflict"), std::string::npos)
      << outcome.violation;
}

// --- analyzer on programmatic specs ------------------------------------------

TEST(Analyzer, RunningExampleIsClean) {
  std::vector<Diagnostic> diags = AnalyzeSpecification(MjSpecification());
  EXPECT_TRUE(diags.empty()) << FormatDiagnostics(diags);
}

TEST(Analyzer, Phi12IsOutOfStaticReach) {
  // ϕ12's reversed body is unsatisfiable, so pairwise unification cannot
  // see the conflict it causes through the ϕ8 anchor at chase time. This
  // pins the documented conservativeness caveat: no warning, yet the
  // chase genuinely fails — the warning's absence is not a confluence
  // proof.
  Specification spec = MjSpecification();
  spec.rules.push_back(Phi12(spec.ie.schema()));
  std::vector<Diagnostic> diags = AnalyzeSpecification(spec);
  EXPECT_TRUE(diags.empty()) << FormatDiagnostics(diags);
  EXPECT_FALSE(IsCR(spec).church_rosser);
}

TEST(Analyzer, FlagsOutOfSchemaAttributeInProgrammaticRule) {
  Specification spec = MjSpecification();
  AccuracyRule bad = spec.rules[0];
  bad.name = "bad";
  bad.rhs_attr = static_cast<AttrId>(spec.ie.schema().size() + 3);
  spec.rules.push_back(bad);
  std::vector<Diagnostic> diags = AnalyzeSpecification(spec);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].check_id, "schema-unknown-attr");
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_FALSE(diags[0].span.known());
}

// --- ServiceOptions::validate_spec -------------------------------------------

TEST(AccuracyServiceValidate, RejectsErrorFindingsOnCreate) {
  Specification spec = MjSpecification();
  AccuracyRule bad = spec.rules[0];
  bad.name = "bad";
  bad.rhs_attr = static_cast<AttrId>(spec.ie.schema().size() + 3);
  spec.rules.push_back(bad);
  ServiceOptions options;
  options.validate_spec = true;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), std::move(options));
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("schema-unknown-attr"),
            std::string::npos)
      << service.status().ToString();
}

TEST(AccuracyServiceValidate, WarningsDoNotReject) {
  // Duplicate rules only warn; validation must still admit the spec.
  Specification spec = MjSpecification();
  AccuracyRule dup = spec.rules[0];
  dup.name = "phi1_copy";
  spec.rules.push_back(dup);
  ServiceOptions options;
  options.validate_spec = true;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
}

// --- property: statically-quiet specs never fail the chase --------------------

TEST(AnalyzerProperty, NoConflictWarningsImpliesChurchRosserOnProfiles) {
  // Over the bundled generator profiles: any entity spec with zero
  // cr-order-conflict / cr-assign-conflict warnings must pass IsCR — the
  // static pass may over-warn, but a silent spec exiting 3 would mean a
  // missed conflict class.
  for (const char* profile : {"med", "cfp"}) {
    for (uint64_t seed : {7u, 19u}) {
      ProfileConfig config = std::string(profile) == "med"
                                 ? MedConfig(seed)
                                 : CfpConfig(seed);
      config.num_entities = 4;
      config.master_size = 3;
      EntityDataset dataset = GenerateProfile(config);
      for (size_t i = 0; i < dataset.entities.size(); ++i) {
        Specification spec = dataset.SpecFor(static_cast<int>(i));
        std::vector<Diagnostic> diags = AnalyzeSpecification(spec);
        bool conflict_warned = false;
        for (const Diagnostic& d : diags) {
          if (d.check_id == "cr-order-conflict" ||
              d.check_id == "cr-assign-conflict") {
            conflict_warned = true;
          }
        }
        if (conflict_warned) continue;
        ChaseOutcome outcome = IsCR(spec);
        EXPECT_TRUE(outcome.church_rosser)
            << profile << " seed " << seed << " entity " << i
            << " was statically quiet but failed the chase: "
            << outcome.violation;
      }
    }
  }
}

}  // namespace
}  // namespace relacc
