#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "chase/chase_engine.h"
#include "datagen/profile_generator.h"
#include "framework/framework.h"
#include "mj_fixture.h"
#include "topk/batch_check.h"

namespace relacc {
namespace {

using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;
using testing_fixture::Phi12;

// Drop phi11 so arena stays undeduced and there is something to resume
// into (Sec. 3's incomplete-target example).
Specification IncompleteMjSpec() {
  Specification spec = MjSpecification();
  std::vector<AccuracyRule> rules;
  for (const AccuracyRule& r : spec.rules) {
    if (r.name != "phi11") rules.push_back(r);
  }
  spec.rules = std::move(rules);
  return spec;
}

// Where the session's all-null checkpoint comes from. "trail": the engine
// chases it itself on first use. "copy": it is installed from an image a
// sibling engine exported (ImportCheckpoint, the snapshot path). Every
// resume must come out the same either way — and equal to the
// from-scratch Run each test compares with.
enum class CheckpointSource { kImported, kChased };

class ResumeWithStrategy
    : public ::testing::TestWithParam<CheckpointSource> {
 protected:
  std::unique_ptr<ChaseEngine> MakeEngine(const Relation& ie,
                                          const GroundProgram* program,
                                          const ChaseConfig& config) {
    if (GetParam() == CheckpointSource::kChased) {
      return std::make_unique<ChaseEngine>(ie, program, config);
    }
    // The image carries TermIds, so donor and importer share a dictionary.
    ChaseEngine donor(ie, program, config, nullptr, &dict_);
    ChaseCheckpoint image;
    donor.ExportCheckpoint(&image);
    auto engine =
        std::make_unique<ChaseEngine>(ie, program, config, nullptr, &dict_);
    EXPECT_TRUE(engine->ImportCheckpoint(image).ok());
    return engine;
  }

 private:
  Dictionary dict_;
};

INSTANTIATE_TEST_SUITE_P(AllStrategies, ResumeWithStrategy,
                         ::testing::Values(CheckpointSource::kChased,
                                           CheckpointSource::kImported),
                         [](const auto& info) {
                           return std::string(
                               info.param == CheckpointSource::kChased
                                   ? "trail"
                                   : "copy");
                         });

TEST_P(ResumeWithStrategy, AllNullResumeEqualsPlainRun) {
  Specification spec = IncompleteMjSpec();
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  std::unique_ptr<ChaseEngine> engine =
      MakeEngine(spec.ie, &program, spec.config);

  Tuple all_null(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
  ChaseOutcome full = engine->Run(all_null);
  ChaseOutcome resumed = engine->ResumeWith(all_null);
  ASSERT_TRUE(full.church_rosser);
  ASSERT_TRUE(resumed.church_rosser);
  EXPECT_EQ(full.target, resumed.target);
}

TEST_P(ResumeWithStrategy, PartialRevisionMatchesFromScratchRun) {
  Specification spec = IncompleteMjSpec();
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  std::unique_ptr<ChaseEngine> engine =
      MakeEngine(spec.ie, &program, spec.config);
  const Schema& schema = spec.ie.schema();

  Tuple revision(std::vector<Value>(schema.size(), Value::Null()));
  revision.set(schema.MustIndexOf("arena"), Value::Str("United Center"));

  ChaseOutcome full = engine->Run(revision);
  ChaseOutcome resumed = engine->ResumeWith(revision);
  ASSERT_TRUE(full.church_rosser);
  ASSERT_TRUE(resumed.church_rosser);
  EXPECT_EQ(full.target, resumed.target);
  EXPECT_TRUE(resumed.target.IsComplete());
  EXPECT_EQ(resumed.target, MjExpectedTarget());
}

TEST_P(ResumeWithStrategy, ConflictingRevisionIsRejectedOnBothPaths) {
  Specification spec = IncompleteMjSpec();
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  std::unique_ptr<ChaseEngine> engine =
      MakeEngine(spec.ie, &program, spec.config);
  const Schema& schema = spec.ie.schema();

  // league is pinned to NBA by master data; revising it to SL must make
  // the continuation non-Church-Rosser on both paths.
  Tuple revision(std::vector<Value>(schema.size(), Value::Null()));
  revision.set(schema.MustIndexOf("league"), Value::Str("SL"));

  ChaseOutcome full = engine->Run(revision);
  ChaseOutcome resumed = engine->ResumeWith(revision);
  EXPECT_FALSE(full.church_rosser);
  EXPECT_FALSE(resumed.church_rosser);
  EXPECT_FALSE(resumed.violation.empty());
}

TEST_P(ResumeWithStrategy, NonChurchRosserBaseReportsViolation) {
  Specification spec = MjSpecification();
  spec.rules.push_back(Phi12(spec.ie.schema()));
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  std::unique_ptr<ChaseEngine> engine =
      MakeEngine(spec.ie, &program, spec.config);

  Tuple all_null(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
  ChaseOutcome resumed = engine->ResumeWith(all_null);
  EXPECT_FALSE(resumed.church_rosser);
  EXPECT_FALSE(resumed.violation.empty());
}

TEST_P(ResumeWithStrategy, RepeatedResumesAreIndependent) {
  Specification spec = IncompleteMjSpec();
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  std::unique_ptr<ChaseEngine> engine =
      MakeEngine(spec.ie, &program, spec.config);
  const Schema& schema = spec.ie.schema();
  AttrId arena = schema.MustIndexOf("arena");

  Tuple r1(std::vector<Value>(schema.size(), Value::Null()));
  r1.set(arena, Value::Str("United Center"));
  Tuple r2(std::vector<Value>(schema.size(), Value::Null()));
  r2.set(arena, Value::Str("Regions Park"));

  // Mutually incompatible revisions: the trail session must reset to the
  // checkpoint between them instead of leaking the previous value.
  ChaseOutcome a = engine->ResumeWith(r1);
  ChaseOutcome b = engine->ResumeWith(r2);
  ChaseOutcome c = engine->ResumeWith(r1);
  ASSERT_TRUE(a.church_rosser);
  ASSERT_TRUE(b.church_rosser);
  EXPECT_EQ(a.target.at(arena), Value::Str("United Center"));
  EXPECT_EQ(b.target.at(arena), Value::Str("Regions Park"));
  EXPECT_EQ(a.target, c.target);
}

TEST_P(ResumeWithStrategy, AgreesWithFullRunsAcrossGeneratedRevisions) {
  ProfileConfig config = MedConfig(/*seed=*/77);
  config.num_entities = 25;
  config.master_size = 20;
  EntityDataset dataset = GenerateProfile(config);
  int compared = 0;
  for (size_t i = 0; i < dataset.entities.size(); ++i) {
    const Specification spec = dataset.SpecFor(static_cast<int>(i));
    GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
    std::unique_ptr<ChaseEngine> engine =
        MakeEngine(spec.ie, &program, spec.config);
    ChaseOutcome base = engine->RunFromInitial();
    if (!base.church_rosser || base.target.IsComplete()) continue;

    // Reveal the ground truth of each null attribute in turn.
    const Tuple& truth = dataset.truths[i];
    for (AttrId a = 0; a < spec.ie.schema().size(); ++a) {
      if (!base.target.at(a).is_null() || truth.at(a).is_null()) continue;
      Tuple revision(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
      revision.set(a, truth.at(a));
      ChaseOutcome full = engine->Run(revision);
      ChaseOutcome resumed = engine->ResumeWith(revision);
      ASSERT_EQ(full.church_rosser, resumed.church_rosser)
          << "entity " << i << " attr " << a;
      if (full.church_rosser) {
        EXPECT_EQ(full.target, resumed.target)
            << "entity " << i << " attr " << a;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 10);
}

TEST_P(ResumeWithStrategy, KeepOrdersIsHonoured) {
  Specification spec = IncompleteMjSpec();
  spec.config.keep_orders = true;
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  std::unique_ptr<ChaseEngine> engine =
      MakeEngine(spec.ie, &program, spec.config);
  Tuple all_null(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
  ChaseOutcome resumed = engine->ResumeWith(all_null);
  ASSERT_TRUE(resumed.church_rosser);
  ASSERT_EQ(resumed.orders.size(),
            static_cast<size_t>(spec.ie.schema().size()));
  // t0 ⪯ t1 on rnds (16 < 27 within NBA, phi1).
  EXPECT_TRUE(resumed.orders[spec.ie.schema().MustIndexOf("rnds")].Reaches(0, 1));
  // The materialized orders are exactly those of a from-scratch run.
  const ChaseOutcome full = engine->Run(all_null);
  ASSERT_EQ(full.orders.size(), resumed.orders.size());
  for (std::size_t a = 0; a < full.orders.size(); ++a) {
    EXPECT_EQ(resumed.orders[a].successor_words(),
              full.orders[a].successor_words())
        << "attr " << a;
  }
}

/// One generated med entity with at least `min_nulls` revisable
/// attributes and its truth values for them, for the session tests.
struct SessionFixture {
  Specification spec;
  std::vector<std::pair<AttrId, Value>> reveals;  ///< null attr -> truth
};

std::optional<SessionFixture> FindSessionFixture(std::size_t min_nulls) {
  ProfileConfig config = MedConfig(/*seed=*/123);
  config.num_entities = 20;
  config.master_size = 30;
  config.num_free_attrs = 4;
  config.free_corruption_prob = 1.0;
  EntityDataset dataset = GenerateProfile(config);
  for (size_t i = 0; i < dataset.entities.size(); ++i) {
    SessionFixture fx;
    fx.spec = dataset.SpecFor(static_cast<int>(i));
    GroundProgram program =
        Instantiate(fx.spec.ie, fx.spec.masters, fx.spec.rules);
    ChaseEngine engine(fx.spec.ie, &program, fx.spec.config);
    ChaseOutcome base = engine.RunFromInitial();
    if (!base.church_rosser) continue;
    const Tuple& truth = dataset.truths[i];
    for (AttrId a = 0; a < fx.spec.ie.schema().size(); ++a) {
      if (base.target.at(a).is_null() && !truth.at(a).is_null()) {
        fx.reveals.emplace_back(a, truth.at(a));
      }
    }
    if (fx.reveals.size() >= min_nulls) return fx;
  }
  return std::nullopt;
}

TEST_P(ResumeWithStrategy, SessionExtensionMatchesFromScratchEveryRound) {
  std::optional<SessionFixture> fx = FindSessionFixture(3);
  ASSERT_TRUE(fx.has_value());
  GroundProgram program =
      Instantiate(fx->spec.ie, fx->spec.masters, fx->spec.rules);
  std::unique_ptr<ChaseEngine> engine =
      MakeEngine(fx->spec.ie, &program, fx->spec.config);

  // Cumulative reveals, as DriveInteraction issues them: every round must
  // match the from-scratch chase of the same designated values.
  const int num_attrs = fx->spec.ie.schema().size();
  Tuple cumulative(std::vector<Value>(num_attrs, Value::Null()));
  for (const auto& [attr, value] : fx->reveals) {
    cumulative.set(attr, value);
    ChaseOutcome full = engine->Run(cumulative);
    ChaseOutcome resumed = engine->ResumeWith(cumulative);
    ASSERT_EQ(full.church_rosser, resumed.church_rosser) << "attr " << attr;
    if (full.church_rosser) {
      EXPECT_EQ(full.target, resumed.target) << "attr " << attr;
    }
  }
  // A non-extending revision after the session grew: back to round one.
  Tuple fresh(std::vector<Value>(num_attrs, Value::Null()));
  fresh.set(fx->reveals[1].first, fx->reveals[1].second);
  ChaseOutcome full = engine->Run(fresh);
  ChaseOutcome resumed = engine->ResumeWith(fresh);
  ASSERT_EQ(full.church_rosser, resumed.church_rosser);
  if (full.church_rosser) {
    EXPECT_EQ(full.target, resumed.target);
  }
}

TEST_P(ResumeWithStrategy, AbortedResumeKeepsSessionUsable) {
  Specification spec = IncompleteMjSpec();
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  std::unique_ptr<ChaseEngine> engine =
      MakeEngine(spec.ie, &program, spec.config);
  const Schema& schema = spec.ie.schema();

  Tuple good(std::vector<Value>(schema.size(), Value::Null()));
  good.set(schema.MustIndexOf("arena"), Value::Str("United Center"));
  Tuple bad = good;
  bad.set(schema.MustIndexOf("league"), Value::Str("SL"));

  ChaseOutcome first = engine->ResumeWith(good);
  ASSERT_TRUE(first.church_rosser);
  // Extends the session's applied values but aborts mid-chase; the
  // session must roll back to its last valid state.
  ChaseOutcome aborted = engine->ResumeWith(bad);
  EXPECT_FALSE(aborted.church_rosser);
  EXPECT_FALSE(aborted.violation.empty());
  ChaseOutcome again = engine->ResumeWith(good);
  ASSERT_TRUE(again.church_rosser);
  EXPECT_EQ(first.target, again.target);
  EXPECT_EQ(engine->Run(good).target, again.target);
}

TEST(ResumeWithStats, ReportsPerCallDeltas) {
  Specification spec = IncompleteMjSpec();
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  const Schema& schema = spec.ie.schema();
  Tuple all_null(std::vector<Value>(schema.size(), Value::Null()));
  Tuple revision = all_null;
  revision.set(schema.MustIndexOf("arena"), Value::Str("United Center"));

  ChaseEngine engine(spec.ie, &program, spec.config);
  const ChaseOutcome checkpoint = engine.RunFromCheckpoint();
  ASSERT_TRUE(checkpoint.church_rosser);

  // Resuming with nothing new performs no work: the checkpoint chase
  // must not be re-reported (the pre-fix behaviour double-counted it
  // in every round's stats).
  ChaseOutcome nothing = engine.ResumeWith(all_null);
  EXPECT_EQ(nothing.stats.steps_applied, 0);
  EXPECT_EQ(nothing.stats.pairs_derived, 0);
  EXPECT_EQ(nothing.stats.ground_steps, checkpoint.stats.ground_steps);

  // A real revision reports only its own work, and summing rounds
  // cannot double-count: the second identical call extends the session
  // and reports zero.
  ChaseOutcome first = engine.ResumeWith(revision);
  ASSERT_TRUE(first.church_rosser);
  EXPECT_GT(first.stats.pairs_derived, 0);
  EXPECT_LT(first.stats.pairs_derived, checkpoint.stats.pairs_derived);
  ChaseOutcome second = engine.ResumeWith(revision);
  ASSERT_TRUE(second.church_rosser);
  EXPECT_EQ(second.stats.pairs_derived, 0);
  EXPECT_EQ(second.stats.steps_applied, 0);
}

TEST(ResumeWithStats, FirstCallDeltasMatchFromScratchRunBeyondCheckpoint) {
  Specification spec = IncompleteMjSpec();
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  const Schema& schema = spec.ie.schema();
  Tuple revision(std::vector<Value>(schema.size(), Value::Null()));
  revision.set(schema.MustIndexOf("arena"), Value::Str("United Center"));

  ChaseEngine engine(spec.ie, &program, spec.config);
  // The first resume continues from the checkpoint (fresh session), so
  // its per-call delta is exactly what a from-scratch run of the same
  // revision derives beyond the all-null chase.
  const ChaseOutcome checkpoint = engine.RunFromCheckpoint();
  const ChaseOutcome resumed = engine.ResumeWith(revision);
  const ChaseOutcome full = engine.Run(revision);
  ASSERT_TRUE(checkpoint.church_rosser);
  ASSERT_TRUE(resumed.church_rosser);
  ASSERT_TRUE(full.church_rosser);
  EXPECT_EQ(resumed.stats.pairs_derived,
            full.stats.pairs_derived - checkpoint.stats.pairs_derived);
  EXPECT_EQ(resumed.stats.steps_applied,
            full.stats.steps_applied - checkpoint.stats.steps_applied);
}

TEST(ResumeWith, CandidateChecksPristineAcrossSessionActivity) {
  // The check probe state and the resume session state are
  // separate; resumes (including aborting ones) must not disturb
  // candidate verdicts, and vice versa.
  Specification spec = IncompleteMjSpec();
  GroundProgram program = Instantiate(spec.ie, spec.masters, spec.rules);
  ChaseEngine engine(spec.ie, &program, spec.config);
  const Schema& schema = spec.ie.schema();

  ChaseOutcome base = engine.RunFromCheckpoint();
  ASSERT_TRUE(base.church_rosser);
  const std::vector<Tuple> pool = EnumerateCandidateProduct(
      spec.ie, spec.masters, base.target, /*include_default_values=*/false,
      /*limit=*/32);
  ASSERT_FALSE(pool.empty());
  std::vector<char> verdicts_before;
  for (const Tuple& t : pool) {
    verdicts_before.push_back(engine.CheckCandidate(t) ? 1 : 0);
  }

  Tuple good(std::vector<Value>(schema.size(), Value::Null()));
  good.set(schema.MustIndexOf("arena"), Value::Str("United Center"));
  Tuple bad(std::vector<Value>(schema.size(), Value::Null()));
  bad.set(schema.MustIndexOf("league"), Value::Str("SL"));
  ASSERT_TRUE(engine.ResumeWith(good).church_rosser);
  ASSERT_FALSE(engine.ResumeWith(bad).church_rosser);

  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(engine.CheckCandidate(pool[i]) ? 1 : 0, verdicts_before[i])
        << i;
  }
  // And the session still continues correctly after the checks.
  ChaseOutcome resumed = engine.ResumeWith(good);
  ASSERT_TRUE(resumed.church_rosser);
  EXPECT_EQ(resumed.target, engine.Run(good).target);
}

TEST(ChaseConfig, ActionBudgetAborts) {
  Specification spec = MjSpecification();
  spec.config.max_actions = 1;  // far below what the MJ chase needs
  ChaseOutcome outcome = IsCR(spec);
  EXPECT_FALSE(outcome.church_rosser);
  EXPECT_NE(outcome.violation.find("budget"), std::string::npos);
}

/// Wraps SimulatedUser: every deduced target the framework shows the
/// user must equal a from-scratch chase (ChaseEngine::Run) of the
/// session's current template on a separate engine.
class RechasingUser : public UserOracle {
 public:
  RechasingUser(Tuple truth, const ChaseEngine& fresh,
                const InteractionSession& session)
      : inner_(std::move(truth)), fresh_(fresh), session_(session) {}

  Response Inspect(const Tuple& deduced_te,
                   const std::vector<Tuple>& candidates) override {
    const ChaseOutcome full = fresh_.Run(session_.target_template());
    EXPECT_TRUE(full.church_rosser);
    EXPECT_EQ(deduced_te, full.target)
        << "after " << session_.revisions() << " revisions";
    if (session_.revisions() > 0) ++checked_after_revision_;
    return inner_.Inspect(deduced_te, candidates);
  }

  int checked_after_revision() const { return checked_after_revision_; }

 private:
  SimulatedUser inner_;
  const ChaseEngine& fresh_;
  const InteractionSession& session_;
  int checked_after_revision_ = 0;
};

TEST(Framework, SuggestionsMatchAFullRechaseAfterEveryRevision) {
  // Suggest() resumes the session's trail state (ChaseEngine::ResumeWith)
  // after each Revise(); what it deduces must be what a full re-chase of
  // the same template deduces.
  ProfileConfig config = MedConfig(/*seed=*/91);
  config.num_entities = 15;
  config.master_size = 12;
  config.num_free_attrs = 4;
  config.free_corruption_prob = 0.6;
  const EntityDataset dataset = GenerateProfile(config);

  int checked_after_revision = 0;
  for (size_t i = 0; i < dataset.entities.size(); ++i) {
    const Specification spec = dataset.SpecFor(static_cast<int>(i));
    const GroundProgram program =
        Instantiate(spec.ie, spec.masters, spec.rules);
    const ChaseEngine fresh(spec.ie, &program, spec.config);

    ServiceOptions options;
    options.num_threads = 1;
    Result<std::unique_ptr<AccuracyService>> service =
        AccuracyService::Create(spec, std::move(options));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    Result<std::unique_ptr<InteractionSession>> session =
        service.value()->StartInteraction();
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    RechasingUser user(dataset.truths[i], fresh, *session.value());
    const FrameworkResult result = DriveInteraction(*session.value(), &user);
    ASSERT_TRUE(result.church_rosser) << "entity " << i;
    // The round that ends the loop on a complete deduction never reaches
    // the user; check it here.
    const ChaseOutcome last = fresh.Run(session.value()->target_template());
    if (last.target.IsComplete()) {
      EXPECT_EQ(result.target, last.target) << "entity " << i;
    }
    checked_after_revision += user.checked_after_revision();
  }
  EXPECT_GT(checked_after_revision, 0);
}

}  // namespace
}  // namespace relacc
