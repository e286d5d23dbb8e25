// Tests for the interactive framework (Fig. 3) and the simulated user
// protocol of Exp-3.

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "datagen/profile_generator.h"
#include "framework/framework.h"
#include "mj_fixture.h"
#include "service_fixture.h"

namespace relacc {
namespace {

using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;
using testing_fixture::DriveOwnEntity;
using testing_fixture::Phi12;

TEST(Framework, CompleteTargetNeedsNoInteraction) {
  Specification spec = MjSpecification();
  SimulatedUser user(MjExpectedTarget());
  const FrameworkResult r = DriveOwnEntity(spec, &user);
  EXPECT_TRUE(r.church_rosser);
  EXPECT_TRUE(r.found_complete_target);
  EXPECT_EQ(r.interaction_rounds, 0);
  EXPECT_EQ(r.target, MjExpectedTarget());
  EXPECT_EQ(r.automatic_attrs, spec.ie.schema().size());
}

TEST(Framework, IncompleteTargetResolvedViaCandidates) {
  // Drop ϕ11: arena is open; the top-k candidates include the true target,
  // which the (simulated) user accepts in round 0.
  Specification spec = MjSpecification();
  std::erase_if(spec.rules,
                [](const AccuracyRule& r) { return r.name == "phi11"; });
  SimulatedUser user(MjExpectedTarget());
  const FrameworkResult r = DriveOwnEntity(spec, &user);
  EXPECT_TRUE(r.found_complete_target);
  EXPECT_EQ(r.target, MjExpectedTarget());
  EXPECT_LE(r.interaction_rounds, 1);
}

TEST(Framework, NonChurchRosserSpecIsReported) {
  Specification spec = MjSpecification();
  spec.rules.push_back(Phi12(spec.ie.schema()));
  SimulatedUser user(MjExpectedTarget());
  const FrameworkResult r = DriveOwnEntity(spec, &user);
  EXPECT_FALSE(r.church_rosser);
  EXPECT_FALSE(r.found_complete_target);
}

TEST(Framework, RevisionsConvergeOnGeneratedEntities) {
  // Med-like mini dataset: every entity reaches a complete target within a
  // few simulated revisions (the Exp-3 protocol; paper: ≤3-4 rounds).
  ProfileConfig c = MedConfig(21);
  c.num_entities = 25;
  c.master_size = 20;
  const EntityDataset ds = GenerateProfile(c);
  int max_rounds = 0;
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    SimulatedUser user(ds.truths[i]);
    const FrameworkResult r =
        DriveOwnEntity(ds.SpecFor(static_cast<int>(i)), &user, /*k=*/15);
    ASSERT_TRUE(r.church_rosser) << "entity " << i;
    EXPECT_TRUE(r.found_complete_target) << "entity " << i;
    max_rounds = std::max(max_rounds, r.interaction_rounds);
  }
  EXPECT_LE(max_rounds, 12);
}

/// Wraps SimulatedUser and records everything the framework shows the
/// user: per round, the deduced target and the ranked candidate list.
/// Byte-identical transcripts across configurations prove the whole
/// session — not just the final result — is configuration-independent.
class TranscriptUser : public UserOracle {
 public:
  explicit TranscriptUser(Tuple truth) : inner_(std::move(truth)) {}

  Response Inspect(const Tuple& deduced_te,
                   const std::vector<Tuple>& candidates) override {
    transcript_ += "te: " + deduced_te.ToString() + "\n";
    for (const Tuple& c : candidates) {
      transcript_ += "  cand: " + c.ToString() + "\n";
    }
    return inner_.Inspect(deduced_te, candidates);
  }

  const std::string& transcript() const { return transcript_; }

 private:
  SimulatedUser inner_;
  std::string transcript_;
};

TEST(Framework, TranscriptsIdenticalAcrossThreadBudgets) {
  // More corrupted free attributes than Med proper, so sessions run
  // several rounds and the trail session's prefix reuse is exercised.
  ProfileConfig c = MedConfig(55);
  c.num_entities = 8;
  c.master_size = 12;
  c.num_free_attrs = 4;
  c.free_corruption_prob = 0.6;
  const EntityDataset ds = GenerateProfile(c);

  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    std::string reference;
    Tuple reference_target;
    for (int threads : {1, 4, 8}) {
      const Specification spec = ds.SpecFor(static_cast<int>(i));
      TranscriptUser user(ds.truths[i]);
      const FrameworkResult r = DriveOwnEntity(spec, &user, /*k=*/5, threads);
      ASSERT_TRUE(r.church_rosser) << "entity " << i;
      if (threads == 1) {
        reference = user.transcript();
        reference_target = r.target;
      } else {
        EXPECT_EQ(user.transcript(), reference)
            << "entity " << i << ": threads=" << threads
            << " diverged from threads=1";
        EXPECT_EQ(r.target, reference_target)
            << "entity " << i << ": threads=" << threads;
      }
    }
  }
}

TEST(SimulatedUserTest, AcceptsExactCandidateOnly) {
  const Tuple truth({Value::Str("a"), Value::Str("b")});
  SimulatedUser user(truth);
  const Tuple wrong({Value::Str("a"), Value::Str("x")});
  Tuple te(std::vector<Value>{Value::Str("a"), Value::Null()});
  auto resp = user.Inspect(te, {wrong});
  EXPECT_FALSE(resp.accepted_candidate.has_value());
  ASSERT_TRUE(resp.revision.has_value());
  EXPECT_EQ(resp.revision->first, 1);
  EXPECT_EQ(resp.revision->second, Value::Str("b"));
  resp = user.Inspect(te, {wrong, truth});
  ASSERT_TRUE(resp.accepted_candidate.has_value());
  EXPECT_EQ(*resp.accepted_candidate, 1);
}

}  // namespace
}  // namespace relacc
