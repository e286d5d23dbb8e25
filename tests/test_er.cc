// Tests for the entity-resolution substrate.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/profile_generator.h"
#include "er/resolver.h"
#include "oracle/reference_resolver.h"

namespace relacc {
namespace {

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_NE(uf.Find(0), uf.Find(1));
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // already merged
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_TRUE(uf.Union(0, 3));
  EXPECT_EQ(uf.Find(1), uf.Find(2));
  EXPECT_NE(uf.Find(4), uf.Find(0));
}

Relation PeopleRelation() {
  Schema schema({{"name", ValueType::kString}, {"city", ValueType::kString}});
  Relation r(schema);
  auto add = [&](const char* n, const char* c) {
    r.Add(Tuple({Value::Str(n), Value::Str(c)}));
  };
  add("Michael Jordan", "Chicago");
  add("Michael Jordon", "Chicago");   // typo, same entity
  add("MICHAEL JORDAN", "Chicago");   // case noise
  add("Scottie Pippen", "Chicago");
  add("Scotty Pippen", "Chicago");    // variant spelling
  add("Dennis Rodman", "Detroit");
  return r;
}

TEST(Resolver, ClustersTyposAndCaseVariants) {
  const Relation flat = PeopleRelation();
  ResolverConfig cfg;
  cfg.key_attrs = {flat.schema().MustIndexOf("name")};
  cfg.similarity_threshold = 0.5;
  const ResolutionResult res = ResolveEntities(flat, cfg);
  EXPECT_EQ(res.entities.size(), 3u);
  // The three Jordan rows share a cluster.
  EXPECT_EQ(res.cluster_of[0], res.cluster_of[1]);
  EXPECT_EQ(res.cluster_of[0], res.cluster_of[2]);
  EXPECT_EQ(res.cluster_of[3], res.cluster_of[4]);
  EXPECT_NE(res.cluster_of[0], res.cluster_of[3]);
  EXPECT_NE(res.cluster_of[0], res.cluster_of[5]);
}

TEST(Resolver, ThresholdOneKeepsEverythingSeparate) {
  const Relation flat = PeopleRelation();
  ResolverConfig cfg;
  cfg.key_attrs = {flat.schema().MustIndexOf("name")};
  cfg.similarity_threshold = 1.01;  // nothing ever matches
  const ResolutionResult res = ResolveEntities(flat, cfg);
  EXPECT_EQ(res.entities.size(), flat.tuples().size());
}

TEST(Resolver, EntityInstancesCarryTheirTuples) {
  const Relation flat = PeopleRelation();
  ResolverConfig cfg;
  cfg.key_attrs = {flat.schema().MustIndexOf("name")};
  cfg.similarity_threshold = 0.5;
  const ResolutionResult res = ResolveEntities(flat, cfg);
  int total = 0;
  for (const EntityInstance& e : res.entities) total += e.size();
  EXPECT_EQ(total, flat.size());
}

// --- the prefix-filtered join against the all-pairs oracle -----------------

const double kThresholds[] = {-0.5, 0.0, 0.3, 0.5, 0.75, 0.9, 1.0, 1.01};

// The join must cluster exactly like the all-pairs loop: same cluster per
// tuple, same entities in the same order, each with the same tuples.
void ExpectSameAsOracle(const Relation& flat, const ResolverConfig& cfg) {
  SCOPED_TRACE("t=" + std::to_string(cfg.similarity_threshold) +
               " block_prefix=" + std::to_string(cfg.block_prefix));
  const ResolutionResult got = ResolveEntities(flat, cfg);
  const ResolutionResult want = oracle::ReferenceResolveEntities(flat, cfg);
  ASSERT_EQ(got.cluster_of, want.cluster_of);
  ASSERT_EQ(got.entities.size(), want.entities.size());
  for (std::size_t e = 0; e < got.entities.size(); ++e) {
    EXPECT_EQ(got.entities[e].entity_id(), want.entities[e].entity_id());
    EXPECT_EQ(got.entities[e].tuples(), want.entities[e].tuples());
  }
}

Relation KeyRelation(const std::vector<std::string>& keys) {
  Relation r(Schema({{"key", ValueType::kString}, {"row", ValueType::kInt}}));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    r.Add(Tuple({Value::Str(keys[i]), Value::Int(static_cast<int64_t>(i))}));
  }
  return r;
}

// Keys built around random bases: each base gets variants at 0-4 random
// byte edits, so pairs land on both sides of every threshold. Bases start
// with one of a few prefixes (several blocks at block_prefix 3), draw
// from a small alphabet with upper case and non-ASCII bytes, and are mixed
// with keys of 0-2 bytes and exact duplicates.
std::vector<std::string> EditedKeys(uint32_t seed) {
  std::mt19937 rng(seed);
  const std::string alphabet = "abcdefABC \xc3\xa9\xff|";
  const std::vector<std::string> prefixes = {"", "ab", "abx", "zz"};
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto byte = [&] {
    return alphabet[pick(0, static_cast<int>(alphabet.size()) - 1)];
  };
  std::vector<std::string> keys;
  for (int b = 0; b < 12; ++b) {
    std::string base = prefixes[pick(0, 3)];
    for (int len = pick(2, 14); len > 0; --len) base.push_back(byte());
    for (int v = pick(1, 5); v > 0; --v) {
      std::string key = base;
      for (int k = pick(0, 4); k > 0; --k) {
        const int op = pick(0, 2);
        if (key.empty() || op == 0) {
          key.insert(key.begin() + pick(0, static_cast<int>(key.size())),
                     byte());
        } else {
          const int at = pick(0, static_cast<int>(key.size()) - 1);
          if (op == 1) {
            key[at] = byte();
          } else {
            key.erase(key.begin() + at);
          }
        }
      }
      keys.push_back(key);
    }
  }
  for (const char* s : {"", "", "a", "ab", "\xff", "A"}) keys.push_back(s);
  for (int d = 0; d < 6; ++d) {
    keys.push_back(keys[pick(0, static_cast<int>(keys.size()) - 1)]);
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

TEST(ResolverJoin, MatchesAllPairsOracleOnEditedKeys) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Relation flat = KeyRelation(EditedKeys(seed));
    ResolverConfig cfg;
    cfg.key_attrs = {0};
    for (int prefix : {-2, 0, 3}) {
      cfg.block_prefix = prefix;
      for (double t : kThresholds) {
        cfg.similarity_threshold = t;
        ExpectSameAsOracle(flat, cfg);
      }
    }
  }
}

TEST(ResolverJoin, EditedKeysClusterNonTrivially) {
  // Guards the oracle comparison above against vacuous inputs: at t = 0.5
  // the edited keys neither stay singletons nor collapse into one cluster.
  const Relation flat = KeyRelation(EditedKeys(1));
  ResolverConfig cfg;
  cfg.key_attrs = {0};
  cfg.similarity_threshold = 0.5;
  const std::size_t clusters = ResolveEntities(flat, cfg).entities.size();
  EXPECT_GT(clusters, 12u);
  EXPECT_LT(clusters, static_cast<std::size_t>(flat.size()) - 12);
}

TEST(ResolverJoin, ExactTieAtTheThresholdMatches) {
  // Normalized keys "abcdefg|" (6 trigrams) and "abcdefgfg|" (8, a
  // superset): Jaccard is exactly 6/8 = 0.75.
  const Relation flat = KeyRelation({"abcdefg", "abcdefgfg", "zzzz"});
  ResolverConfig cfg;
  cfg.key_attrs = {0};
  cfg.similarity_threshold = 0.75;
  ResolutionResult res = ResolveEntities(flat, cfg);
  EXPECT_EQ(res.cluster_of, (std::vector<int>{0, 0, 1}));
  ExpectSameAsOracle(flat, cfg);
  cfg.similarity_threshold = 0.7500001;
  res = ResolveEntities(flat, cfg);
  EXPECT_EQ(res.cluster_of, (std::vector<int>{0, 1, 2}));
  ExpectSameAsOracle(flat, cfg);
}

TEST(ResolverJoin, RoundedTieNeedsTheOverlapSlack) {
  // "abcdefgh|" has 7 trigrams, all inside the 25 of the second key, so
  // Jaccard is 7/25, which rounds to exactly the double 0.28 and matches.
  // But 0.28 * 25 rounds to just above 7 in double, so an overlap bound
  // of ceil(t * |x|) = 8 without slack would drop the pair.
  const Relation flat =
      KeyRelation({"abcdefgh", "abcdefghijklmnopqrstuvwxgh"});
  ResolverConfig cfg;
  cfg.key_attrs = {0};
  cfg.similarity_threshold = 0.28;
  EXPECT_EQ(ResolveEntities(flat, cfg).entities.size(), 1u);
  ExpectSameAsOracle(flat, cfg);
}

TEST(ResolverJoin, AtOrBelowZeroEveryPairMatches) {
  // No shared trigram, yet Jaccard 0 >= 0.
  const Relation flat = KeyRelation({"aaaa", "bbbb"});
  ResolverConfig cfg;
  cfg.key_attrs = {0};
  cfg.block_prefix = 0;
  for (double t : {0.0, -0.5}) {
    cfg.similarity_threshold = t;
    EXPECT_EQ(ResolveEntities(flat, cfg).entities.size(), 1u) << t;
    ExpectSameAsOracle(flat, cfg);
  }
}

TEST(ResolverJoin, NegativeBlockPrefixIsOneBlock) {
  // "xabc" and "yabc" differ in their first byte, so only one block can
  // hold them both; block_prefix <= 0 means exactly that.
  const Relation flat = KeyRelation({"xabcdefgh", "yabcdefgh"});
  ResolverConfig cfg;
  cfg.key_attrs = {0};
  cfg.similarity_threshold = 0.5;
  for (int prefix : {-1, -100, 0}) {
    cfg.block_prefix = prefix;
    EXPECT_EQ(ResolveEntities(flat, cfg).entities.size(), 1u) << prefix;
    ExpectSameAsOracle(flat, cfg);
  }
  cfg.block_prefix = 1;
  EXPECT_EQ(ResolveEntities(flat, cfg).entities.size(), 2u);
}

// `relacc gen --profile med|cfp --flat`: every generated entity's tuples
// in one relation, resolved on the `key` attribute.
Relation GeneratedFlat(ProfileConfig config, int entities) {
  config.num_entities = entities;
  config.master_size = std::max(1, entities * 8 / 10);
  const EntityDataset dataset = GenerateProfile(config);
  Relation flat(dataset.schema);
  for (const EntityInstance& entity : dataset.entities) {
    for (const Tuple& t : entity.tuples()) flat.Add(t);
  }
  return flat;
}

TEST(ResolverJoin, MatchesAllPairsOracleOnGeneratedProfiles) {
  for (uint64_t seed : {1u, 42u}) {
    for (const ProfileConfig& config : {MedConfig(seed), CfpConfig(seed)}) {
      const Relation flat = GeneratedFlat(config, 40);
      ResolverConfig cfg;
      cfg.key_attrs = {flat.schema().MustIndexOf("key")};
      for (double t : kThresholds) {
        cfg.similarity_threshold = t;
        ExpectSameAsOracle(flat, cfg);
      }
    }
  }
}

}  // namespace
}  // namespace relacc
