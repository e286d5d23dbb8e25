// Tests for the dictionary-encoded storage layer (core/dictionary.h,
// core/columnar.h): TermId equality must coincide with Value equality
// (including the numeric cross-type classes), FromRelation/ToRelation
// must round-trip exactly, and grounding over the encoded columns must
// produce the reference program (tests/oracle/) step for step.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "datagen/profile_generator.h"
#include "oracle/reference_grounding.h"
#include "rules/grounding.h"

namespace relacc {
namespace {

EntityDataset SmallMed(uint64_t seed = 5, int entities = 24,
                       double corruption = -1.0) {
  ProfileConfig config = MedConfig(seed);
  config.num_entities = entities;
  config.master_size = 45;
  if (corruption >= 0.0) config.free_corruption_prob = corruption;
  return GenerateProfile(config);
}

Specification SpecOf(const EntityDataset& ds, Relation ie) {
  Specification spec;
  spec.ie = std::move(ie);
  spec.masters = ds.masters;
  spec.rules = ds.rules;
  spec.config = ds.chase_config;
  return spec;
}

std::unique_ptr<AccuracyService> MakeService(Specification spec,
                                             ServiceOptions options) {
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

// --- dictionary ------------------------------------------------------------

TEST(DictionaryTest, NullAndBasicInterning) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern(Value::Null()), kNullTermId);
  const TermId a = dict.Intern(Value::Str("alpha"));
  const TermId b = dict.Intern(Value::Str("beta"));
  EXPECT_NE(a, kNullTermId);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(Value::Str("alpha")), a);
  EXPECT_EQ(dict.value(a), Value::Str("alpha"));
  EXPECT_EQ(dict.value(kNullTermId), Value::Null());
}

TEST(DictionaryTest, NumericCrossTypeClassesShareOneId) {
  // Value::operator== is cross-type numeric (Int(3) == Real(3.0)) and
  // ValueHash collides the classes on purpose; the dictionary must give
  // the whole class ONE id so id equality is value equality.
  Dictionary dict;
  const TermId i3 = dict.Intern(Value::Int(3));
  EXPECT_EQ(dict.Intern(Value::Real(3.0)), i3);
  EXPECT_NE(dict.Intern(Value::Real(3.5)), i3);
  EXPECT_NE(dict.Intern(Value::Str("3")), i3);
  // The representative is whichever member was interned first; it is
  // ==-equal to every member of the class.
  EXPECT_EQ(dict.value(i3), Value::Int(3));
  EXPECT_EQ(dict.value(i3), Value::Real(3.0));
}

TEST(DictionaryTest, IdEqualityMatchesValueEqualityAndHash) {
  Dictionary dict;
  const std::vector<Value> values = {
      Value::Int(0),     Value::Real(0.0),   Value::Int(7),
      Value::Real(7.5),  Value::Str("7"),    Value::Str(""),
      Value::Bool(true), Value::Bool(false), Value::Int(-2),
      Value::Real(-2.0)};
  std::vector<TermId> ids;
  ids.reserve(values.size());
  for (const Value& v : values) ids.push_back(dict.Intern(v));
  ValueHash hash;
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      EXPECT_EQ(ids[i] == ids[j], values[i] == values[j])
          << values[i].ToString() << " vs " << values[j].ToString();
      if (values[i] == values[j]) {
        EXPECT_EQ(hash(values[i]), hash(values[j]));
      }
    }
  }
}

TEST(DictionaryTest, ConcurrentInterningYieldsConsistentIds) {
  // Hammer one dictionary from several threads with an overlapping value
  // set; every thread must observe the same Value -> id mapping.
  Dictionary dict;
  constexpr int kThreads = 4;
  constexpr int kValues = 500;
  std::vector<std::vector<TermId>> seen(kThreads,
                                        std::vector<TermId>(kValues));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dict, &seen, t] {
      for (int v = 0; v < kValues; ++v) {
        // Interleave types so the numeric classes race too.
        seen[t][v] = (v % 2 == 0) ? dict.Intern(Value::Int(v / 2))
                                  : dict.Intern(Value::Real((v - 1) / 2.0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
  // Even v and the following odd v are the same numeric class.
  for (int v = 0; v + 1 < kValues; v += 2) {
    EXPECT_EQ(seen[0][v], seen[0][v + 1]);
  }
}

// --- columnar round-trip ---------------------------------------------------

TEST(ColumnarRoundTrip, MedProfileIsIdentity) {
  const EntityDataset ds = SmallMed();
  Dictionary dict;
  for (const EntityInstance& e : ds.entities) {
    const ColumnarRelation col = ColumnarRelation::FromRelation(e, &dict);
    const Relation back = col.ToRelation();
    ASSERT_EQ(back.size(), e.size());
    for (int i = 0; i < e.size(); ++i) {
      for (AttrId a = 0; a < ds.schema.size(); ++a) {
        const Value& orig = e.tuple(i).at(a);
        const Value& got = back.tuple(i).at(a);
        EXPECT_EQ(got, orig);
        // Not merely ==-equal: the schema-typed cell comes back with its
        // exact representation.
        EXPECT_EQ(got.type(), orig.type());
      }
      EXPECT_EQ(back.tuple(i).id(), e.tuple(i).id());
      EXPECT_EQ(back.tuple(i).source(), e.tuple(i).source());
      EXPECT_EQ(back.tuple(i).snapshot(), e.tuple(i).snapshot());
    }
  }
}

TEST(ColumnarRoundTrip, EmptyRelation) {
  const EntityDataset ds = SmallMed();
  Dictionary dict;
  const Relation empty(ds.schema);
  const ColumnarRelation col = ColumnarRelation::FromRelation(empty, &dict);
  EXPECT_TRUE(col.empty());
  EXPECT_EQ(col.ToRelation().size(), 0);
}

TEST(ColumnarRoundTrip, ForeignRepresentativeCoercesBackToSchemaType) {
  // Pre-intern Real(3.0) so the class representative is a double, then
  // round-trip an int-typed cell of the same class: MaterializeAs must
  // hand back Int(3), not the double representative.
  const Schema schema({{"x", ValueType::kInt}});
  Dictionary dict;
  ASSERT_NE(dict.Intern(Value::Real(3.0)), kNullTermId);
  Relation rel(schema);
  rel.Add(Tuple({Value::Int(3)}));
  const ColumnarRelation col = ColumnarRelation::FromRelation(rel, &dict);
  const Relation back = col.ToRelation();
  EXPECT_EQ(back.tuple(0).at(0), Value::Int(3));
  EXPECT_EQ(back.tuple(0).at(0).type(), ValueType::kInt);
}

// --- columnar grounding ----------------------------------------------------

TEST(ColumnarGrounding, ProgramIdenticalToRowSerialAndSharded) {
  const EntityDataset ds = SmallMed(/*seed=*/11, /*entities=*/8);
  Dictionary dict;
  for (const EntityInstance& e : ds.entities) {
    const GroundProgram reference =
        oracle::ReferenceInstantiate(e, ds.masters, ds.rules);
    const ColumnarRelation col = ColumnarRelation::FromRelation(e, &dict);
    const GroundProgram serial = Instantiate(col, ds.masters, ds.rules);
    EXPECT_TRUE(serial == reference);
    const GroundProgram sharded =
        Instantiate(col, ds.masters, ds.rules, /*num_shards=*/4);
    EXPECT_TRUE(sharded == reference);
  }
}

// --- service dictionary ---------------------------------------------------

TEST(ColumnarService, SpecDocumentDictionaryIsShared) {
  // The service accepts a caller-provided dictionary (as the CLI passes
  // the parse-time one) and keeps interning into it.
  const EntityDataset ds = SmallMed(/*seed=*/23, /*entities=*/4);
  auto dict = std::make_shared<Dictionary>();
  const std::size_t before = dict->size();
  ServiceOptions options;
  options.dictionary = dict;
  auto service = MakeService(SpecOf(ds, ds.entities[0]), options);
  Result<ChaseOutcome> outcome = service->DeduceEntity();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(service->dictionary(), dict.get());
  EXPECT_GT(dict->size(), before);
}

}  // namespace
}  // namespace relacc
