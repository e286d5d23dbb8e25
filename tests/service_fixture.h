#ifndef RELACC_TESTS_SERVICE_FIXTURE_H_
#define RELACC_TESTS_SERVICE_FIXTURE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "datagen/dataset.h"
#include "framework/framework.h"

// Test helpers that reach the library through AccuracyService the way
// callers do: one service per call, one session per run.

namespace relacc {
namespace testing_fixture {

/// The Fig. 3 loop over `spec`'s own entity instance: a service with a
/// `threads`-wide budget, one interaction session suggesting `k`
/// candidates per round, driven by `user`.
inline FrameworkResult DriveOwnEntity(const Specification& spec,
                                      UserOracle* user, int k = 15,
                                      int threads = 1) {
  ServiceOptions options;
  options.num_threads = threads;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(spec, std::move(options));
  if (!service.ok()) {
    ADD_FAILURE() << service.status().ToString();
    return {};
  }
  InteractionOptions session_options;
  session_options.k = k;
  Result<std::unique_ptr<InteractionSession>> session =
      service.value()->StartInteraction(std::move(session_options));
  if (!session.ok()) {
    ADD_FAILURE() << session.status().ToString();
    return {};
  }
  return DriveInteraction(*session.value(), user);
}

/// AccuracyService::CheckCandidates over `spec` under a `threads`-wide
/// budget; empty (after recording the failure) on a service error.
inline std::vector<char> ServiceVerdicts(const Specification& spec,
                                         const std::vector<Tuple>& candidates,
                                         int threads) {
  ServiceOptions options;
  options.num_threads = threads;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(spec, std::move(options));
  if (!service.ok()) {
    ADD_FAILURE() << service.status().ToString();
    return {};
  }
  Result<std::vector<char>> verdicts =
      service.value()->CheckCandidates(candidates);
  if (!verdicts.ok()) {
    ADD_FAILURE() << verdicts.status().ToString();
    return {};
  }
  return std::move(verdicts).value();
}

/// A pipeline service specification over a generated dataset: its
/// masters, rules and chase config. The relation only fixes the schema;
/// the entities are streamed through a session.
inline Specification PipelineSpec(const EntityDataset& ds) {
  Specification spec;
  spec.ie = Relation(ds.schema);
  spec.masters = ds.masters;
  spec.rules = ds.rules;
  spec.config = ds.chase_config;
  return spec;
}

/// Streams `entities` through one pipeline session of a new service over
/// `spec`, submitted in a single call, and returns the finished report.
inline PipelineReport RunPipelineSession(
    Specification spec, const std::vector<EntityInstance>& entities,
    ServiceOptions options = {}, PipelineSessionOptions session_options = {}) {
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), std::move(options));
  if (!service.ok()) {
    ADD_FAILURE() << service.status().ToString();
    return {};
  }
  Result<std::unique_ptr<PipelineSession>> session =
      service.value()->StartPipeline(std::move(session_options));
  if (!session.ok()) {
    ADD_FAILURE() << session.status().ToString();
    return {};
  }
  const Status submitted = session.value()->Submit(entities);
  EXPECT_TRUE(submitted.ok()) << submitted.ToString();
  Result<PipelineReport> report = session.value()->Finish();
  if (!report.ok()) {
    ADD_FAILURE() << report.status().ToString();
    return {};
  }
  return std::move(report).value();
}

/// The fixed reference that streamed pipeline configurations are compared
/// with: budget 1, one window holding the whole stream, one Submit.
inline PipelineReport ReferencePipelineReport(
    Specification spec, const std::vector<EntityInstance>& entities,
    CompletionPolicy completion = CompletionPolicy::kBestCandidate) {
  ServiceOptions options;
  options.num_threads = 1;
  options.window = std::max<int64_t>(1, static_cast<int64_t>(entities.size()));
  options.completion = completion;
  return RunPipelineSession(std::move(spec), entities, std::move(options));
}

/// Every observable field of a PipelineReport except `plan`, which echoes
/// the thread budget by design: "byte identical" means these strings
/// match.
inline std::string SerializeReport(const PipelineReport& r) {
  std::ostringstream os;
  for (const EntityReport& e : r.entities) {
    os << e.entity_id << '|' << e.num_tuples << '|' << e.church_rosser
       << '|' << e.complete << '|' << e.used_candidate << '|'
       << e.deduced_attrs << '|' << e.target.ToString() << '|'
       << e.violation << '\n';
  }
  os << r.targets.ToCsv();
  os << "rows ";
  for (int i : r.row_entity) os << i << ',';
  os << '\n'
     << r.total_tuples << ' ' << r.num_church_rosser << ' '
     << r.num_complete_by_chase << ' ' << r.num_completed_by_candidates
     << ' ' << r.num_incomplete << ' ' << r.num_non_church_rosser << ' '
     << r.deduced_attr_fraction;
  return os.str();
}

}  // namespace testing_fixture
}  // namespace relacc

#endif  // RELACC_TESTS_SERVICE_FIXTURE_H_
