// The batch-pipeline phase: the `relacc pipeline --json` path, run
// untraced for end-to-end numbers and replayed call by call for the
// per-layer split.

#include <algorithm>
#include <memory>
#include <utility>

#include "api/accuracy_service.h"
#include "chase/chase_engine.h"
#include "er/resolver.h"
#include "phases.h"
#include "rules/grounding.h"
#include "serve/wire.h"
#include "topk/preference.h"
#include "topk/topk_ct.h"

namespace relbench {

using namespace relacc;

namespace {

std::string BaseDir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

/// Spec load as `relacc pipeline` does it: read the file, parse it.
SpecDocument LoadSpec(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return SpecDocument();
  Result<SpecDocument> doc = SpecFromJsonText(text.value(), BaseDir(path));
  return doc.ok() ? std::move(doc).value() : SpecDocument();
}

ResolverConfig KeyResolver(const Schema& schema) {
  ResolverConfig resolver;
  if (std::optional<AttrId> key = schema.IndexOf("key")) {
    resolver.key_attrs.push_back(*key);
  }
  return resolver;
}

/// The service `relacc pipeline` creates: the document's masters, rules
/// and chase config over an empty placeholder instance.
std::unique_ptr<AccuracyService> CreateService(const Specification& spec,
                                               int threads,
                                               CompletionPolicy completion) {
  Specification service_spec;
  service_spec.ie = Relation(spec.ie.schema());
  service_spec.masters = spec.masters;
  service_spec.rules = spec.rules;
  service_spec.config = spec.config;
  ServiceOptions options;
  options.num_threads = threads;
  options.completion = completion;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(service_spec), std::move(options));
  return service.ok() ? std::move(service).value() : nullptr;
}

/// One pipeline session over `entities`, as `relacc pipeline` runs it.
Result<PipelineReport> RunSession(AccuracyService* service,
                                  std::vector<EntityInstance> entities) {
  Result<std::unique_ptr<PipelineSession>> session = service->StartPipeline();
  if (!session.ok()) return session.status();
  Status submitted = session.value()->Submit(std::move(entities));
  if (!submitted.ok()) return submitted;
  return session.value()->Finish();
}

/// A report as `relacc pipeline --json` prints it; empty on error.
std::string ReportJson(const Result<PipelineReport>& report,
                       const Schema& schema) {
  if (!report.ok()) return "";
  return serve::PipelineReportToJson(report.value(), schema).Dump(2) + "\n";
}

/// Rule indices of each form, in specification order.
void SplitRules(const std::vector<AccuracyRule>& rules,
                std::vector<AccuracyRule>* form1, std::vector<int>* index1,
                std::vector<AccuracyRule>* form2, std::vector<int>* index2) {
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const bool master = rules[r].form == AccuracyRule::Form::kMaster;
    (master ? form2 : form1)->push_back(rules[r]);
    (master ? index2 : index1)->push_back(static_cast<int>(r));
  }
}

/// Instantiate emits rule by rule in specification order, so the
/// program over all rules is the two per-form programs interleaved back
/// by rule index (a stable sort keeps each rule's rows in order).
GroundProgram MergePrograms(GroundProgram form1, const std::vector<int>& index1,
                            GroundProgram form2, const std::vector<int>& index2,
                            const std::vector<AccuracyRule>& rules) {
  GroundProgram merged;
  merged.num_tuples = form1.num_tuples;
  merged.num_attrs = form1.num_attrs;
  for (const AccuracyRule& rule : rules) merged.rule_names.push_back(rule.name);
  merged.steps.reserve(form1.steps.size() + form2.steps.size());
  for (GroundStep& step : form1.steps) {
    step.rule_id = index1[static_cast<std::size_t>(step.rule_id)];
    merged.steps.push_back(std::move(step));
  }
  for (GroundStep& step : form2.steps) {
    step.rule_id = index2[static_cast<std::size_t>(step.rule_id)];
    merged.steps.push_back(std::move(step));
  }
  std::stable_sort(merged.steps.begin(), merged.steps.end(),
                   [](const GroundStep& a, const GroundStep& b) {
                     return a.rule_id < b.rule_id;
                   });
  return merged;
}

}  // namespace

void RunPipelinePhase(const PipelineConfig& config, int part, int parts,
                      Results* results, PipelineState* state) {
  // This part's share; the first parts take the remainders.
  const auto share = [&](int total) {
    return total / parts + (part < total % parts ? 1 : 0);
  };
  const int passes = share(config.passes);
  const int min_setups = share(config.min_setups);
  std::size_t entity_count = 0;
  int setups = 0;
  for (int pass = 0; pass < passes; ++pass, ++setups) {
    const Clock::time_point t0 = Clock::now();
    SpecDocument doc = LoadSpec(config.flat_path);
    std::unique_ptr<AccuracyService> service =
        CreateService(doc.spec, config.threads, config.completion);
    const Clock::time_point t1 = Clock::now();
    if (service == nullptr || doc.spec.ie.size() == 0) {
      results->Check(false, "pipeline: spec load or AccuracyService::Create failed");
      return;
    }
    const Schema schema = doc.spec.ie.schema();
    ResolutionResult resolution =
        ResolveEntities(doc.spec.ie, KeyResolver(schema));
    entity_count = resolution.entities.size();
    const bool first = state->pipeline_s.empty();
    if (first) state->entities = resolution.entities;
    const std::string report = ReportJson(
        RunSession(service.get(), std::move(resolution.entities)), schema);
    const Clock::time_point t2 = Clock::now();
    results->Check(report == config.reference,
                   "pipeline part " + std::to_string(part) + " pass " +
                       std::to_string(pass) +
                       ": report differs from relacc pipeline --json");
    state->setup_s.push_back(MsBetween(t0, t1) / 1000.0);
    state->pipeline_s.push_back(MsBetween(t1, t2) / 1000.0);
    if (first) state->doc = std::move(doc);
  }
  for (; setups < min_setups; ++setups) {
    const Clock::time_point t0 = Clock::now();
    SpecDocument doc = LoadSpec(config.flat_path);
    std::unique_ptr<AccuracyService> service =
        CreateService(doc.spec, config.threads, config.completion);
    state->setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    results->Check(service != nullptr, "pipeline: AccuracyService::Create failed");
  }
  if (part + 1 < parts) return;
  const Summary setup = Summary::Of(state->setup_s);
  const Summary wall = Summary::Of(state->pipeline_s);
  if (config.report_setup) results->Set("setup_s", setup.median, "s");
  results->Set("entities_per_s",
               static_cast<double>(entity_count) / wall.median, "1/s");
  results->notes.Set("pipeline_setup_s", setup.ToJson());
  results->notes.Set("pipeline_wall_s", wall.ToJson());
  results->notes.Set("entities", Json::Int(static_cast<int64_t>(entity_count)));
}

void TracePipelinePhase(const PipelineConfig& config, Tracer* tracer,
                        Results* results, PipelineState* state) {
  // --- traced replay at one thread ---------------------------------------
  SpecDocument doc = tracer->Time("io.spec_load", -1, -1, [&] {
    return LoadSpec(config.flat_path);
  });
  if (doc.spec.ie.size() == 0) {
    results->Check(false, "trace: spec load failed");
    return;
  }
  const Specification& spec = doc.spec;
  const Schema schema = spec.ie.schema();
  ResolutionResult resolution = tracer->Time("er.resolve", -1, -1, [&] {
    return ResolveEntities(spec.ie, KeyResolver(schema));
  });
  std::unique_ptr<AccuracyService> created =
      tracer->Time("api.service_create", -1, -1, [&] {
        return CreateService(spec, 1, config.completion);
      });
  results->Check(created != nullptr, "trace: AccuracyService::Create failed");

  std::vector<AccuracyRule> rules1, rules2;
  std::vector<int> index1, index2;
  SplitRules(spec.rules, &rules1, &index1, &rules2, &index2);

  int64_t steps1 = 0, steps2 = 0, complete_by_chase = 0;
  int64_t checks = 0, queue_pops = 0, accepted = 0, exhausted = 0;
  std::vector<EntityReport> reports;
  reports.reserve(resolution.entities.size());
  for (std::size_t e = 0; e < resolution.entities.size(); ++e) {
    const EntityInstance& entity = resolution.entities[e];
    const int64_t id = entity.entity_id();
    const int span = tracer->Begin("entity", -1, id);
    GroundProgram form1 = tracer->Time("rules.ground_form1", span, id, [&] {
      return Instantiate(entity, spec.masters, rules1);
    });
    GroundProgram form2 = tracer->Time("rules.ground_form2", span, id, [&] {
      return Instantiate(entity, spec.masters, rules2);
    });
    steps1 += static_cast<int64_t>(form1.steps.size());
    steps2 += static_cast<int64_t>(form2.steps.size());
    const GroundProgram program = MergePrograms(
        std::move(form1), index1, std::move(form2), index2, spec.rules);
    if (e < 4) {
      results->Check(program == Instantiate(entity, spec.masters, spec.rules),
                     "trace: per-form grounding does not merge back into "
                     "Instantiate's program");
    }
    auto engine = tracer->Time("chase.index_build", span, id, [&] {
      return std::make_unique<ChaseEngine>(entity, &program, spec.config);
    });
    const ChaseOutcome outcome = tracer->Time(
        "chase.all_null", span, id, [&] { return engine->RunFromCheckpoint(); });

    // The per-entity report exactly as the pipeline session builds it.
    EntityReport report;
    report.entity_id = id;
    report.num_tuples = entity.size();
    if (!outcome.church_rosser) {
      report.violation = outcome.violation;
    } else {
      report.church_rosser = true;
      report.deduced_attrs = outcome.target.size() - outcome.target.NullCount();
      report.target = outcome.target;
      report.complete = outcome.target.IsComplete();
      if (report.complete) ++complete_by_chase;
      if (!report.complete &&
          config.completion != CompletionPolicy::kLeaveNull) {
        const TopKResult topk = tracer->Time("topk.search", span, id, [&] {
          const PreferenceModel pref =
              PreferenceModel::FromOccurrences(entity, spec.masters);
          return config.completion == CompletionPolicy::kHeuristic
                     ? TopKCTh(*engine, spec.masters, report.target, pref, 1)
                     : TopKCT(*engine, spec.masters, report.target, pref, 1);
        });
        checks += topk.checks;
        queue_pops += topk.queue_pops;
        accepted += static_cast<int64_t>(topk.targets.size());
        if (topk.exhausted_budget) ++exhausted;
        if (!topk.targets.empty()) {
          report.target = topk.targets[0];
          report.used_candidate = true;
        }
        report.complete = report.target.IsComplete();
      }
    }
    reports.push_back(std::move(report));
    tracer->End(span);
  }

  // --- untraced runs: 1 thread (coverage) and `threads` (speedup) --------
  double wall_1t_ms = 0.0;
  double session_1t_ms = 0.0;
  Result<PipelineReport> report_1t = Status::Internal("not run");
  {
    const Clock::time_point t0 = Clock::now();
    SpecDocument doc1 = LoadSpec(config.flat_path);
    const Schema schema1 = doc1.spec.ie.schema();
    ResolutionResult res1 = ResolveEntities(doc1.spec.ie, KeyResolver(schema1));
    std::unique_ptr<AccuracyService> service =
        CreateService(doc1.spec, 1, config.completion);
    const Clock::time_point t1 = Clock::now();
    if (service) report_1t = RunSession(service.get(), std::move(res1.entities));
    const std::string out = ReportJson(report_1t, schema1);
    const Clock::time_point t2 = Clock::now();
    wall_1t_ms = MsBetween(t0, t2);
    session_1t_ms = MsBetween(t1, t2);
    results->Check(out == config.reference,
                   "trace: 1-thread report differs from relacc pipeline --json");
  }
  double session_nt_ms = 0.0;
  {
    std::unique_ptr<AccuracyService> service =
        CreateService(spec, config.threads, config.completion);
    const Clock::time_point t0 = Clock::now();
    const std::string out =
        service ? ReportJson(RunSession(service.get(), resolution.entities),
                             schema)
                : "";
    session_nt_ms = MsBetween(t0, Clock::now());
    results->Check(out == config.reference,
                   "trace: " + std::to_string(config.threads) +
                       "-thread report differs from relacc pipeline --json");
  }

  // The replay must reproduce the library's per-entity reports (the
  // 1-thread session's, itself checked against the reference above).
  std::size_t replay_mismatches = 0;
  if (report_1t.ok() && report_1t.value().entities.size() == reports.size()) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (serve::EntityReportToJson(reports[i], schema).Dump() !=
          serve::EntityReportToJson(report_1t.value().entities[i], schema)
              .Dump()) {
        ++replay_mismatches;
      }
    }
  } else {
    replay_mismatches = reports.size() + 1;
  }
  results->Check(replay_mismatches == 0,
                 "trace: " + std::to_string(replay_mismatches) +
                     " replayed entity reports differ from the pipeline "
                     "session's");
  if (report_1t.ok()) {
    tracer->Time("wire.report_encode", -1, -1, [&] {
      return serve::PipelineReportToJson(report_1t.value(), schema).Dump(2);
    });
  }

  const double ground1 = tracer->TotalMs("rules.ground_form1");
  const double ground2 = tracer->TotalMs("rules.ground_form2");
  const double index = tracer->TotalMs("chase.index_build");
  const double all_null = tracer->TotalMs("chase.all_null");
  const double search = tracer->TotalMs("topk.search");
  const std::vector<double> per_entity_search = tracer->DurationsMs("topk.search");
  const double layers = tracer->TotalMs("io.spec_load") +
                        tracer->TotalMs("er.resolve") +
                        tracer->TotalMs("api.service_create") + ground1 +
                        ground2 + index + all_null + search +
                        tracer->TotalMs("wire.report_encode");

  results->Set("io.spec_load_ms", tracer->TotalMs("io.spec_load"), "ms");
  results->Set("io.dictionary_terms",
               doc.dict ? static_cast<double>(doc.dict->size()) : 0.0, "count");
  results->Set("er.resolve_ms", tracer->TotalMs("er.resolve"), "ms");
  results->Set("er.tuples", static_cast<double>(spec.ie.size()), "count");
  results->Set("er.clusters", static_cast<double>(resolution.entities.size()),
               "count");
  results->Set("rules.ground_form1_ms", ground1, "ms");
  results->Set("rules.ground_form2_ms", ground2, "ms");
  results->Set("rules.steps_form1", static_cast<double>(steps1), "count");
  results->Set("rules.steps_form2", static_cast<double>(steps2), "count");
  results->Set("chase.index_build_ms", index, "ms");
  results->Set("chase.all_null_ms", all_null, "ms");
  results->Set("chase.complete_entities", static_cast<double>(complete_by_chase),
               "count");
  results->Set("topk.search_ms", search, "ms");
  results->Set("topk.checks", static_cast<double>(checks), "count");
  results->Set("topk.queue_pops", static_cast<double>(queue_pops), "count");
  results->Set("topk.accept_ratio",
               checks > 0 ? static_cast<double>(accepted) /
                                static_cast<double>(checks)
                          : 0.0,
               "ratio");
  results->Set("topk.exhausted_entities", static_cast<double>(exhausted), "count");
  results->Set("topk.max_entity_ms",
               per_entity_search.empty()
                   ? 0.0
                   : *std::max_element(per_entity_search.begin(),
                                       per_entity_search.end()),
               "ms");
  results->Set("topk.us_per_check",
               checks > 0 ? search * 1000.0 / static_cast<double>(checks) : 0.0,
               "us");
  results->Set("api.service_create_ms", tracer->TotalMs("api.service_create"),
               "ms");
  results->Set("api.session_ms", session_1t_ms, "ms");
  results->Set("api.parallel_speedup",
               (ground1 + ground2 + index + all_null + search) / session_nt_ms,
               "ratio");
  results->Set("wire.report_encode_ms", tracer->TotalMs("wire.report_encode"),
               "ms");
  results->Set("trace.coverage", layers / wall_1t_ms, "ratio");
  results->notes.Set("untraced_1t_wall_ms", Json::Real(wall_1t_ms));
  results->notes.Set("untraced_session_ms_at_threads", Json::Real(session_nt_ms));
  results->notes.Set("traced_layer_sum_ms", Json::Real(layers));

  state->entities = std::move(resolution.entities);
  state->doc = std::move(doc);
}

void RecordInputSizes(const PipelineState& state, Results* results) {
  const Specification& spec = state.doc.spec;
  int64_t master_rows = 0;
  for (const Relation& m : spec.masters) master_rows += m.size();
  int64_t ground_steps = 0;
  for (const EntityInstance& entity : state.entities) {
    ground_steps += static_cast<int64_t>(
        Instantiate(entity, spec.masters, spec.rules).steps.size());
  }
  Json inputs = Json::Object();
  inputs.Set("tuples", Json::Int(spec.ie.size()));
  inputs.Set("entities", Json::Int(static_cast<int64_t>(state.entities.size())));
  inputs.Set("master_rows", Json::Int(master_rows));
  inputs.Set("rules", Json::Int(static_cast<int64_t>(spec.rules.size())));
  inputs.Set("ground_steps", Json::Int(ground_steps));
  results->notes.Set("inputs", std::move(inputs));
}

double PeakRssMb(const std::string& proc_status) {
  std::FILE* f = std::fopen(proc_status.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace relbench
