// relbench_harness: runs one benchmark workload over inputs that
// run.py generated, and prints one JSON document with every metric it
// measured (value and unit), the operation ledger and notes.
//
//   relbench_harness --flat F --snapshot S --reference R --relacc BIN
//       --work-dir D --seed N --completion heuristic|best --threads N
//       --passes N --base-rate R --base-seconds S --serve-setup 0|1
//       --trace 0|1 [--trace-out F]
//
// Every flag but --trace-out is required; run.py's WORKLOADS table holds
// the values of each workload. --base-rate 0 skips the serve phase.
// Exit code 0 when every output check passed, 1 otherwise, 2 on a usage
// error.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "phases.h"

namespace {

using relacc::Json;

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    args[key] = argv[i + 1];
  }
  return args;
}

relacc::CompletionPolicy ParseCompletion(const std::string& name) {
  if (name == "best") return relacc::CompletionPolicy::kBestCandidate;
  if (name == "none") return relacc::CompletionPolicy::kLeaveNull;
  return relacc::CompletionPolicy::kHeuristic;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args = ParseArgs(argc, argv);
  const auto get = [&](const std::string& key) {
    auto it = args.find(key);
    if (it == args.end()) {
      std::fprintf(stderr, "relbench_harness: missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  };
  const bool trace = get("trace") == "1";

  relbench::PipelineConfig pipeline;
  pipeline.flat_path = get("flat");
  relacc::Result<std::string> reference = relacc::ReadFile(get("reference"));
  if (!reference.ok()) {
    std::fprintf(stderr, "relbench_harness: cannot read --reference\n");
    return 2;
  }
  pipeline.reference = reference.value();
  pipeline.completion = ParseCompletion(get("completion"));
  pipeline.threads = std::stoi(get("threads"));
  pipeline.passes = std::stoi(get("passes"));

  relbench::ServeConfig serve;
  serve.relacc_bin = get("relacc");
  serve.snapshot = get("snapshot");
  serve.work_dir = get("work-dir");
  serve.reference = pipeline.reference;
  serve.completion = get("completion");
  serve.seed = std::stoull(get("seed"));
  serve.base_rate = std::stod(get("base-rate"));
  serve.base_seconds = std::stod(get("base-seconds"));
  const bool serve_setup = get("serve-setup") == "1";
  pipeline.report_setup = !serve_setup;

  relbench::Results results;
  relbench::PipelineState state;
  relbench::Tracer tracer;
  // Untraced, the pipeline passes come in two parts, before and after the
  // serve phase, so entities_per_s samples the machine across the run.
  const bool serve_phase = serve.base_rate > 0.0;
  const int parts = serve_phase ? 2 : 1;
  if (trace) {
    relbench::TracePipelinePhase(pipeline, &tracer, &results, &state);
  } else {
    relbench::RunPipelinePhase(pipeline, 0, parts, &results, &state);
    if (!serve_setup) {
      results.Set("peak_rss_mb", relbench::PeakRssMb("/proc/self/status"), "MB");
    }
  }
  if (results.failed == 0 && serve_phase) {
    relbench::RunServePhase(serve, state, serve_setup, trace ? &tracer : nullptr,
                            &results);
  }
  if (!trace && parts > 1 && results.failed == 0) {
    relbench::RunPipelinePhase(pipeline, 1, parts, &results, &state);
  }
  relbench::RecordInputSizes(state, &results);
  if (trace && args.count("trace-out") > 0) {
    tracer.WriteJsonLines(args["trace-out"]);
  }

  Json metrics = Json::Object();
  for (const auto& [name, value] : results.metrics) {
    Json m = Json::Object();
    m.Set("value", Json::Real(value.first));
    m.Set("unit", Json::Str(value.second));
    metrics.Set(name, std::move(m));
  }
  Json errors = Json::Array();
  for (const std::string& e : results.errors) errors.Append(Json::Str(e));
  Json out = Json::Object();
  out.Set("attempted", Json::Int(results.attempted));
  out.Set("failed", Json::Int(results.failed));
  out.Set("errors", std::move(errors));
  out.Set("metrics", std::move(metrics));
  out.Set("notes", std::move(results.notes));
  std::printf("%s\n", out.Dump().c_str());
  return results.failed == 0 ? 0 : 1;
}
