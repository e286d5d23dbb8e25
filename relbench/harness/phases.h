#ifndef RELBENCH_HARNESS_PHASES_H_
#define RELBENCH_HARNESS_PHASES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/relation.h"
#include "io/spec_io.h"
#include "pipeline/pipeline.h"

namespace relbench {

/// Inputs of the in-process batch pipeline: the path `relacc pipeline
/// <flat> --key key --threads N --completion C --json` takes.
struct PipelineConfig {
  std::string flat_path;   ///< flat spec document (relacc gen --flat)
  std::string reference;   ///< bytes `relacc pipeline --json` printed
  relacc::CompletionPolicy completion = relacc::CompletionPolicy::kHeuristic;
  int threads = 4;
  int passes = 3;          ///< untraced full passes
  int min_setups = 15;     ///< setup samples behind setup_s
  bool report_setup = true;  ///< false: the serve phase's daemon start is setup_s
};

/// What the pipeline phase hands on to the serve phase.
struct PipelineState {
  relacc::SpecDocument doc;
  std::vector<relacc::EntityInstance> entities;  ///< resolved, input order
  std::vector<double> setup_s;     ///< untraced set-up samples so far
  std::vector<double> pipeline_s;  ///< untraced pass wall times so far
};

/// Untraced: repeated full passes (spec load + Create = setup; ER +
/// session + report encoding = pipeline), every report checked against
/// the reference. The passes and set-ups of `config` are split
/// into `parts` calls (part 0 .. parts-1) that the caller spreads over
/// the run, so the samples see the machine across all of it; the last
/// part sets entities_per_s (and, with report_setup, setup_s) from every
/// sample.
void RunPipelinePhase(const PipelineConfig& config, int part, int parts,
                      Results* results, PipelineState* state);

/// Traced: replays the pipeline at one thread with a span around every
/// public layer call, then runs it untraced at 1 and at `threads`
/// threads for coverage and parallel speedup. Sets the io, er, rules,
/// chase, topk, api and wire.report_encode_ms per-layer metrics.
void TracePipelinePhase(const PipelineConfig& config, Tracer* tracer,
                        Results* results, PipelineState* state);

/// Inputs of the serve phase: a `relacc serve` daemon warm-started
/// from `snapshot` under an open-loop deduce stream plus one closed-loop
/// batch tenant. The deployment (replicas, threads, batch window) and
/// the ladder's shape are constants of serve_phase.cc, the same for
/// every workload.
struct ServeConfig {
  std::string relacc_bin;   ///< the relacc CLI to launch
  std::string snapshot;     ///< artifact the replicas open
  std::string work_dir;     ///< the daemon log goes here
  std::string reference;    ///< expected pipeline.finish document
  std::string completion = "heuristic";
  uint64_t seed = 1;
  double base_rate = 0.0;     ///< first ladder rate; deduce_p50/p99 come from it
  double base_seconds = 0.0;  ///< base-rate step length
};

/// Runs the serve phase over `state->entities`. Sets deduce_p50_ms,
/// deduce_p99_ms, deduce_max_rps and batch_entities_per_s; with
/// `serve_setup` also setup_s (daemon start until it answers) and
/// peak_rss_mb (the daemon's, read after the base step, before the
/// climb overloads it on purpose). With a tracer it also replays the
/// deduce and batch-window calls directly and sets the serve, wire,
/// snapshot, rules and chase per-layer metrics of the serve path.
void RunServePhase(const ServeConfig& config, const PipelineState& state,
                   bool serve_setup, Tracer* tracer, Results* results);

/// Notes the input sizes behind a result (tuples, entities, master
/// rows, rules, ground steps) for the result stamp.
void RecordInputSizes(const PipelineState& state, Results* results);

/// Peak resident set (VmHWM) in MiB of the process whose
/// /proc/<pid>/status file is given.
double PeakRssMb(const std::string& proc_status);

}  // namespace relbench

#endif  // RELBENCH_HARNESS_PHASES_H_
