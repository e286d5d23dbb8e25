// The serve phase: a `relacc serve` daemon under an open-loop deduce
// stream at a ladder of fixed rates, with one closed-loop batch tenant
// streaming every resolved entity through pipeline.start/submit/finish.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>

#include "api/accuracy_service.h"
#include "chase/chase_engine.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "phases.h"
#include "rules/grounding.h"
#include "serve/client.h"
#include "serve/wire.h"

extern char** environ;

namespace relbench {

using namespace relacc;

namespace {

// The deployment and the ladder, the same for every workload.
constexpr int kReplicas = 2;  // replicas x threads <= nproc (4)
constexpr int kReplicaThreads = 1;
constexpr int kBatchWindow = 1;  // README.md, "Why the batch window is 1"
constexpr double kWarmupSeconds = 1.0;  // unrecorded lead-in at the base rate
constexpr double kStepSeconds = 0.5;    // every climb step
constexpr double kLadderRatio = 1.15;   // a step's rate over the one before
constexpr int kLadderMaxSteps = 24;     // per climb: up to base x 1.15^24
constexpr int kLadderStopAfter = 2;     // consecutive failed steps end a climb
constexpr int kClimbs = 5;              // deduce_max_rps is their median
constexpr int kRestartBelow = 3;        // later climbs start 1.15^3 below it
// A passing step's p99 bound. On a shared virtual machine, vCPU stalls
// put tens of milliseconds into the tail at any rate, so the limit sits
// above them; overload is caught by the backlog test below.
constexpr double kLatencyLimitMs = 100.0;
// A passing step's backlog may grow by at most this much work (requests
// at the step's rate): about 7% overload over a 0.5 s step.
constexpr double kBacklogGrowthMs = 25.0;
constexpr int kSetupStarts = 15;  // daemon starts behind a serve setup_s

/// A `relacc serve` child process. Stop() drains it with SIGTERM and
/// waits; the destructor kills and reaps a daemon that was not stopped.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdout_ >= 0) ::close(stdout_);
  }

  /// Spawns the daemon and blocks until it answers a ping; returns the
  /// milliseconds that took, or a negative value on failure. Readiness
  /// is the listening line on the daemon's standard output, read as it
  /// is written (no polling), then one ping.
  double Start(const ServeConfig& config) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return -1.0;
    std::vector<std::string> args = {
        config.relacc_bin, "serve",
        "--snapshot", config.snapshot,
        "--snapshot-strict",
        "--replicas", std::to_string(kReplicas),
        "--threads", std::to_string(kReplicaThreads),
        "--port", "0"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = config.work_dir + "/serve.log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const Clock::time_point t0 = Clock::now();
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    stdout_ = pipe_fds[0];
    if (rc != 0) {
      pid_ = -1;
      return -1.0;
    }
    // "relacc serve listening on <host>:<port> (N replicas)"
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd p{stdout_, POLLIN, 0};
      if (::poll(&p, 1, 60000) <= 0) return -1.0;
      char buf[256];
      const ssize_t got = ::read(stdout_, buf, sizeof(buf));
      if (got <= 0) return -1.0;  // exited before it became ready
      line.append(buf, static_cast<std::size_t>(got));
    }
    const std::size_t colon = line.rfind(':', line.find(" ("));
    if (line.rfind("relacc serve listening on ", 0) != 0 ||
        colon == std::string::npos) {
      return -1.0;
    }
    port_ = std::atoi(line.c_str() + colon + 1);
    Result<std::unique_ptr<serve::ServeClient>> client =
        serve::ServeClient::Connect("127.0.0.1", port_);
    if (!client.ok() || !client.value()->Call("ping", Json::Object()).ok()) {
      return -1.0;
    }
    return MsBetween(t0, Clock::now());
  }

  /// SIGTERM, then wait for the drain. True on a clean exit 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return done > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdout_ = -1;  ///< read end of the daemon's standard output
  int port_ = 0;
};

/// A blocking call that honours the server's backpressure: a
/// resource-exhausted answer is retried after its retry_after_ms.
Result<Json> CallWithRetry(serve::ServeClient* client, const std::string& method,
                           const Json& params, std::atomic<int64_t>* retries) {
  for (;;) {
    Result<Json> result = client->Call(method, params);
    if (result.ok() ||
        result.status().code() != StatusCode::kResourceExhausted ||
        client->last_retry_after_ms() < 0) {
      return result;
    }
    retries->fetch_add(1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(client->last_retry_after_ms()));
  }
}

/// One open-loop deduce request in flight.
struct Request {
  Clock::time_point due;
  int entity = 0;
  int step = 0;
};

/// The open-loop generator's shared state between the sender (the
/// calling thread) and the receiver thread.
struct Stream {
  std::mutex mu;
  std::unordered_map<int64_t, Request> inflight;
  std::deque<std::pair<Clock::time_point, Request>> retry;  ///< by time
  std::vector<std::vector<double>> latency_ms;  ///< per slot (step)
  std::vector<int64_t> step_failed;             ///< per slot
  int64_t retries = 0;
  std::vector<std::string> errors;
};

void ReceiveLoop(int fd, const std::vector<std::string>* expected,
                 Stream* stream) {
  std::string payload;
  for (;;) {
    Result<bool> got = serve::ReadFrame(fd, &payload);
    if (!got.ok() || !got.value()) return;
    const Clock::time_point now = Clock::now();
    Result<Json> frame = Json::Parse(payload);
    if (!frame.ok()) continue;
    const Json* id = frame.value().Find("id");
    const Json* ok = frame.value().Find("ok");
    if (id == nullptr || ok == nullptr || !id->is_int()) continue;
    std::lock_guard<std::mutex> lock(stream->mu);
    auto it = stream->inflight.find(id->as_int());
    if (it == stream->inflight.end()) continue;
    const Request req = it->second;
    stream->inflight.erase(it);
    const std::size_t step = static_cast<std::size_t>(req.step);
    if (ok->is_bool() && ok->as_bool()) {
      const Json* result = frame.value().Find("result");
      if (result == nullptr ||
          result->Dump() != (*expected)[static_cast<std::size_t>(req.entity)]) {
        ++stream->step_failed[step];
        if (stream->errors.size() < 5) {
          stream->errors.push_back("deduce response differs from a direct "
                                   "DeduceEntity on entity " +
                                   std::to_string(req.entity));
        }
        continue;
      }
      stream->latency_ms[step].push_back(MsBetween(req.due, now));
      continue;
    }
    const Json* error = frame.value().Find("error");
    const Json* code = error != nullptr ? error->Find("code") : nullptr;
    const Json* after = error != nullptr ? error->Find("retry_after_ms") : nullptr;
    if (code != nullptr && code->is_string() &&
        code->as_string() == "resource-exhausted" && after != nullptr &&
        after->is_int()) {
      ++stream->retries;
      const auto when = now + std::chrono::milliseconds(after->as_int());
      auto pos = stream->retry.begin();
      while (pos != stream->retry.end() && pos->first <= when) ++pos;
      stream->retry.insert(pos, {when, req});
      continue;
    }
    ++stream->step_failed[step];
    if (stream->errors.size() < 5) {
      stream->errors.push_back("deduce failed: " + payload.substr(0, 200));
    }
  }
}

/// Sends one deduce frame for `req` and registers it as in flight.
bool SendDeduce(int fd, int64_t id, const Request& req,
                const std::vector<std::string>& entity_json, Stream* stream) {
  {
    std::lock_guard<std::mutex> lock(stream->mu);
    stream->inflight[id] = req;
  }
  const std::string payload =
      "{\"id\":" + std::to_string(id) +
      ",\"method\":\"deduce\",\"params\":{\"entity\":" +
      entity_json[static_cast<std::size_t>(req.entity)] + "}}";
  return serve::WriteFrame(fd, payload).ok();
}

/// Outcome of the ladder for one rate step.
struct StepResult {
  int climb = -1;  ///< -1 for the base-rate step
  double rate = 0.0;
  Summary latency;
  int64_t failed = 0;
  bool backlog_grew = false;
  bool passed = false;
};

/// Per-request time split of a direct deduce, replayed with the calls
/// AccuracyService::DeduceEntity makes on a snapshot (columnar) service.
struct DeduceSplit {
  std::vector<double> rules_ms;
  std::vector<double> chase_ms;
};

void ReplayDeduce(const EntityInstance& entity, const Specification& spec,
                  const std::vector<AccuracyRule>& form1,
                  const std::vector<AccuracyRule>& form2, Tracer* tracer,
                  int parent, DeduceSplit* split) {
  const int64_t id = entity.entity_id();
  Dictionary dict;
  const ColumnarRelation cie = ColumnarRelation::FromRelation(entity, &dict);
  const int r1 = tracer->Begin("serve.deduce_ground_form1", parent, id);
  const GroundProgram p1 = Instantiate(cie, spec.masters, form1);
  tracer->End(r1);
  const int r2 = tracer->Begin("serve.deduce_ground_form2", parent, id);
  const GroundProgram p2 = Instantiate(cie, spec.masters, form2);
  tracer->End(r2);
  // The engine needs the program over all rules; that grounding is not
  // part of the split (it repeats the two spans above).
  const GroundProgram program = Instantiate(cie, spec.masters, spec.rules);
  const int c1 = tracer->Begin("serve.deduce_index_build", parent, id);
  ChaseEngine engine(cie, &program, spec.config);
  tracer->End(c1);
  const int c2 = tracer->Begin("serve.deduce_chase", parent, id);
  const ChaseOutcome outcome = engine.RunFromInitial();
  tracer->End(c2);
  (void)outcome;
  const auto ms = [&](int span) {
    const Span& s = tracer->spans()[static_cast<std::size_t>(span)];
    return s.end_ms - s.start_ms;
  };
  split->rules_ms.push_back(ms(r1) + ms(r2));
  split->chase_ms.push_back(ms(c1) + ms(c2));
}

int64_t StatInt(const Json& stats, const std::string& key) {
  Result<int64_t> v = stats.GetInt(key);
  return v.ok() ? v.value() : -1;
}

}  // namespace

void RunServePhase(const ServeConfig& config, const PipelineState& state,
                   bool serve_setup, Tracer* tracer, Results* results) {
  const Schema& schema = state.doc.spec.ie.schema();
  const std::vector<EntityInstance>& entities = state.entities;
  if (entities.empty() || config.base_rate <= 0.0) {
    results->Check(false, "serve: no resolved entities, or no base rate");
    return;
  }

  // --- expected responses: a direct DeduceEntity per entity ---------------
  ServiceOptions direct_options;
  direct_options.num_threads = 1;
  direct_options.snapshot_path = config.snapshot;
  const Clock::time_point open0 = Clock::now();
  Result<std::unique_ptr<AccuracyService>> direct =
      AccuracyService::Create(Specification(), direct_options);
  const double open_ms = MsBetween(open0, Clock::now());
  if (!direct.ok()) {
    results->Check(false, "serve: snapshot open failed: " +
                              direct.status().ToString());
    return;
  }
  std::vector<std::string> expected;
  std::vector<std::string> entity_json;
  std::vector<double> exec_ms;
  DeduceSplit split;
  std::vector<AccuracyRule> form1, form2;
  for (const AccuracyRule& rule : state.doc.spec.rules) {
    (rule.form == AccuracyRule::Form::kMaster ? form2 : form1).push_back(rule);
  }
  for (std::size_t e = 0; e < entities.size(); ++e) {
    const Clock::time_point t0 = Clock::now();
    Result<ChaseOutcome> outcome = direct.value()->DeduceEntity(entities[e]);
    exec_ms.push_back(MsBetween(t0, Clock::now()));
    expected.push_back(outcome.ok() ? OutcomeToJson(outcome.value(), schema).Dump()
                                    : "");
    results->Check(outcome.ok(), "serve: direct DeduceEntity failed");
    entity_json.push_back(
        serve::EntitiesToJson({entities[e]}, schema).at(0).Dump());
    if (tracer != nullptr) {
      const int span = tracer->Begin("serve.direct_deduce", -1,
                                     entities[e].entity_id());
      ReplayDeduce(entities[e], state.doc.spec, form1, form2, tracer, span,
                   &split);
      tracer->End(span);
    }
  }

  // --- the daemon ----------------------------------------------------------
  //
  // Half the timed starts come before the traffic (the last of them is
  // the daemon under test), the rest after it, so setup_s samples the
  // machine at both ends of the phase.
  std::vector<double> start_ms;
  const int setup_starts = serve_setup ? kSetupStarts : 1;
  const int starts_before = (setup_starts + 1) / 2;
  auto daemon = std::make_unique<Daemon>();
  for (int s = 0; s < starts_before; ++s) {
    if (s > 0) {
      results->Check(daemon->Stop(), "serve: daemon did not drain cleanly");
      daemon = std::make_unique<Daemon>();
    }
    start_ms.push_back(daemon->Start(config));
    if (start_ms.back() < 0) {
      results->Check(false, "serve: relacc serve did not come up");
      return;
    }
  }

  std::atomic<int64_t> batch_retries{0};
  Result<std::unique_ptr<serve::ServeClient>> control =
      serve::ServeClient::Connect("127.0.0.1", daemon->port());
  if (!control.ok()) {
    results->Check(false, "serve: connect failed");
    return;
  }
  std::vector<double> ping_ms;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool pong = control.value()->Call("ping", Json::Object()).ok();
    ping_ms.push_back(MsBetween(t0, Clock::now()));
    if (!pong) {
      results->Check(false, "serve: ping failed");
      return;
    }
  }

  // --- batch tenant --------------------------------------------------------
  //
  // Closed loop: each pass opens a session, submits every resolved
  // entity, finishes (the report must equal the reference) and closes.
  // The deduce stream starts once the first session is open.
  const Json batch_entities = serve::EntitiesToJson(entities, schema);
  std::atomic<bool> traffic_over{false};
  Clock::time_point traffic_end = Clock::time_point::max();
  std::mutex batch_mu;  // guards the batch_* fields below
  std::vector<double> batch_pass_ms;
  int64_t batch_passes = 0;
  int64_t batch_failed = 0;
  std::vector<std::string> batch_errors;
  std::promise<void> batch_started;
  std::thread batch([&] {
    Result<std::unique_ptr<serve::ServeClient>> client =
        serve::ServeClient::Connect("127.0.0.1", daemon->port());
    bool signalled = false;
    for (int pass = 0; client.ok() && !traffic_over.load(); ++pass) {
      serve::ServeClient* c = client.value().get();
      const Clock::time_point t0 = Clock::now();
      Json start = Json::Object();
      start.Set("completion", Json::Str(config.completion));
      start.Set("window", Json::Int(kBatchWindow));
      Result<Json> started = CallWithRetry(c, "pipeline.start", start,
                                           &batch_retries);
      if (!signalled) {
        batch_started.set_value();
        signalled = true;
      }
      Result<int64_t> sid = started.ok() ? started.value().GetInt("session")
                                         : Result<int64_t>(started.status());
      std::string report;
      if (sid.ok()) {
        Json session = Json::Object();
        session.Set("session", Json::Int(sid.value()));
        Json submit = session;
        submit.Set("entities", batch_entities);
        if (CallWithRetry(c, "pipeline.submit", submit, &batch_retries).ok()) {
          Result<Json> finished =
              CallWithRetry(c, "pipeline.finish", session, &batch_retries);
          if (finished.ok()) report = finished.value().Dump(2) + "\n";
        }
        CallWithRetry(c, "session.close", session, &batch_retries);
      }
      const Clock::time_point t1 = Clock::now();
      std::lock_guard<std::mutex> lock(batch_mu);
      ++batch_passes;
      if (report != config.reference) {
        ++batch_failed;
        batch_errors.push_back("batch: pass " + std::to_string(pass) +
                               ": pipeline.finish differs from relacc "
                               "pipeline --json");
      }
      // Only passes that ran under the interactive stream count, except
      // that a pass longer than the whole stream still yields a figure.
      if (t1 <= traffic_end || pass == 0) {
        batch_pass_ms.push_back(MsBetween(t0, t1));
      }
    }
    if (!signalled) batch_started.set_value();
    if (!client.ok()) {
      std::lock_guard<std::mutex> lock(batch_mu);
      ++batch_passes;
      ++batch_failed;
      batch_errors.push_back("batch: connect failed");
    }
  });
  batch_started.get_future().wait();

  // --- open-loop interactive stream ---------------------------------------
  Result<std::unique_ptr<serve::ServeClient>> interactive =
      serve::ServeClient::Connect("127.0.0.1", daemon->port());
  if (!interactive.ok()) {
    traffic_over.store(true);
    batch.join();
    results->Check(false, "serve: connect failed");
    return;
  }
  const int fd = interactive.value()->fd();
  Stream stream;
  std::thread receiver(ReceiveLoop, fd, &expected, &stream);

  std::mt19937_64 rng(config.seed);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(entities.size()) - 1);
  std::vector<double> lag_ms;
  // Outstanding requests over time, per slot: (ms into the step, count).
  std::vector<std::vector<std::pair<double, int64_t>>> outstanding;
  const auto new_slot = [&] {
    std::lock_guard<std::mutex> lock(stream.mu);
    stream.latency_ms.emplace_back();
    stream.step_failed.push_back(0);
    outstanding.emplace_back();
    return stream.latency_ms.size() - 1;
  };
  int64_t next_id = 1;
  int64_t sent = 0;
  bool send_failed = false;
  const auto outstanding_now = [&] {
    std::lock_guard<std::mutex> lock(stream.mu);
    return static_cast<int64_t>(stream.inflight.size() + stream.retry.size());
  };
  // Sends every retry that is due no later than `until`.
  const auto send_retries = [&](Clock::time_point until) {
    for (;;) {
      std::optional<Request> req;
      Clock::time_point when;
      {
        std::lock_guard<std::mutex> lock(stream.mu);
        if (stream.retry.empty() || stream.retry.front().first > until) return;
        when = stream.retry.front().first;
        if (when <= Clock::now()) {
          req = stream.retry.front().second;
          stream.retry.pop_front();
        }
      }
      if (!req.has_value()) {
        std::this_thread::sleep_until(when);
        continue;
      }
      if (!SendDeduce(fd, next_id++, *req, entity_json, &stream)) {
        send_failed = true;
        return;
      }
    }
  };

  // One step: `rate` requests per second on a fixed schedule for
  // `seconds`, then a wait until every answer is in, so each step starts
  // from an empty backlog. The answers are checked in ReceiveLoop.
  const auto run_step = [&](double rate, double seconds, std::size_t slot) {
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    const int64_t count = static_cast<int64_t>(rate * seconds);
    for (int64_t k = 0; k < count && !send_failed; ++k) {
      const Clock::time_point due =
          start + std::chrono::nanoseconds(static_cast<int64_t>(
                      static_cast<double>(k) * 1e9 / rate));
      send_retries(due);
      std::this_thread::sleep_until(due);
      Request req{due, pick(rng), static_cast<int>(slot)};
      if (!SendDeduce(fd, next_id++, req, entity_json, &stream)) {
        send_failed = true;
        break;
      }
      ++sent;
      lag_ms.push_back(MsBetween(due, Clock::now()));
      outstanding[slot].push_back({MsBetween(start, Clock::now()),
                                   outstanding_now()});
    }
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (!send_failed && outstanding_now() > 0 && Clock::now() < deadline) {
      send_retries(Clock::now());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  // A step passes when no request failed, its guarded p99 is within the
  // latency limit and the outstanding count did not grow: the last
  // quarter's mean may exceed the first quarter's by no more than
  // kBacklogGrowthMs of requests at this rate.
  const auto evaluate = [&](double rate, std::size_t slot) {
    StepResult r;
    r.rate = rate;
    {
      std::lock_guard<std::mutex> lock(stream.mu);
      r.latency = Summary::Of(stream.latency_ms[slot]);
      r.failed = stream.step_failed[slot];
    }
    const auto& o = outstanding[slot];
    if (o.size() >= 8) {
      const std::size_t q = o.size() / 4;
      double first = 0.0, last = 0.0;
      for (std::size_t i = 0; i < q; ++i) {
        first += static_cast<double>(o[i].second);
        last += static_cast<double>(o[o.size() - 1 - i].second);
      }
      first /= static_cast<double>(q);
      last /= static_cast<double>(q);
      r.backlog_grew =
          last - first > std::max(10.0, rate * kBacklogGrowthMs / 1000.0);
    }
    r.passed = r.failed == 0 && r.latency.n > 0 && !r.backlog_grew &&
               r.latency.tail <= kLatencyLimitMs;
    return r;
  };

  // One climb: steps from `from` up by kLadderRatio until
  // kLadderStopAfter steps in a row fail. Returns the highest rate that
  // passed, 0 if none did.
  std::vector<StepResult> steps;
  const auto climb = [&](int index, double from) {
    double best = 0.0;
    int failed_in_a_row = 0;
    double rate = from;
    for (int i = 0; i < kLadderMaxSteps && failed_in_a_row < kLadderStopAfter &&
                    !send_failed;
         ++i, rate *= kLadderRatio) {
      const std::size_t slot = new_slot();
      run_step(rate, kStepSeconds, slot);
      steps.push_back(evaluate(rate, slot));
      steps.back().climb = index;
      if (steps.back().passed) {
        best = rate;
        failed_in_a_row = 0;
      } else {
        ++failed_in_a_row;
      }
    }
    return best;
  };

  // The schedule: a warm-up at the base rate (answers checked, latencies
  // not counted: first-use costs are not the steady state), then
  // kClimbs climbs with the base-rate step split between the gaps, so
  // both figures sample the machine across the whole phase. The first
  // climb starts one step above the base rate, later ones kRestartBelow
  // steps under the median so far. deduce_max_rps is the median of the
  // climbs' highest passing rates.
  const std::size_t warmup_slot = new_slot();
  const std::size_t base_slot = new_slot();
  run_step(config.base_rate, kWarmupSeconds, warmup_slot);
  std::vector<double> climb_rps;
  for (int c = 0; c < kClimbs && !send_failed; ++c) {
    if (c > 0) run_step(config.base_rate, config.base_seconds / (kClimbs - 1),
                        base_slot);
    const double from =
        c == 0 ? config.base_rate * kLadderRatio
               : std::max(config.base_rate * kLadderRatio,
                          Summary::Of(climb_rps).median /
                              std::pow(kLadderRatio, kRestartBelow));
    climb_rps.push_back(climb(c, from));
  }
  const double max_rps = Summary::Of(climb_rps).median;
  steps.insert(steps.begin(), evaluate(config.base_rate, base_slot));
  // The daemon's peak over the whole phase. A failed climb step leaves
  // a backlog of at most a few hundred requests, drained before the next.
  const double daemon_rss_mb =
      PeakRssMb("/proc/" + std::to_string(daemon->pid()) + "/status");
  {
    std::lock_guard<std::mutex> lock(batch_mu);
    traffic_end = Clock::now();
  }
  traffic_over.store(true);
  ::shutdown(fd, SHUT_RDWR);
  receiver.join();
  batch.join();

  Result<Json> stats = control.value()->Call("stats", Json::Object());
  control.value().reset();
  interactive.value().reset();
  results->Check(daemon->Stop(),
                 "serve: daemon did not drain cleanly on SIGTERM");
  for (int s = starts_before; s < setup_starts; ++s) {
    Daemon again;
    start_ms.push_back(again.Start(config));
    results->Check(start_ms.back() >= 0 && again.Stop(),
                   "serve: relacc serve did not come up or drain cleanly");
  }

  // --- the ledger ----------------------------------------------------------
  const int64_t lost = static_cast<int64_t>(stream.inflight.size() +
                                            stream.retry.size());
  results->attempted += sent;
  results->failed += lost;
  for (int64_t f : stream.step_failed) results->failed += f;
  for (const std::string& e : stream.errors) results->errors.push_back(e);
  if (send_failed) results->Check(false, "serve: deduce send failed");
  if (lost > 0) {
    results->errors.push_back("serve: " + std::to_string(lost) +
                              " deduce requests never answered");
  }
  results->attempted += batch_passes;
  results->failed += batch_failed;
  for (const std::string& e : batch_errors) results->errors.push_back(e);
  results->Check(stats.ok(), "serve: stats call failed");

  Json ladder = Json::Array();
  for (const StepResult& r : steps) {
    Json j = r.latency.ToJson();
    j.Set("climb", Json::Int(r.climb));
    j.Set("rate", Json::Real(r.rate));
    j.Set("failed", Json::Int(r.failed));
    j.Set("backlog_grew", Json::Bool(r.backlog_grew));
    j.Set("passed", Json::Bool(r.passed));
    ladder.Append(std::move(j));
  }
  const StepResult& base = steps[0];
  const Summary batch_pass = Summary::Of(batch_pass_ms);

  results->Set("deduce_p50_ms", base.latency.median, "ms");
  results->Set("deduce_p99_ms", base.latency.tail, "ms");
  results->Set("deduce_max_rps", max_rps, "1/s");
  results->Set("batch_entities_per_s",
               batch_pass.n > 0 ? static_cast<double>(entities.size()) /
                                      (batch_pass.median / 1000.0)
                                : 0.0,
               "1/s");
  results->notes.Set("ladder", std::move(ladder));
  Json climbs = Json::Array();
  for (double rps : climb_rps) climbs.Append(Json::Real(rps));
  results->notes.Set("climb_max_rps", std::move(climbs));
  Json deployment = Json::Object();
  deployment.Set("replicas", Json::Int(kReplicas));
  deployment.Set("replica_threads", Json::Int(kReplicaThreads));
  deployment.Set("batch_window", Json::Int(kBatchWindow));
  deployment.Set("latency_limit_ms", Json::Real(kLatencyLimitMs));
  deployment.Set("backlog_growth_ms", Json::Real(kBacklogGrowthMs));
  deployment.Set("step_seconds", Json::Real(kStepSeconds));
  deployment.Set("ladder_ratio", Json::Real(kLadderRatio));
  results->notes.Set("serve", std::move(deployment));
  results->notes.Set("deduce_p99_ms_is_percentile", Json::Real(base.latency.tail_pct));
  results->notes.Set("deduce_base_samples",
                     Json::Int(static_cast<int64_t>(base.latency.n)));
  results->notes.Set("batch_pass_ms", batch_pass.ToJson());
  results->notes.Set("daemon_start_ms", Summary::Of(start_ms).ToJson());
  if (serve_setup) {
    results->Set("setup_s", Summary::Of(start_ms).median / 1000.0, "s");
    results->Set("peak_rss_mb", daemon_rss_mb, "MB");
  }
  results->notes.Set("daemon_peak_rss_mb", Json::Real(daemon_rss_mb));

  if (tracer == nullptr) return;

  // --- traced: per-layer metrics of the serve path ------------------------
  const Summary exec = Summary::Of(exec_ms);
  const Summary ping = Summary::Of(ping_ms);
  const Summary lag = Summary::Of(lag_ms);
  struct stat st {};
  const double snapshot_bytes =
      ::stat(config.snapshot.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                                : 0.0;
  results->Set("serve.deduce_exec_ms", exec.median, "ms");
  results->Set("serve.deduce_rules_ms", Summary::Of(split.rules_ms).median, "ms");
  results->Set("serve.deduce_chase_ms", Summary::Of(split.chase_ms).median, "ms");
  results->Set("serve.deduce_wait_ms",
               base.latency.median - exec.median - ping.median, "ms");
  results->Set("wire.ping_rtt_ms", ping.median, "ms");
  results->Set("serve.gen_lag_p99_ms", lag.tail, "ms");
  results->notes.Set("gen_lag_ms", lag.ToJson());
  results->Set("serve.retries",
               static_cast<double>(stream.retries + batch_retries.load()), "count");
  if (stats.ok()) {
    results->Set("serve.executed_interactive",
                 static_cast<double>(StatInt(stats.value(), "executed_interactive")),
                 "count");
    results->Set("serve.executed_batch",
                 static_cast<double>(StatInt(stats.value(), "executed_batch")),
                 "count");
    results->Set("serve.rejected",
                 static_cast<double>(StatInt(stats.value(), "rejected")), "count");
    results->Set("serve.shed", static_cast<double>(StatInt(stats.value(), "shed")),
                 "count");
    results->Set("serve.deadline_exceeded",
                 static_cast<double>(StatInt(stats.value(), "deadline_exceeded")),
                 "count");
  }
  results->Set("snapshot.open_ms", open_ms, "ms");
  results->Set("snapshot.first_deduce_ms", exec_ms.front(), "ms");
  results->Set("snapshot.bytes", snapshot_bytes, "bytes");

  // Direct window Submit calls: one inline-window pipeline session with
  // the batch tenant's window, on a one-thread service opened from the
  // same snapshot.
  Result<std::unique_ptr<AccuracyService>> windows_service =
      AccuracyService::Create(Specification(), direct_options);
  if (!windows_service.ok()) {
    results->Check(false, "serve: snapshot open failed");
    return;
  }
  PipelineSessionOptions session_options;
  session_options.inline_windows = true;
  session_options.window = kBatchWindow;
  session_options.completion = config.completion == "best"
                                   ? CompletionPolicy::kBestCandidate
                                   : config.completion == "none"
                                         ? CompletionPolicy::kLeaveNull
                                         : CompletionPolicy::kHeuristic;
  Result<std::unique_ptr<PipelineSession>> session =
      windows_service.value()->StartPipeline(session_options);
  if (!session.ok()) {
    results->Check(false, "serve: StartPipeline failed");
    return;
  }
  const std::size_t window =
      static_cast<std::size_t>(session.value()->window());
  for (std::size_t pos = 0; pos < entities.size(); pos += window) {
    std::vector<EntityInstance> chunk(
        entities.begin() + static_cast<std::ptrdiff_t>(pos),
        entities.begin() +
            static_cast<std::ptrdiff_t>(std::min(pos + window, entities.size())));
    const int span = tracer->Begin("serve.batch_window");
    const Status submitted = session.value()->Submit(std::move(chunk));
    tracer->End(span);
    results->Check(submitted.ok(), "serve: window Submit failed");
  }
  Result<PipelineReport> report = session.value()->Finish();
  results->Check(report.ok() &&
                     serve::PipelineReportToJson(report.value(), schema).Dump(2) +
                             "\n" ==
                         config.reference,
                 "serve: direct window replay differs from relacc pipeline --json");
  results->Set("serve.batch_window_exec_ms",
               Summary::Of(tracer->DurationsMs("serve.batch_window")).median, "ms");
}

}  // namespace relbench
