#ifndef RELBENCH_HARNESS_COMMON_H_
#define RELBENCH_HARNESS_COMMON_H_

// Shared pieces of the benchmark harness: the sample-guarded stats
// helper, the in-memory span recorder used by traced runs, and the
// metric sink every phase reports into.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.h"

namespace relbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ stats

/// Linear-interpolation quantile of a sorted, non-empty sample.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Median, quartiles and a guarded tail percentile of one sample.
///
/// The tail is the requested percentile only when at least
/// `kMinBeyond` samples lie beyond it; otherwise it is the highest
/// percentile the sample supports (1 - kMinBeyond/n, rounded down to a
/// whole percent), never below the median. `tail_pct` records which
/// percentile was actually reported and `n` the sample count, so a
/// "p99" over 36 requests can no longer pass for anything but the
/// p72 it really is.
struct Summary {
  static constexpr double kMinBeyond = 10.0;

  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< e.g. 99 for p99

  static Summary Of(std::vector<double> sample, double want_pct = 99.0) {
    Summary s;
    s.n = sample.size();
    if (sample.empty()) return s;
    std::sort(sample.begin(), sample.end());
    s.median = SortedQuantile(sample, 0.50);
    s.q1 = SortedQuantile(sample, 0.25);
    s.q3 = SortedQuantile(sample, 0.75);
    const double n = static_cast<double>(sample.size());
    double pct = want_pct;
    if (n * (100.0 - pct) / 100.0 < kMinBeyond) {
      pct = std::floor(100.0 * (1.0 - kMinBeyond / n));
    }
    pct = std::max(pct, 50.0);
    s.tail_pct = pct;
    s.tail = SortedQuantile(sample, pct / 100.0);
    return s;
  }

  relacc::Json ToJson() const {
    relacc::Json j = relacc::Json::Object();
    j.Set("n", relacc::Json::Int(static_cast<int64_t>(n)));
    j.Set("median", relacc::Json::Real(median));
    j.Set("q1", relacc::Json::Real(q1));
    j.Set("q3", relacc::Json::Real(q3));
    j.Set("tail", relacc::Json::Real(tail));
    j.Set("tail_pct", relacc::Json::Real(tail_pct));
    return j;
  }
};

// ------------------------------------------------------------------ spans

/// One timed call into a layer: name, start/end (ms since the tracer's
/// epoch), the index of the enclosing span (-1 at top level) and the
/// entity it worked on (-1 when not per-entity).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  int64_t entity = -1;
};

/// In-memory span recorder. Spans are only appended, so indices are
/// stable parents; the whole list is written out once at the end.
/// Single-threaded by design: traced runs replay at one thread.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int Begin(std::string name, int parent = -1, int64_t entity = -1) {
    Span s;
    s.name = std::move(name);
    s.start_ms = MsBetween(epoch_, Clock::now());
    s.parent = parent;
    s.entity = entity;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    spans_[static_cast<std::size_t>(id)].end_ms = MsBetween(epoch_, Clock::now());
  }

  /// Times `fn` as a span and returns its result.
  template <typename Fn>
  auto Time(const std::string& name, int parent, int64_t entity, Fn&& fn) {
    const int id = Begin(name, parent, entity);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End(id);
    } else {
      auto result = fn();
      End(id);
      return result;
    }
  }

  /// Sum of durations of every span called `name`.
  double TotalMs(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end_ms - s.start_ms;
    }
    return total;
  }

  /// Durations of every span called `name`, in recording order.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      relacc::Json j = relacc::Json::Object();
      j.Set("name", relacc::Json::Str(s.name));
      j.Set("start_ms", relacc::Json::Real(s.start_ms));
      j.Set("end_ms", relacc::Json::Real(s.end_ms));
      j.Set("parent", relacc::Json::Int(s.parent));
      j.Set("entity", relacc::Json::Int(s.entity));
      std::fprintf(f, "%s\n", j.Dump().c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- results

/// What a phase reports back: named metrics (value + unit), the
/// operation ledger, and notes that explain how a metric was obtained
/// (e.g. which percentile a tail really is).
struct Results {
  std::map<std::string, std::pair<double, std::string>> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  relacc::Json notes = relacc::Json::Object();

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }

  /// Counts one checked operation; a failure keeps its message.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

}  // namespace relbench

#endif  // RELBENCH_HARNESS_COMMON_H_
