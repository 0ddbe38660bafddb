// The observability registry: named monotonic counters, last-value gauges,
// deterministic mergeable log-bucket histograms and wall-clock phase
// timers, collected in one MetricsRegistry. Counters count *events*,
// gauges and histograms record *distributions* (latency percentiles,
// backlog, quota), timers record where wall time went; traces record
// *spans* (util/trace.hpp).
//
// Two outputs:
//  * snapshot(): a point-in-time copy of every aggregate. Bench artifacts
//    embed it; dtm_cli --telemetry dumps it.
//  * A dtm-metrics-v1 JSONL document (MetricsSink). Opening the sink
//    writes the header line; each sample() while it is open writes one
//    time-series row; finishing it writes the gauge and histogram lines.
//    Rows are never stored, so no registry state grows with stream length.
// Timers are histograms of nanoseconds kept in their own map, so wall-clock
// data never reaches the deterministic JSONL.
//
// Cost model (this sits on makespan-critical paths, so it must stay cheap):
//  * One gate, ON by default. When it is off, every counter add, gauge
//    write, histogram record, timer and sample() is one relaxed atomic load
//    of the gate — no stores, no locks.
//  * Handles are stable for the registry's life: hot code looks a handle up
//    once (function-local static or member) and keeps the reference; only
//    the lookup, a sample() with a sink open and snapshots take the
//    registry mutex.
//  * ScopedPhaseTimer looks its timer up once per scope (before the clock
//    starts), reads the clock twice and records one histogram sample;
//    phases are coarse (per scheduler run or stream window), never an
//    inner loop.
//
// Histogram bucketing (HDR-style, fixed for all histograms so snapshots
// merge bucket-by-bucket and are byte-stable across shard counts):
//  * values 0..31 get exact unit buckets (index == value);
//  * every power-of-two octave [2^m, 2^(m+1)) above that is split into 32
//    sub-buckets of width 2^(m-5), so relative error is <= 1/32;
//  * bucket index = 32*(m-4) + (v >> (m-5)) - 32 for m = bit_width(v)-1,
//    1920 buckets covering the full uint64 range.
// Merging is element-wise count addition — exactly associative and
// commutative — and percentiles are nearest-rank over the cumulative bucket
// counts, reported as the containing bucket's lower bound (a deterministic
// integer, never an interpolated double). Timer percentiles follow the same
// rule.
//
// Thread-safety: counters, gauges, bucket counts and sums are relaxed
// atomics (concurrent adds and record() are safe and totals are exact);
// min/max use CAS loops; registration and the sink are
// mutex-guarded. Snapshots are consistent per cell, sufficient for
// post-run reporting.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/trace.hpp"

namespace dtm {

class MetricsRegistry;

/// Fixed log-bucket geometry shared by every histogram (see file comment).
namespace hdr {

inline constexpr std::uint32_t kSubBucketBits = 5;              // 32/octave
inline constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;
/// Octaves: unit range [0,32) counts as the first two (indices 0..63 are
/// exact through [32,64)), then one per remaining leading-bit position.
inline constexpr std::uint32_t kNumBuckets = kSubBuckets * (64 - kSubBucketBits + 1);

/// Bucket index for a value; monotone non-decreasing in `v`.
constexpr std::uint32_t bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::uint32_t>(v);
  const auto m = static_cast<std::uint32_t>(std::bit_width(v)) - 1;
  const std::uint32_t shift = m - kSubBucketBits;
  return kSubBuckets * (m - kSubBucketBits + 1) +
         static_cast<std::uint32_t>(v >> shift) - kSubBuckets;
}

/// Smallest value mapping to bucket `idx` (the value percentiles report).
constexpr std::uint64_t bucket_lower(std::uint32_t idx) {
  if (idx < 2 * kSubBuckets) return idx;
  const std::uint32_t octave = idx / kSubBuckets - 1;  // == m - kSubBucketBits
  const std::uint64_t sub = idx % kSubBuckets;
  return (static_cast<std::uint64_t>(kSubBuckets) + sub) << octave;
}

/// Largest value mapping to bucket `idx`.
constexpr std::uint64_t bucket_upper(std::uint32_t idx) {
  if (idx + 1 >= kNumBuckets) return ~std::uint64_t{0};
  return bucket_lower(idx + 1) - 1;
}

}  // namespace hdr

/// Point-in-time copy of one histogram: total count/sum/min/max plus the
/// non-empty buckets in ascending index order. Snapshots from independent
/// recorders (e.g. per-shard runs) merge losslessly.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;
  /// (bucket index, count) pairs, ascending index, counts > 0.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// Nearest-rank percentile, p in [0, 100]: the lower bound of the bucket
  /// holding the ceil(p/100 * count)-th smallest sample (rank 1 for p=0).
  /// Returns 0 on an empty snapshot.
  std::uint64_t percentile(double p) const;
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Element-wise accumulate: exactly associative and commutative.
  void merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// One named monotonic counter. Obtained from and owned by a
/// MetricsRegistry; never outlives it.
class MetricCounter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  MetricCounter(const MetricCounter&) = delete;
  MetricCounter& operator=(const MetricCounter&) = delete;

 private:
  friend class MetricsRegistry;
  explicit MetricCounter(const std::atomic<bool>* enabled)
      : enabled_(enabled) {}

  std::atomic<std::uint64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// One named last-value gauge (signed: backlog deltas may go negative in
/// principle). Obtained from and owned by a MetricsRegistry.
class MetricGauge {
 public:
  void set(std::int64_t v) noexcept {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  void add(std::int64_t d) noexcept {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(d, std::memory_order_relaxed);
    }
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  MetricGauge(const MetricGauge&) = delete;
  MetricGauge& operator=(const MetricGauge&) = delete;

 private:
  friend class MetricsRegistry;
  explicit MetricGauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<std::int64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// One named log-bucket histogram. record() is wait-free (relaxed adds plus
/// bounded CAS for min/max) and safe to call concurrently.
class MetricHistogram {
 public:
  void record(std::uint64_t v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    buckets_[hdr::bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const;

  MetricHistogram(const MetricHistogram&) = delete;
  MetricHistogram& operator=(const MetricHistogram&) = delete;

 private:
  friend class MetricsRegistry;
  explicit MetricHistogram(const std::atomic<bool>* enabled);
  void reset();

  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_;
  std::atomic<std::uint64_t> max_{0};
  const std::atomic<bool>* enabled_;
};

/// One phase timer's aggregate, in nanoseconds: a view of its histogram.
/// count, total, min and max are exact and mean is total / count; the
/// percentiles are nearest-rank bucket lower bounds, the rule
/// HistogramSnapshot::percentile uses (within 1/32 of the exact sample).
struct TimerStats {
  std::uint64_t count = 0;
  double total_ns = 0;
  double mean_ns = 0;
  double min_ns = 0;
  double max_ns = 0;
  double p50_ns = 0;
  double p90_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;

  static TimerStats of(const HistogramSnapshot& h);
};

class JsonWriter;

/// Point-in-time copy of a registry, every map in name order. Zero-count
/// histograms and timers are left out.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, TimerStats> timers;

  /// Writes the snapshot's members into an open JSON object: "counters"
  /// (non-zero ones), "timers" {name: {count, total_ns, mean_ns, min_ns,
  /// max_ns, p50_ns, p90_ns, p95_ns, p99_ns}}, and, when any gauge or
  /// histogram exists, "metrics" {"gauges", "histograms" {name: {count, sum,
  /// min, max, p50, p95, p99}}}. The bench artifact and --telemetry share it.
  void write_json(JsonWriter& w) const;
  /// write_json wrapped in its own object.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  /// Process-wide registry used by all built-in instrumentation sites.
  static MetricsRegistry& global();

  /// Finds or registers; the reference stays valid (and keeps its value
  /// across reset()) for the registry's life.
  MetricCounter& counter(const std::string& name);
  MetricGauge& gauge(const std::string& name);
  MetricHistogram& histogram(const std::string& name);

  /// Finds or registers a phase timer: a histogram of nanoseconds kept
  /// apart from histogram(), so it never reaches the JSONL.
  MetricHistogram& timer(const std::string& name);

  /// Writes one time-series row to the open MetricsSink; a no-op (one
  /// relaxed load) while no sink is open or the gate is off. Field order is
  /// the emission order, fixed per call site, which makes the JSONL
  /// byte-stable.
  void sample(std::string_view series,
              std::initializer_list<std::pair<const char*, std::int64_t>>
                  fields);

  /// The one gate. On by default; when off, every handle and sample() is a
  /// no-op and existing values are kept.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  MetricsSnapshot snapshot() const;

  /// Zeroes every counter, gauge, histogram and timer; handles stay valid.
  void reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  friend class MetricsSink;
  /// Points sample() at `out` (nullptr stops it); at most one sink at once.
  void set_sink(std::ostream* out);

  template <class T>
  using Named = std::map<std::string, std::unique_ptr<T>>;
  template <class T>
  T& find_or_add(Named<T>& map, const std::string& name);

  mutable std::mutex mu_;
  Named<MetricCounter> counters_;
  Named<MetricGauge> gauges_;
  Named<MetricHistogram> histograms_;
  Named<MetricHistogram> timers_;
  std::ostream* sink_ = nullptr;  // guarded by mu_
  std::atomic<bool> sink_open_{false};
  std::atomic<bool> enabled_{true};
};

/// One dtm-metrics-v1 JSONL document streamed from a registry into `out`.
/// Construction writes the schema+provenance header line and opens the
/// registry's sample() stream onto `out`; finish() writes one line per
/// gauge, then one per non-empty histogram (timers excluded), both in name
/// order, and closes it. A sink destroyed unfinished (an exception unwound
/// past it) only closes the stream. `out` must outlive the sink. The header
/// carries only build provenance (no invocation), so two runs of the same
/// build and workload serialize byte-identically.
class MetricsSink {
 public:
  explicit MetricsSink(std::ostream& out,
                       MetricsRegistry& reg = MetricsRegistry::global());
  ~MetricsSink();

  void finish();

  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

 private:
  std::ostream* out_;
  MetricsRegistry* reg_;  // nullptr once finished
};

/// RAII wall-clock timer: records elapsed ns into `registry`'s timer
/// `name` when the scope exits. Records nothing if the gate was off at
/// construction. The timer is looked up before the clock starts, so the
/// lookup is not timed and the timer's storage is allocated ahead of the
/// phase's own. Every timed phase doubles as a wall-domain span in the
/// global TraceRecorder when tracing is on, so schedulers, APSP, bounds,
/// and simulate() all show up as phase spans for free.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(std::string name,
                            MetricsRegistry& reg = MetricsRegistry::global())
      : name_(std::move(name)),
        timer_(reg.enabled() ? &reg.timer(name_) : nullptr),
        traced_(TraceRecorder::global().enabled()),
        start_(std::chrono::steady_clock::now()) {}

  ~ScopedPhaseTimer() {
    if (timer_ == nullptr && !traced_) return;
    const auto stop = std::chrono::steady_clock::now();
    if (traced_) {
      TraceRecorder::global().wall_span(name_, start_, stop);
    }
    if (timer_ == nullptr) return;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start_)
            .count();
    timer_->record(static_cast<std::uint64_t>(ns));
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  std::string name_;
  MetricHistogram* timer_;  // nullptr when the gate was off
  bool traced_;
  std::chrono::steady_clock::time_point start_;
};

namespace metrics {

/// Handle lookups on the global registry. Hot paths call these once and
/// keep the reference (function-local static or member).
inline MetricCounter& counter(const std::string& name) {
  return MetricsRegistry::global().counter(name);
}
inline MetricGauge& gauge(const std::string& name) {
  return MetricsRegistry::global().gauge(name);
}
inline MetricHistogram& histogram(const std::string& name) {
  return MetricsRegistry::global().histogram(name);
}

/// One-shot increment (map lookup per call — fine outside per-transaction
/// and per-window paths).
inline void count(const std::string& name, std::uint64_t n = 1) {
  counter(name).add(n);
}

}  // namespace metrics

}  // namespace dtm
