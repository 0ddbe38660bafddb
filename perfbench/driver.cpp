// perfbench driver: one workload per process, timed from outside the
// library by calls into its public API.
//
//   perfbench_driver --workload batch-cluster|stream-local|stream-bursty
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// A run generates the workload's inputs from the seed before any timing,
// sets up the substrate several times (setup_s is the median), runs one
// untimed warm-up pass that also carries the full output checks, then
// repeats timed passes until S seconds have elapsed (longer, up to 2S, when
// host steal disturbed too many passes; see TimedPasses). Every pass must
// reproduce the warm-up pass's schedule digest. The last stdout line is a
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (see README.md). The
// wall-clock figures are printed by every run and reported by the traced
// run only, because host noise exceeds any bound they could carry.
//
// The traced run records the driver's own spans around every library call,
// alternates traced with untraced passes to price the tracing, and writes
// the spans as JSON lines to --trace-out at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/generators.hpp"
#include "core/online.hpp"
#include "core/validate.hpp"
#include "graph/analytic_metric.hpp"
#include "graph/partition.hpp"
#include "sched/cluster.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace dtm;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workload definitions ------------------------------------------------

/// Seed whose generated inputs are pinned by digest (kPinned below).
constexpr std::uint64_t kDefaultSeed = 1;

// batch-cluster: the million-node pipeline in miniature.
constexpr std::size_t kBatchAlpha = 1000, kBatchBeta = 125;
constexpr Weight kBatchGamma = 125;
constexpr std::size_t kBatchObjects = 100000, kBatchK = 2;
/// Distinct batches per pass; one pass schedules each once (10^6 txns).
constexpr std::size_t kBatchesPerPass = 8;
constexpr std::size_t kBatchSetups = 5;
constexpr std::size_t kBatchMinClean = 4;

// stream-*: the sharded runtime on a small cluster substrate.
constexpr std::size_t kStreamAlpha = 16, kStreamBeta = 16;
constexpr Weight kStreamGamma = 16;
constexpr Time kWindow = 64;
constexpr std::size_t kStreamObjects = 4096, kStreamK = 2;
/// Fixed arrival rate (txn/step), about 0.7x the measured capacity. Never
/// recalibrated per run: that would change the input with the scheduler.
constexpr double kRate = 6.0;
constexpr std::size_t kStreamTxns = 1000000;
constexpr std::size_t kShards = 2;
constexpr std::size_t kBurst = 64;
/// Set-up repetitions before each pass (setup_s is their median).
constexpr std::size_t kStreamSetupsPerPass = 10;
/// Passes the wall-clock metrics use; 5 give over 10^4 window closes.
constexpr std::size_t kStreamMinClean = 5;
/// (shards=1, shards=2) pass pairs in the traced run (sim.shard.speedup).
constexpr std::size_t kReplayPairs = 3;

/// A pass whose wall time was more than this share host steal (the
/// hypervisor running other guests) is set aside; see TimedPasses.
constexpr double kMaxStealFrac = 0.05;
/// A run stops measuring at this multiple of --seconds even when it has not
/// yet collected enough passes below kMaxStealFrac.
constexpr double kMaxStretch = 2.0;
/// Passes in a traced run (half traced, half untraced).
constexpr std::size_t kTracedPasses = 6;

enum class Workload { kBatchCluster, kStreamLocal, kStreamBursty };

struct Pinned {
  const char* name;
  Workload workload;
  /// FNV-1a digest of the default seed's generated input.
  std::uint64_t input_digest;
};

constexpr Pinned kPinned[] = {
    {"batch-cluster", Workload::kBatchCluster, 0xd5951ed7fdcde9daULL},
    {"stream-local", Workload::kStreamLocal, 0x0e8d4630121f5386ULL},
    {"stream-bursty", Workload::kStreamBursty, 0x97d5a48f032c0fe6ULL},
};

// --- small utilities -----------------------------------------------------

class Fnv1a {
 public:
  template <typename T>
  void add(const T* data, std::size_t n) {
    const auto* p = reinterpret_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n * sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    add(&n, 1);
    add(v.data(), v.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (hi + *std::max_element(v.begin(), v.begin() + mid)) / 2;
}

/// Nearest-rank percentile (rank ceil(p/100 * n), at least 1); reorders v.
template <typename T>
T percentile(std::vector<T>& v, double p) {
  if (v.empty()) return T{};
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- driver-side spans (traced run only) ----------------------------------

/// Spans the driver records around its calls into the library: name, start,
/// end, parent span and run id (the setup repetition or pass index). Kept
/// in memory and written out at exit. Disabled tracers read no clock.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint32_t run) {
    if (!on_) return kNone;
    spans_.push_back({name, parent, run, ns(Clock::now()), -1});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t id) {
    if (id != kNone) spans_[id].end_ns = ns(Clock::now());
  }
  /// Records an already-measured interval.
  void record(const char* name, std::uint32_t parent, std::uint32_t run,
              Clock::time_point start, Clock::time_point end) {
    if (on_) spans_.push_back({name, parent, run, ns(start), ns(end)});
  }

  /// Self time (duration minus the time its child spans cover) summed per
  /// (name, run), in seconds.
  std::map<std::pair<std::string, std::uint32_t>, double> self_times() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::pair<std::string, std::uint32_t>, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[{s.name, s.run}] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// Writes a header line, then one JSON object per span; false on an I/O
  /// error.
  bool write_jsonl(const std::string& path, const std::string& header) const {
    std::ofstream f(path);
    f << header << '\n';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":"
        << (s.parent == kNone ? std::string("null")
                              : std::to_string(s.parent))
        << ",\"run\":" << s.run << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    f.close();
    return !f.fail();
  }

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint32_t run;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Run ids of setup repetitions start here; pass run ids stay below it.
constexpr std::uint32_t kSetupRun = 1u << 20;

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint32_t parent,
             std::uint32_t run)
      : t_(t), id_(t.open(name, parent, run)) {}
  ~ScopedSpan() { t_.close(id_); }
  std::uint32_t id() const { return id_; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

/// Median over runs of the per-run self time of span `name`, restricted to
/// `runs` (runs in which the span never occurred count as 0).
double median_self(
    const std::map<std::pair<std::string, std::uint32_t>, double>& self,
    const std::string& name, const std::vector<std::uint32_t>& runs) {
  std::vector<double> v;
  for (std::uint32_t r : runs) {
    const auto it = self.find({name, r});
    v.push_back(it == self.end() ? 0.0 : it->second);
  }
  return median(std::move(v));
}

// --- results -------------------------------------------------------------

struct Measured {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
  std::vector<Measured> metrics;

  /// A run whose correctness check fails counts all its transactions as
  /// failed.
  std::uint64_t failed() const { return correct ? 0 : attempted; }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string format_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_result(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Measured& m = r.metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// Per-layer metrics every workload reports; a layer a workload does not
/// exercise reads 0 there.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"graph.build_s", "s"},
      {"graph.metric_s", "s"},
      {"graph.edges", "count"},
      {"graph.csr_mb", "MiB"},
      {"core.validate_s", "s"},
      {"sched.schedule_s", "s"},
      {"sched.dep_edges", "count"},
      {"sched.probes_per_txn", "probe/txn"},
      {"sim.engine.simulate_s", "s"},
      {"sim.engine.object_travel", "steps"},
      {"pipeline.unattributed_s", "s"},
      {"sim.runtime.construct_s", "s"},
      {"sim.runtime.ingest_s", "s"},
      {"sim.runtime.ingest_us_p50", "us"},
      {"sim.runtime.ingest_us_p99", "us"},
      {"sim.runtime.window_s", "s"},
      {"sim.runtime.drain_s", "s"},
      {"sim.runtime.windows", "count"},
      {"sim.runtime.txn_per_window", "txn"},
      {"sim.runtime.dep_edges", "count"},
      {"sim.runtime.arc_pool_mb", "MiB"},
      {"sim.runtime.peak_backlog", "txn"},
      {"sim.runtime.mean_backlog", "txn"},
      {"sim.runtime.unattributed_s", "s"},
      {"sim.admission.deferrals_per_txn", "1/txn"},
      {"sim.admission.first_window_admit_frac", "fraction"},
      {"sim.admission.raises", "count"},
      {"sim.admission.cuts", "count"},
      {"sim.shard.cross_frac", "fraction"},
      {"sim.shard.fixup_frac", "fraction"},
      {"sim.shard.peak_members", "txn"},
      {"sim.shard.speedup", "x"},
      {"txn_per_s", "txn/s"},
      {"window_close_us_p50", "us"},
      {"window_close_us_p90", "us"},
      {"window_close_us_p99", "us"},
      {"trace.overhead_frac", "fraction"},
  };
  return names;
}

/// Orders `r.metrics` as per_layer_names() and fills absent layers with 0.
void finish_per_layer(RunResult& r) {
  std::map<std::string, double> have;
  for (const Measured& m : r.metrics) have[m.name] = m.value;
  r.metrics.clear();
  for (const auto& [name, unit] : per_layer_names()) {
    const auto it = have.find(name);
    r.add(name, it == have.end() ? 0.0 : it->second, unit);
  }
}

/// Host steal so far: CPU time the hypervisor gave to other guests, summed
/// over all CPUs, in seconds (0 when /proc/stat cannot be read).
double host_steal_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return 0;
  for (std::uint64_t& v : field) {
    if (!(f >> v)) return 0;
  }
  return static_cast<double>(field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The untraced timed passes of a run and the wall-clock metrics over them.
///
/// On a shared host another guest's load shows up as steal: wall time in
/// which the hypervisor runs someone else on this guest's CPUs. It comes in
/// episodes of minutes that slow a pass by a third and inflate window-close
/// tails tenfold, whatever the code does. Passes that lost more than
/// kMaxStealFrac of their wall time to steal are set aside; the metrics use
/// the rest, or, when fewer than `min_clean` remain, the `min_clean` passes
/// that lost the least.
class TimedPasses {
 public:
  explicit TimedPasses(std::size_t min_clean) : min_clean_(min_clean) {}

  /// Window-close samples (us); the pass under way appends its own.
  std::vector<double> window_us;

  void start() {
    steal0_ = host_steal_s();
    t0_ = Clock::now();
    begin_ = window_us.size();
  }
  void finish(double txn_per_s) {
    const double wall = seconds_between(t0_, Clock::now());
    passes_.push_back({txn_per_s, ratio(host_steal_s() - steal0_, wall),
                       begin_, window_us.size()});
  }

  bool enough() const { return clean().size() >= min_clean_; }

  /// Wall-clock figures over the selected passes: the median throughput,
  /// the pooled window-close p50, and the median over passes of each pass's
  /// window-close p90 and p99 (so one disturbed pass cannot set them).
  struct Summary {
    double txn_per_s = 0, window_p50 = 0, window_p90 = 0, window_p99 = 0;
  };
  Summary summary() const {
    std::vector<Pass> use = clean();
    if (use.size() < min_clean_) {
      use = passes_;
      std::sort(use.begin(), use.end(), [](const Pass& a, const Pass& b) {
        return a.steal_frac < b.steal_frac;
      });
      use.resize(std::min(use.size(), min_clean_));
    }
    std::vector<double> tps, pooled, p90, p99;
    for (const Pass& p : use) {
      tps.push_back(p.tps);
      std::vector<double> w(
          window_us.begin() + static_cast<std::ptrdiff_t>(p.begin),
          window_us.begin() + static_cast<std::ptrdiff_t>(p.end));
      pooled.insert(pooled.end(), w.begin(), w.end());
      p90.push_back(percentile(w, 90));
      p99.push_back(percentile(w, 99));
    }
    std::cout << "perfbench: " << passes_.size() << " timed passes, "
              << use.size() << " used; txn/s (steal %):";
    for (const Pass& p : passes_) {
      std::cout << ' ' << static_cast<long long>(p.tps) << " ("
                << std::round(p.steal_frac * 1000) / 10 << ')';
    }
    const Summary s{median(std::move(tps)), percentile(pooled, 50),
                    median(std::move(p90)), median(std::move(p99))};
    std::cout << "\nperfbench: txn_per_s " << s.txn_per_s
              << ", window_close_us p50 " << s.window_p50 << " p90 "
              << s.window_p90 << " p99 " << s.window_p99 << '\n';
    return s;
  }

  /// The traced run's wall-clock metrics, from its untraced passes.
  Summary add_to(RunResult& r) const {
    const Summary s = summary();
    r.add("txn_per_s", s.txn_per_s, "txn/s");
    r.add("window_close_us_p50", s.window_p50, "us");
    r.add("window_close_us_p90", s.window_p90, "us");
    r.add("window_close_us_p99", s.window_p99, "us");
    return s;
  }

 private:
  struct Pass {
    double tps;
    double steal_frac;
    std::size_t begin, end;  // window_us slice
  };
  std::vector<Pass> clean() const {
    std::vector<Pass> out;
    for (const Pass& p : passes_) {
      if (p.steal_frac <= kMaxStealFrac) out.push_back(p);
    }
    return out;
  }

  std::size_t min_clean_;
  std::vector<Pass> passes_;
  double steal0_ = 0;
  Clock::time_point t0_{};
  std::size_t begin_ = 0;
};

/// Repeats `pass` until `seconds` of wall time have elapsed, at least
/// `min_passes` ran and `enough()` holds, or kMaxStretch * `seconds` passed.
void measure(double seconds, std::size_t min_passes,
             const std::function<bool()>& enough,
             const std::function<void()>& pass) {
  const auto start = Clock::now();
  for (std::size_t p = 0;; ++p) {
    const double elapsed = seconds_between(start, Clock::now());
    if (p >= min_passes &&
        ((elapsed >= seconds && enough()) ||
         elapsed >= kMaxStretch * seconds)) {
      break;
    }
    pass();
  }
}

void add_graph_metrics(RunResult& r, const Graph& g) {
  r.add("graph.edges", static_cast<double>(g.num_edges()), "count");
  const double csr_bytes =
      static_cast<double>((g.num_nodes() + 1) * sizeof(std::size_t) +
                          2 * g.num_edges() * sizeof(Arc));
  r.add("graph.csr_mb", csr_bytes / (1024.0 * 1024.0), "MiB");
}

/// Counter delta since the last TelemetryRegistry reset.
double counter(const TelemetrySnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double timer_total_s(const TelemetrySnapshot& snap, const std::string& name) {
  const auto it = snap.timers.find(name);
  return it == snap.timers.end() ? 0.0 : it->second.total_ns * 1e-9;
}

// --- batch-cluster -------------------------------------------------------

struct BatchEnv {
  std::unique_ptr<ClusterGraph> topo;
  std::unique_ptr<AnalyticMetric> metric;
};

Instance generate_batch(const ClusterGraph& topo, std::uint64_t seed,
                        std::size_t b) {
  Rng rng(splitmix(seed * 1000003ULL + b));
  return generate_uniform(
      topo.graph, {.num_objects = kBatchObjects, .objects_per_txn = kBatchK},
      rng);
}

std::uint64_t instance_digest(const Instance& inst) {
  Fnv1a h;
  for (const Transaction& t : inst.transactions()) {
    h.add(&t.home, 1);
    h.add(t.objects);
  }
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const NodeId home = inst.object_home(o);
    h.add(&home, 1);
  }
  return h.value();
}

void schedule_digest(Fnv1a& h, const Schedule& s) {
  h.add(s.commit_time);
  for (const auto& chain : s.object_order) h.add(chain);
}

RunResult run_batch(std::uint64_t seed, double seconds, Tracer& tr) {
  RunResult r;
  const bool traced = tr.on();

  // Setup: substrate, closed-form metric, scheduler. The previous copy is
  // freed before the next is built, so peak RSS holds one substrate.
  BatchEnv env;
  std::vector<double> setup_s;
  for (std::uint32_t rep = kSetupRun; rep < kSetupRun + kBatchSetups; ++rep) {
    env = {};
    ScopedSpan setup(tr, "setup", Tracer::kNone, rep);
    const auto t0 = Clock::now();
    {
      ScopedSpan s(tr, "graph.build", setup.id(), rep);
      env.topo = std::make_unique<ClusterGraph>(kBatchAlpha, kBatchBeta,
                                                kBatchGamma);
    }
    {
      ScopedSpan s(tr, "graph.metric", setup.id(), rep);
      env.metric = make_analytic_metric(*env.topo);
    }
    // Each batch gets a fresh scheduler; setup prices one construction.
    ClusterScheduler sched(*env.topo, {.approach = ClusterApproach::kGreedy});
    setup_s.push_back(seconds_between(t0, Clock::now()));
    DTM_REQUIRE(env.metric != nullptr, "cluster graph has no analytic metric");
  }
  const ClusterGraph& topo = *env.topo;
  const Metric& metric = *env.metric;

  const std::uint64_t pinned = instance_digest(
      generate_batch(topo, kDefaultSeed, 0));
  if (pinned != kPinned[0].input_digest) {
    r.fail("batch-cluster input digest " + hex(pinned) + " != pinned " +
           hex(kPinned[0].input_digest));
  }

  // One pass schedules every batch of the seed once. Pass 0 is the warm-up:
  // untimed for the wall-clock metrics, it supplies the schedule-quality
  // metrics; later passes must reproduce its digest exactly.
  // Window-close samples: each batch's ClusterScheduler::run, in us.
  TimedPasses timed(kBatchMinClean);
  std::vector<double> traced_tps;
  std::vector<std::uint32_t> traced_runs;  // per-batch run ids (traced)
  std::vector<Time> commit_latency;
  double makespan_sum = 0;
  double travel = 0, probes = 0, colored = 0;
  std::uint64_t digest0 = 0;

  const auto run_pass = [&](std::size_t p, bool trace_this) {
    Fnv1a digest;
    double busy = 0;
    std::size_t txns = 0;
    for (std::size_t b = 0; b < kBatchesPerPass; ++b) {
      const auto run_id = static_cast<std::uint32_t>(p * kBatchesPerPass + b);
      Instance inst = [&] {
        ScopedSpan s(tr, "driver.generate", Tracer::kNone, run_id);
        return generate_batch(topo, seed, b);
      }();
      ClusterScheduler sched(topo, {.approach = ClusterApproach::kGreedy});
      TelemetryRegistry::global().reset();
      Tracer off(false);
      Tracer& t = trace_this ? tr : off;

      const auto t0 = Clock::now();
      const std::uint32_t pass_span = t.open("pass", Tracer::kNone, run_id);
      const auto s0 = Clock::now();
      Schedule s = sched.run(inst, metric);
      const auto s1 = Clock::now();
      t.record("sched.schedule", pass_span, run_id, s0, s1);
      ValidationResult vr;
      {
        ScopedSpan span(t, "core.validate", pass_span, run_id);
        vr = validate(inst, metric, s);
      }
      SimResult sim;
      {
        ScopedSpan span(t, "sim.engine.simulate", pass_span, run_id);
        sim = simulate(inst, metric, s);
      }
      t.close(pass_span);
      const auto t1 = Clock::now();

      busy += seconds_between(t0, t1);
      txns += inst.num_transactions();
      r.attempted += inst.num_transactions();
      if (p > 0) timed.window_us.push_back(seconds_between(s0, s1) * 1e6);
      if (trace_this) traced_runs.push_back(run_id);

      const Time planned = s.makespan();
      if (!vr.ok) {
        r.fail("batch " + std::to_string(b) +
               " failed validation: " + vr.summary());
      } else if (!sim.ok || sim.planned_makespan != planned ||
                 sim.realized_makespan != planned) {
        r.fail("batch " + std::to_string(b) + " simulation: realized " +
               std::to_string(sim.realized_makespan) + " vs planned " +
               std::to_string(planned) + " " + sim.summary());
      }
      schedule_digest(digest, s);
      if (p == 0) {
        makespan_sum += static_cast<double>(planned);
        commit_latency.insert(commit_latency.end(), s.commit_time.begin(),
                              s.commit_time.end());
        const TelemetrySnapshot snap = TelemetryRegistry::global().snapshot();
        probes += counter(snap, "greedy.color_probes");
        colored += counter(snap, "greedy.colored_txns");
        travel += static_cast<double>(sim.object_travel);
      }
    }
    if (p == 0) {
      digest0 = digest.value();
    } else if (digest.value() != digest0) {
      r.fail("pass " + std::to_string(p) + " schedule digest " +
             hex(digest.value()) + " != warm-up " + hex(digest0));
    }
    return static_cast<double>(txns) / busy;
  };

  run_pass(0, traced);
  std::size_t p = 0;
  measure(seconds, traced ? kTracedPasses : kBatchMinClean,
          [&] { return traced || timed.enough(); },
          [&] {
            ++p;
            // Traced runs alternate untraced and traced passes.
            if (traced && p % 2 == 0) {
              traced_tps.push_back(run_pass(p, true));
              return;
            }
            timed.start();
            timed.finish(run_pass(p, false));
          });

  const double n_batch = static_cast<double>(kBatchesPerPass);
  if (!traced) {
    r.add("setup_s", median(setup_s), "s");
    timed.summary();  // printed only: see README, "Wall-clock metrics"
    r.add("peak_rss_mb", peak_rss_mib(), "MiB");
    r.add("makespan_steps", makespan_sum / n_batch, "steps");
    r.add("commit_latency_steps_p50",
          static_cast<double>(percentile(commit_latency, 50)), "steps");
    r.add("commit_latency_steps_p999",
          static_cast<double>(percentile(commit_latency, 99.9)), "steps");
    return r;
  }

  const auto self = tr.self_times();
  std::vector<std::uint32_t> reps(kBatchSetups);
  for (std::uint32_t i = 0; i < kBatchSetups; ++i) reps[i] = kSetupRun + i;
  r.add("graph.build_s", median_self(self, "graph.build", reps), "s");
  r.add("graph.metric_s", median_self(self, "graph.metric", reps), "s");
  add_graph_metrics(r, topo.graph);
  r.add("core.validate_s", median_self(self, "core.validate", traced_runs),
        "s");
  r.add("sched.schedule_s", median_self(self, "sched.schedule", traced_runs),
        "s");
  r.add("sched.dep_edges", probes / 2 / n_batch, "count");
  r.add("sched.probes_per_txn", ratio(probes, colored), "probe/txn");
  r.add("sim.engine.simulate_s",
        median_self(self, "sim.engine.simulate", traced_runs), "s");
  r.add("sim.engine.object_travel", travel / n_batch, "steps");
  r.add("pipeline.unattributed_s", median_self(self, "pass", traced_runs),
        "s");
  const TimedPasses::Summary untraced = timed.add_to(r);
  r.add("trace.overhead_frac",
        1.0 - ratio(median(traced_tps), untraced.txn_per_s), "fraction");
  return r;
}

// --- stream-local / stream-bursty ----------------------------------------

/// A generated arrival trace in flat arrays (k objects per transaction),
/// plus which arrivals cross a window boundary: exactly the ingest() calls
/// that close (and schedule) windows.
struct StreamInput {
  std::vector<Time> arrival;
  std::vector<NodeId> home;
  std::vector<ObjectId> objects;
  std::vector<std::uint8_t> closes;

  std::size_t size() const { return arrival.size(); }
  std::uint64_t digest() const {
    Fnv1a h;
    h.add(arrival);
    h.add(home);
    h.add(objects);
    return h.value();
  }
};

struct StreamEnv {
  std::unique_ptr<ClusterGraph> topo;
  std::unique_ptr<AnalyticMetric> metric;
  std::vector<NodeId> homes;
};

StreamInput generate_stream(Workload w, const Graph& g, std::uint64_t seed) {
  ArrivalStreamOptions so;
  so.num_txns = kStreamTxns;
  so.num_objects = kStreamObjects;
  so.objects_per_txn = kStreamK;
  so.rate = kRate;
  so.burst_size = kBurst;
  so.groups = w == Workload::kStreamLocal ? kShards : 1;
  auto src = make_arrival_source(w == Workload::kStreamLocal
                                     ? ArrivalModel::kPoisson
                                     : ArrivalModel::kBursty,
                                 g, so, seed);
  StreamInput in;
  in.arrival.reserve(kStreamTxns);
  in.home.reserve(kStreamTxns);
  in.objects.reserve(kStreamTxns * kStreamK);
  in.closes.reserve(kStreamTxns);
  ArrivingTxn t;
  while (src->next(t)) {
    DTM_REQUIRE(t.objects.size() == kStreamK, "arrival with k != 2 objects");
    in.closes.push_back(!in.arrival.empty() &&
                        t.arrival / kWindow != in.arrival.back() / kWindow);
    in.arrival.push_back(t.arrival);
    in.home.push_back(t.home);
    in.objects.insert(in.objects.end(), t.objects.begin(), t.objects.end());
  }
  return in;
}

StreamingRuntimeOptions runtime_options(Workload w, std::size_t shards) {
  StreamingRuntimeOptions o;
  o.window = kWindow;
  o.shards = shards;
  if (w == Workload::kStreamBursty) {
    o.admission.policy = AdmissionPolicy::kAimd;  // library defaults
  }
  return o;
}

/// What one stream pass measured.
struct StreamPass {
  double wall_s = 0;    // ingest of the whole trace + drain
  double window_s = 0;  // window-closing ingest() calls
  StreamStats stats;
  ShardLoadStats shard;
  std::size_t raises = 0, cuts = 0;
  TelemetrySnapshot telemetry;
  std::uint64_t digest = 0;
};

enum class PassMode {
  /// Clock read only around window-closing ingest() calls and the pass.
  kPlain,
  /// Plus spans and a per-call timing of every other ingest() call.
  kTraced,
};

/// Set-up: substrate, closed-form metric, placement, and one runtime
/// construction (the runtime is discarded; every pass builds its own).
StreamEnv build_stream_env(Workload w, Tracer& tr, std::uint32_t rep) {
  rep += kSetupRun;
  ScopedSpan setup(tr, "setup", Tracer::kNone, rep);
  StreamEnv env;
  {
    ScopedSpan s(tr, "graph.build", setup.id(), rep);
    env.topo = std::make_unique<ClusterGraph>(kStreamAlpha, kStreamBeta,
                                              kStreamGamma);
  }
  {
    ScopedSpan s(tr, "graph.metric", setup.id(), rep);
    env.metric = make_analytic_metric(*env.topo);
  }
  DTM_REQUIRE(env.metric != nullptr, "cluster graph has no analytic metric");
  env.homes =
      w == Workload::kStreamLocal
          ? shard_aligned_homes(make_shard_map(env.topo->graph, kShards),
                                kStreamObjects)
          : StreamingRuntime::spread_homes(env.topo->graph, kStreamObjects);
  {
    ScopedSpan s(tr, "sim.runtime.construct", setup.id(), rep);
    StreamingRuntime rt(env.topo->graph, *env.metric, env.homes,
                        runtime_options(w, kShards));
  }
  return env;
}

RunResult run_stream(Workload w, std::uint64_t seed, double seconds,
                     Tracer& tr) {
  RunResult r;
  const bool traced = tr.on();

  // Set-up repetitions are spread over the run, one round before every
  // pass, so their median sees the same host states as the passes.
  std::vector<double> setup_s;
  std::uint32_t setup_rep = 0;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    StreamEnv e = build_stream_env(w, tr, setup_rep++);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return e;
  };
  const auto setup_round = [&] {
    for (std::size_t i = 0; i < kStreamSetupsPerPass; ++i) timed_setup();
  };
  const StreamEnv env = timed_setup();
  const Graph& g = env.topo->graph;
  const Metric& metric = *env.metric;

  const Pinned& pin = kPinned[w == Workload::kStreamLocal ? 1 : 2];
  const StreamInput in = generate_stream(w, g, seed);
  const std::uint64_t pinned =
      seed == kDefaultSeed ? in.digest()
                           : generate_stream(w, g, kDefaultSeed).digest();
  if (pinned != pin.input_digest) {
    r.fail(std::string(pin.name) + " input digest " + hex(pinned) +
           " != pinned " + hex(pin.input_digest));
  }
  const std::size_t n = in.size();

  // Window-close samples: the window-closing ingest() calls, in us.
  TimedPasses timed(kStreamMinClean);
  std::vector<float> ingest_us;   // traced passes: other ingest() calls
  std::uint64_t digest0 = 0;

  // One pass: a fresh runtime ingests the whole trace as one closed-loop
  // caller, then drains. Returns the measurements; run id = pass index.
  const auto run_pass = [&](std::uint32_t run, std::size_t shards,
                            PassMode mode, bool keep_window_samples,
                            bool check) {
    Tracer off(false);
    Tracer& t = mode == PassMode::kTraced ? tr : off;
    std::optional<StreamingRuntime> rt;
    {
      ScopedSpan s(t, "sim.runtime.construct", Tracer::kNone, run);
      rt.emplace(g, metric, env.homes, runtime_options(w, shards));
    }
    TelemetryRegistry::global().reset();
    StreamPass out;
    ArrivingTxn txn;
    txn.objects.resize(kStreamK);
    const bool per_call = mode == PassMode::kTraced;
    Clock::time_point stretch_start{}, stretch_end{};
    bool in_stretch = false;

    const auto t0 = Clock::now();
    const std::uint32_t pass_span = t.open("pass", Tracer::kNone, run);
    for (std::size_t i = 0; i < n; ++i) {
      txn.arrival = in.arrival[i];
      txn.home = in.home[i];
      std::copy_n(in.objects.begin() + static_cast<std::ptrdiff_t>(i * kStreamK),
                  kStreamK, txn.objects.begin());
      if (in.closes[i]) {
        if (in_stretch) {
          t.record("sim.runtime.ingest", pass_span, run, stretch_start,
                   stretch_end);
          in_stretch = false;
        }
        const auto a = Clock::now();
        rt->ingest(txn);
        const auto b = Clock::now();
        const double dt = seconds_between(a, b);
        out.window_s += dt;
        if (keep_window_samples) timed.window_us.push_back(dt * 1e6);
        t.record("sim.runtime.window", pass_span, run, a, b);
      } else if (per_call) {
        const auto a = Clock::now();
        rt->ingest(txn);
        const auto b = Clock::now();
        ingest_us.push_back(static_cast<float>(seconds_between(a, b) * 1e6));
        if (!in_stretch) stretch_start = a;
        stretch_end = b;
        in_stretch = true;
      } else {
        rt->ingest(txn);
      }
    }
    if (in_stretch) {
      t.record("sim.runtime.ingest", pass_span, run, stretch_start,
               stretch_end);
    }
    {
      ScopedSpan s(t, "sim.runtime.drain", pass_span, run);
      out.stats = rt->drain();
    }
    t.close(pass_span);
    out.wall_s = seconds_between(t0, Clock::now());

    out.telemetry = TelemetryRegistry::global().snapshot();
    out.shard = rt->shard_stats();
    out.raises = rt->admission().raises();
    out.cuts = rt->admission().cuts();
    const Schedule s = rt->schedule();
    Fnv1a h;
    schedule_digest(h, s);
    out.digest = h.value();

    r.attempted += n;
    if (out.stats.arrived != n || out.stats.committed != n) {
      r.fail("pass " + std::to_string(run) + ": committed " +
             std::to_string(out.stats.committed) + " of " + std::to_string(n));
    } else if (run > 0 && out.digest != digest0) {
      r.fail("pass " + std::to_string(run) + " schedule digest " +
             hex(out.digest) + " != warm-up " + hex(digest0));
    }
    if (check) {
      ValidationResult vr;
      {
        ScopedSpan span(t, "core.validate", Tracer::kNone, run);
        vr = validate_online(rt->materialize(), metric, rt->arrivals(), s);
      }
      if (!vr.ok) r.fail("stream failed validate_online: " + vr.summary());
    }
    return std::make_pair(std::move(out), std::move(rt));
  };

  // Warm-up pass: full output checks, schedule-quality metrics.
  std::vector<Time> commit_latency;
  Time makespan = 0;
  setup_round();
  {
    auto [warm, rt] = run_pass(0, kShards, traced ? PassMode::kTraced
                                                  : PassMode::kPlain,
                               false, true);
    digest0 = warm.digest;
    makespan = warm.stats.makespan;
    const Schedule s = rt->schedule();
    commit_latency.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      commit_latency[i] = s.commit_time[i] - rt->arrivals()[i];
    }
  }
  ingest_us.clear();

  std::vector<double> traced_tps;
  std::vector<std::uint32_t> traced_runs;
  std::vector<StreamPass> traced_passes;
  std::uint32_t run = 0;
  measure(seconds, traced ? kTracedPasses : kStreamMinClean,
          [&] { return traced || timed.enough(); },
          [&] {
            setup_round();
            ++run;
            if (traced && run % 2 == 0) {
              StreamPass pass =
                  run_pass(run, kShards, PassMode::kTraced, false, false)
                      .first;
              traced_tps.push_back(static_cast<double>(n) / pass.wall_s);
              traced_runs.push_back(run);
              traced_passes.push_back(std::move(pass));
              return;
            }
            timed.start();
            const StreamPass pass =
                run_pass(run, kShards, PassMode::kPlain, true, false).first;
            timed.finish(static_cast<double>(n) / pass.wall_s);
          });

  if (!traced) {
    r.add("setup_s", median(setup_s), "s");
    timed.summary();  // printed only: see README, "Wall-clock metrics"
    r.add("peak_rss_mb", peak_rss_mib(), "MiB");
    r.add("makespan_steps", static_cast<double>(makespan), "steps");
    r.add("commit_latency_steps_p50",
          static_cast<double>(percentile(commit_latency, 50)), "steps");
    r.add("commit_latency_steps_p999",
          static_cast<double>(percentile(commit_latency, 99.9)), "steps");
    return r;
  }

  // Traced-run extras. The shards=1 replay is the single-threaded baseline
  // of the window path, paired back to back with a shards=2 pass (order
  // alternating) so host drift cancels within each pair. The metrics pass
  // reads the library's own arrival->admit histogram (metrics are off in
  // every other pass).
  std::vector<double> speedups;
  for (std::size_t i = 0; i < kReplayPairs; ++i) {
    double window_s[2] = {0, 0};  // [shards=1, shards=2]
    for (std::size_t j = 0; j < 2; ++j) {
      const std::size_t side = (i + j) % 2;
      window_s[side] = run_pass(++run, side == 0 ? 1 : kShards,
                                PassMode::kPlain, false, false)
                           .first.window_s;
    }
    speedups.push_back(ratio(window_s[0], window_s[1]));
  }
  MetricsRegistry& mreg = MetricsRegistry::global();
  mreg.reset();
  mreg.set_enabled(true);
  run_pass(++run, kShards, PassMode::kPlain, false, false);
  mreg.set_enabled(false);
  double first_window = 0, admitted_hist = 0;
  {
    const MetricsSnapshot ms = mreg.snapshot();
    const auto it = ms.histograms.find("stream.latency.arrival_to_admit");
    if (it != ms.histograms.end()) {
      admitted_hist = static_cast<double>(it->second.count);
      for (const auto& [bucket, count] : it->second.buckets) {
        if (hdr::bucket_upper(bucket) < static_cast<std::uint64_t>(kWindow)) {
          first_window += static_cast<double>(count);
        }
      }
    }
  }
  mreg.reset();

  const auto self = tr.self_times();
  std::vector<std::uint32_t> reps(setup_rep);
  for (std::uint32_t i = 0; i < setup_rep; ++i) reps[i] = kSetupRun + i;
  const StreamPass& last = traced_passes.back();
  const StreamStats& st = last.stats;
  const auto per_pass = [&](const std::function<double(const StreamPass&)>& f) {
    std::vector<double> v;
    for (const StreamPass& p : traced_passes) v.push_back(f(p));
    return median(std::move(v));
  };
  const double admitted = static_cast<double>(st.admitted);

  r.add("graph.build_s", median_self(self, "graph.build", reps), "s");
  r.add("graph.metric_s", median_self(self, "graph.metric", reps), "s");
  add_graph_metrics(r, g);
  r.add("core.validate_s", median_self(self, "core.validate", {0}), "s");
  r.add("sched.schedule_s", per_pass([](const StreamPass& p) {
          return timer_total_s(p.telemetry, "phase.sched.stream_window");
        }),
        "s");
  const double probes = counter(last.telemetry, "greedy.color_probes");
  r.add("sched.dep_edges", probes / 2, "count");
  r.add("sched.probes_per_txn",
        ratio(probes, counter(last.telemetry, "greedy.colored_txns")),
        "probe/txn");
  r.add("sim.runtime.construct_s",
        median_self(self, "sim.runtime.construct", traced_runs), "s");
  r.add("sim.runtime.ingest_s",
        median_self(self, "sim.runtime.ingest", traced_runs), "s");
  r.add("sim.runtime.ingest_us_p50", percentile(ingest_us, 50), "us");
  r.add("sim.runtime.ingest_us_p99", percentile(ingest_us, 99), "us");
  r.add("sim.runtime.window_s",
        median_self(self, "sim.runtime.window", traced_runs), "s");
  r.add("sim.runtime.drain_s",
        median_self(self, "sim.runtime.drain", traced_runs), "s");
  r.add("sim.runtime.windows", static_cast<double>(st.windows), "count");
  r.add("sim.runtime.txn_per_window",
        ratio(admitted, static_cast<double>(st.windows)), "txn");
  r.add("sim.runtime.dep_edges", static_cast<double>(st.dep_edges), "count");
  r.add("sim.runtime.arc_pool_mb",
        counter(last.telemetry, "stream.arc_pool_bytes") / (1024.0 * 1024.0),
        "MiB");
  r.add("sim.runtime.peak_backlog", static_cast<double>(st.peak_backlog),
        "txn");
  r.add("sim.runtime.mean_backlog", st.mean_backlog, "txn");
  r.add("sim.runtime.unattributed_s", median_self(self, "pass", traced_runs),
        "s");
  r.add("sim.admission.deferrals_per_txn",
        ratio(static_cast<double>(st.deferrals), static_cast<double>(n)),
        "1/txn");
  r.add("sim.admission.first_window_admit_frac",
        ratio(first_window, admitted_hist), "fraction");
  r.add("sim.admission.raises", static_cast<double>(last.raises), "count");
  r.add("sim.admission.cuts", static_cast<double>(last.cuts), "count");
  r.add("sim.shard.cross_frac",
        ratio(static_cast<double>(last.shard.cross_txns), admitted),
        "fraction");
  r.add("sim.shard.fixup_frac",
        ratio(static_cast<double>(last.shard.fixup_txns), admitted),
        "fraction");
  r.add("sim.shard.peak_members",
        static_cast<double>(last.shard.peak_shard_members), "txn");
  r.add("sim.shard.speedup", median(speedups), "x");
  const TimedPasses::Summary untraced = timed.add_to(r);
  r.add("trace.overhead_frac",
        1.0 - ratio(median(traced_tps), untraced.txn_per_s), "fraction");
  return r;
}

// --- main ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    DTM_REQUIRE(i + 1 < argc, "missing value for " << flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      DTM_REQUIRE(value == "0" || value == "1", "--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      DTM_REQUIRE(false, "unknown flag " << flag);
    }
  }
  DTM_REQUIRE(a.seconds > 0, "--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const Pinned* pin = nullptr;
  try {
    args = parse_args(argc, argv);
    for (const Pinned& p : kPinned) {
      if (args.workload == p.name) pin = &p;
    }
    DTM_REQUIRE(pin != nullptr, "unknown workload '" << args.workload << "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }

  Tracer tracer(args.trace);
  RunResult r;
  try {
    r = pin->workload == Workload::kBatchCluster
            ? run_batch(args.seed, args.seconds, tracer)
            : run_stream(pin->workload, args.seed, args.seconds, tracer);
  } catch (const std::exception& e) {
    r = {};
    r.fail(e.what());
    r.attempted = 1;
  }

  if (!args.trace) {
    r.add("txn_commit_frac",
          static_cast<double>(r.attempted - r.failed()) /
              static_cast<double>(r.attempted),
          "fraction");
  } else {
    finish_per_layer(r);
    if (!args.trace_out.empty() &&
        !tracer.write_jsonl(args.trace_out,
                            "{\"workload\":\"" + args.workload +
                                "\",\"seed\":" + std::to_string(args.seed) +
                                ",\"clock\":\"steady_clock\"}")) {
      r.fail("cannot write trace file " + args.trace_out);
    }
  }
  for (const std::string& e : r.errors) {
    std::cerr << "perfbench_driver: FAILED: " << e << "\n";
  }
  print_result(r);
  return r.correct ? 0 : 1;
}
