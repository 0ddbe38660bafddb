// Tests for the metrics registry (util/metrics.hpp) and its streaming
// instrumentation (sim/runtime.cpp).
//
//  * hdr bucket geometry: exact unit range, power-of-two boundary round
//    trips, monotone index, 1/32 relative-error bound.
//  * Histogram percentiles against a sorted-vector nearest-rank oracle,
//    including values that straddle bucket boundaries.
//  * Snapshot merging is exactly associative and commutative and equals
//    single-recorder ground truth.
//  * The registry: counters, gauges, histograms and timers behind one
//    on-by-default gate, reset semantics, stable handles, concurrent adds
//    and record() with exact totals (the tests the CI TSan job leans on).
//  * Timers: exact count/total/min/max, nearest-rank bucket percentiles.
//  * The JSONL sink: byte-deterministic, samples written only while a sink
//    is attached (nothing retained otherwise), and a seeded stream's output
//    pinned byte for byte to the dtm-metrics-v1 golden layout.
//  * Streaming latency stages tile arrival->commit exactly and reconcile
//    with the runtime's own schedule and stats.
//  * Cross-check against the tracing spine: on every topology fixture an
//    all-arrive-at-0 stream's `stream.latency.arrival_to_commit`
//    histogram agrees (count/sum/min/max and bucketed percentiles) with
//    the arrival->commit latency trace_summarize reconstructs from the
//    engine replay of the same schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/generators.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/butterfly.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "sim/engine.hpp"
#include "sim/link_policy.hpp"
#include "sim/runtime.hpp"
#include "sim/trace_analysis.hpp"
#include "util/error.hpp"
#include "util/json_reader.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace dtm {
namespace {

// ------------------------------------------------------------------------
// Bucket geometry.

TEST(HdrGeometry, UnitRangeIsExact) {
  for (std::uint64_t v = 0; v < 2 * hdr::kSubBuckets; ++v) {
    EXPECT_EQ(hdr::bucket_index(v), v);
    EXPECT_EQ(hdr::bucket_lower(static_cast<std::uint32_t>(v)), v);
    EXPECT_EQ(hdr::bucket_upper(static_cast<std::uint32_t>(v)), v);
  }
}

TEST(HdrGeometry, PowerOfTwoBoundariesRoundTrip) {
  for (std::uint32_t m = hdr::kSubBucketBits; m < 64; ++m) {
    const std::uint64_t v = std::uint64_t{1} << m;
    const std::uint32_t idx = hdr::bucket_index(v);
    // 2^m opens its octave: it is its own bucket lower bound.
    EXPECT_EQ(hdr::bucket_lower(idx), v) << "m=" << m;
    // 2^m - 1 closes the previous octave's last bucket.
    EXPECT_EQ(hdr::bucket_index(v - 1), idx - 1) << "m=" << m;
    EXPECT_EQ(hdr::bucket_upper(idx - 1), v - 1) << "m=" << m;
    if (m < 63) {
      // Sub-buckets have width 2^(m-5): v+1 shares v's bucket from the
      // second log octave on, and gets its own while the width is 1.
      EXPECT_EQ(hdr::bucket_index(v + 1),
                m > hdr::kSubBucketBits ? idx : idx + 1)
          << "m=" << m;
    }
  }
  EXPECT_EQ(hdr::bucket_index(~std::uint64_t{0}), hdr::kNumBuckets - 1);
  EXPECT_EQ(hdr::bucket_upper(hdr::kNumBuckets - 1), ~std::uint64_t{0});
}

TEST(HdrGeometry, IndexIsMonotoneAndBracketsItsValue) {
  std::uint32_t prev = 0;
  for (std::uint64_t v = 0; v < 5000; ++v) {
    const std::uint32_t idx = hdr::bucket_index(v);
    EXPECT_GE(idx, prev) << v;
    EXPECT_LE(hdr::bucket_lower(idx), v) << v;
    EXPECT_GE(hdr::bucket_upper(idx), v) << v;
    prev = idx;
  }
}

TEST(HdrGeometry, RelativeErrorIsBoundedByOneThirtySecond) {
  // Above the exact range every bucket's width times kSubBuckets fits
  // inside its own lower bound: width = 2^octave, lower >= 32 * 2^octave.
  for (std::uint32_t idx = 2 * hdr::kSubBuckets; idx + 1 < hdr::kNumBuckets;
       ++idx) {
    const std::uint64_t lower = hdr::bucket_lower(idx);
    const std::uint64_t width = hdr::bucket_upper(idx) - lower + 1;
    EXPECT_LE(width * hdr::kSubBuckets, lower) << idx;
  }
}

// ------------------------------------------------------------------------
// Percentiles vs a sorted-vector oracle.

/// Nearest-rank oracle: the value percentile() must land in the bucket of.
std::uint64_t oracle_value(std::vector<std::uint64_t> values, double p) {
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  return values[rank - 1];
}

TEST(Histogram, PercentileMatchesSortedVectorOracle) {
  MetricsRegistry reg;
  MetricHistogram& h = reg.histogram("h");
  // Values straddling exact-unit and log-bucket ranges, with repeats and
  // boundary cases (31, 32, 63, 64, 2^k +/- 1).
  const std::vector<std::uint64_t> values = {
      0, 1, 1, 3, 7, 13, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129,
      511, 512, 513, 1000, 1023, 1024, 4097, 65535, 65536, 1u << 20};
  for (std::uint64_t v : values) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double p : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                   100.0}) {
    EXPECT_EQ(snap.percentile(p),
              hdr::bucket_lower(hdr::bucket_index(oracle_value(values, p))))
        << "p" << p;
  }
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, std::uint64_t{1} << 20);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  MetricsRegistry reg;
  const HistogramSnapshot snap = reg.histogram("h").snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.percentile(50.0), 0u);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_TRUE(snap.buckets.empty());
}

// ------------------------------------------------------------------------
// Merging.

HistogramSnapshot record_all(MetricsRegistry& reg, const std::string& name,
                             const std::vector<std::uint64_t>& values) {
  MetricHistogram& h = reg.histogram(name);
  for (std::uint64_t v : values) h.record(v);
  return h.snapshot();
}

TEST(Histogram, MergeIsAssociativeCommutativeAndLossless) {
  MetricsRegistry reg;
  const std::vector<std::uint64_t> va = {1, 5, 33, 1000};
  const std::vector<std::uint64_t> vb = {0, 33, 64, 70000};
  const std::vector<std::uint64_t> vc = {2, 2, 2, 511, 512};
  const HistogramSnapshot a = record_all(reg, "a", va);
  const HistogramSnapshot b = record_all(reg, "b", vb);
  const HistogramSnapshot c = record_all(reg, "c", vc);

  // Single-recorder ground truth over the union.
  std::vector<std::uint64_t> all = va;
  all.insert(all.end(), vb.begin(), vb.end());
  all.insert(all.end(), vc.begin(), vc.end());
  const HistogramSnapshot truth = record_all(reg, "all", all);

  HistogramSnapshot ab = a;
  ab.merge(b);
  HistogramSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);  // commutative

  HistogramSnapshot ab_c = ab;
  ab_c.merge(c);
  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);  // associative
  EXPECT_EQ(ab_c, truth);  // lossless

  // Identity: merging an empty snapshot changes nothing either way.
  HistogramSnapshot empty;
  HistogramSnapshot a2 = a;
  a2.merge(empty);
  EXPECT_EQ(a2, a);
  HistogramSnapshot e2 = empty;
  e2.merge(a);
  EXPECT_EQ(e2, a);
}

// ------------------------------------------------------------------------
// Registry: counters, gate, reset, handles.

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry reg;
  MetricCounter& c = reg.counter("metric.distance_queries");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.snapshot().counters.at("metric.distance_queries"), 42u);
}

TEST(MetricsRegistry, GlobalHelpersHitGlobalRegistry) {
  MetricsRegistry& g = MetricsRegistry::global();
  const std::uint64_t before = g.counter("metrics_test.global_probe").value();
  metrics::count("metrics_test.global_probe", 3);
  EXPECT_EQ(g.counter("metrics_test.global_probe").value(), before + 3);
  EXPECT_EQ(&metrics::counter("metrics_test.global_probe"),
            &g.counter("metrics_test.global_probe"));
}

/// Records one value of every kind: counter, gauge, histogram, timer.
void record_one_of_each(MetricsRegistry& reg) {
  reg.counter("c").add(5);
  reg.gauge("g").set(7);
  reg.histogram("h").record(42);
  { ScopedPhaseTimer timer("phase.t", reg); }
}

TEST(MetricsRegistry, EnabledByDefault) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.enabled());
  record_one_of_each(reg);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 5u);
  EXPECT_EQ(snap.gauges.at("g"), 7);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.timers.at("phase.t").count, 1u);
}

// One set_enabled(false) silences all four kinds and the sink's samples;
// existing values are kept, and turning the gate back on resumes.
TEST(MetricsRegistry, OneGateSilencesEveryKind) {
  MetricsRegistry reg;
  record_one_of_each(reg);
  reg.set_enabled(false);
  EXPECT_FALSE(reg.enabled());
  record_one_of_each(reg);
  reg.counter("c").add(100);
  reg.gauge("g").add(3);
  reg.timer("phase.t").record(9);
  std::ostringstream out;
  MetricsSink sink(out, reg);
  reg.sample("window", {{"t", 8}});
  sink.finish();
  EXPECT_EQ(out.str().find("\"series\""), std::string::npos) << out.str();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 5u) << "adds while disabled must not store";
  EXPECT_EQ(snap.gauges.at("g"), 7);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.timers.at("phase.t").count, 1u);

  reg.set_enabled(true);
  record_one_of_each(reg);
  const MetricsSnapshot again = reg.snapshot();
  EXPECT_EQ(again.counters.at("c"), 10u);
  EXPECT_EQ(again.histograms.at("h").count, 2u);
  EXPECT_EQ(again.timers.at("phase.t").count, 2u);
}

TEST(MetricsRegistry, ResetZeroesEveryKindButKeepsHandles) {
  MetricsRegistry reg;
  MetricCounter& c = reg.counter("c");
  MetricGauge& g = reg.gauge("g");
  MetricHistogram& h = reg.histogram("h");
  record_one_of_each(reg);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
  const MetricsSnapshot zeroed = reg.snapshot();
  EXPECT_EQ(zeroed.counters.at("c"), 0u);
  EXPECT_EQ(zeroed.gauges.at("g"), 0);
  EXPECT_TRUE(zeroed.histograms.empty());  // zero-count hists are skipped
  EXPECT_TRUE(zeroed.timers.empty());      // and so are empty timers
  // The old references still work after reset.
  c.add(2);
  g.add(2);
  h.record(3);
  reg.timer("phase.t").record(4);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 2u);
  EXPECT_EQ(snap.gauges.at("g"), 2);
  EXPECT_EQ(snap.histograms.at("h").sum, 3u);
  EXPECT_EQ(snap.timers.at("phase.t").total_ns, 4.0);
  // Same name, same handle.
  EXPECT_EQ(&reg.counter("c"), &c);
  EXPECT_EQ(&reg.gauge("g"), &g);
  EXPECT_EQ(&reg.histogram("h"), &h);
}

// Concurrent adds and record() must lose nothing: counts, sums, min/max,
// and every bucket agree exactly with a serial recording of the same
// multiset. This is the test the CI TSan job runs for the registry.
TEST(MetricsRegistry, ConcurrentRecordIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  MetricsRegistry reg;
  MetricHistogram& h = reg.histogram("h");
  MetricGauge& g = reg.gauge("g");
  MetricCounter& c = reg.counter("c");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h, &g, &c, &reg, i] {
      for (int j = 0; j < kPerThread; ++j) {
        h.record(static_cast<std::uint64_t>((i * 31 + j) % 1000));
        g.add(1);
        c.add();
        if (j % 1000 == 0) reg.timer("phase.t").record(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  MetricHistogram& serial = reg.histogram("serial");
  for (int i = 0; i < kThreads; ++i) {
    for (int j = 0; j < kPerThread; ++j) {
      serial.record(static_cast<std::uint64_t>((i * 31 + j) % 1000));
    }
  }
  EXPECT_EQ(h.snapshot(), serial.snapshot());
  EXPECT_EQ(h.snapshot().count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(g.value(), kThreads * kPerThread);
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(reg.snapshot().timers.at("phase.t").count,
            static_cast<std::uint64_t>(kThreads * kPerThread / 1000));
}

// ------------------------------------------------------------------------
// Timers.

TEST(Timers, ScopedTimerRecordsSample) {
  MetricsRegistry reg;
  { ScopedPhaseTimer timer("phase.test", reg); }
  { ScopedPhaseTimer timer("phase.test", reg); }
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_TRUE(snap.timers.count("phase.test"));
  const TimerStats& ts = snap.timers.at("phase.test");
  EXPECT_EQ(ts.count, 2u);
  EXPECT_GE(ts.max_ns, ts.min_ns);
  EXPECT_GE(ts.mean_ns, 0.0);
  EXPECT_LE(ts.p50_ns, ts.p99_ns);
}

// count, total, min and max are exact; mean is total / count; every
// percentile is the nearest-rank sample's bucket lower bound, so within
// 1/32 below the exact sample.
TEST(Timers, StatsFromKnownSamples) {
  MetricsRegistry reg;
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 1; i <= 200; ++i) samples.push_back(i * 7919 + 13);
  std::uint64_t total = 0;
  for (std::uint64_t ns : samples) {
    reg.timer("t").record(ns);
    total += ns;
  }
  const TimerStats ts = reg.snapshot().timers.at("t");
  EXPECT_EQ(ts.count, samples.size());
  EXPECT_EQ(ts.total_ns, static_cast<double>(total));
  EXPECT_EQ(ts.mean_ns,
            static_cast<double>(total) / static_cast<double>(samples.size()));
  EXPECT_EQ(ts.min_ns, static_cast<double>(samples.front()));
  EXPECT_EQ(ts.max_ns, static_cast<double>(samples.back()));
  const std::pair<double, double> pcts[] = {
      {50, ts.p50_ns}, {90, ts.p90_ns}, {95, ts.p95_ns}, {99, ts.p99_ns}};
  for (const auto& [p, got] : pcts) {
    const auto exact = static_cast<double>(oracle_value(samples, p));
    EXPECT_LE(got, exact) << "p" << p;
    EXPECT_GE(got, exact * (1.0 - 1.0 / 32)) << "p" << p;
    EXPECT_EQ(got, static_cast<double>(hdr::bucket_lower(
                       hdr::bucket_index(oracle_value(samples, p)))))
        << "p" << p;
  }
}

TEST(Timers, SnapshotJsonHasCountersAndTimers) {
  MetricsRegistry reg;
  reg.counter("a.b").add(7);
  reg.counter("zero");  // registered, never added: left out
  reg.timer("phase.x").record(1000);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\":{\"a.b\":7}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"phase.x\":{\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_ns\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos) << json;
  reg.histogram("h").record(3);
  EXPECT_NE(reg.snapshot().to_json().find("\"metrics\":{\"gauges\":{},"),
            std::string::npos);
}

// ------------------------------------------------------------------------
// JSONL sink.

/// Records a fixed set of samples, gauges, histograms, a counter and a
/// timer into `reg` with a sink attached; returns the document.
std::string sink_fixture(MetricsRegistry& reg) {
  std::ostringstream out;
  MetricsSink sink(out, reg);
  reg.sample("window", {{"t", 8}, {"backlog", 2}, {"admitted", 3}});
  reg.sample("window", {{"t", 16}, {"backlog", 0}, {"admitted", 1}});
  reg.gauge("stream.admitted").set(4);
  reg.gauge("stream.arrived").set(4);
  MetricHistogram& h = reg.histogram("stream.latency.arrival_to_commit");
  for (std::uint64_t v : {3u, 5u, 40u, 41u}) h.record(v);
  reg.counter("stream.windows").add(2);
  reg.timer("phase.sched.stream_window").record(1234);
  sink.finish();
  return out.str();
}

TEST(MetricsJsonl, SinkIsByteDeterministic) {
  MetricsRegistry r1;
  MetricsRegistry r2;
  const std::string j1 = sink_fixture(r1);
  EXPECT_EQ(j1, sink_fixture(r2));
  EXPECT_EQ(j1.rfind("{\"schema\":\"dtm-metrics-v1\"", 0), 0u);
  EXPECT_NE(j1.find("\"series\":\"window\""), std::string::npos);
  EXPECT_NE(j1.find("\"gauge\":\"stream.admitted\""), std::string::npos);
  EXPECT_NE(j1.find("\"hist\":\"stream.latency.arrival_to_commit\""),
            std::string::npos);
  // Counters and wall-clock timers never reach the deterministic JSONL.
  EXPECT_EQ(j1.find("stream.windows"), std::string::npos) << j1;
  EXPECT_EQ(j1.find("phase.sched.stream_window"), std::string::npos) << j1;
}

TEST(MetricsJsonl, SamplesWithoutASinkAreDropped) {
  MetricsRegistry reg;
  reg.sample("window", {{"t", 8}});
  std::ostringstream out;
  {
    MetricsSink sink(out, reg);
    EXPECT_THROW(MetricsSink(out, reg), Error);  // one open sink at a time
    reg.sample("window", {{"t", 16}});
    sink.finish();
    EXPECT_THROW(sink.finish(), Error);
    reg.sample("window", {{"t", 24}});
  }
  {
    // A sink destroyed unfinished closes the stream without a tail.
    std::ostringstream unfinished;
    MetricsSink sink(unfinished, reg);
  }
  reg.sample("window", {{"t", 32}});
  EXPECT_EQ(out.str().find("\"t\":8"), std::string::npos);
  EXPECT_NE(out.str().find("{\"series\":\"window\",\"t\":16}\n"),
            std::string::npos);
  EXPECT_EQ(out.str().find("\"t\":24"), std::string::npos);
  EXPECT_EQ(out.str().find("\"t\":32"), std::string::npos);
}

/// The document's lines after the provenance header.
std::vector<std::string> body_lines(const std::string& jsonl) {
  std::vector<std::string> lines;
  std::istringstream in(jsonl);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ------------------------------------------------------------------------
// Streaming instrumentation.

// The global registry is shared across tests in this binary; start each
// streaming test from a zeroed registry and leave it zeroed.
class StreamMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::global().reset(); }
  void TearDown() override { MetricsRegistry::global().reset(); }
};

/// The golden stream: bursty arrivals on a two-shard cluster under AIMD
/// admission, so its JSONL carries "window" and "shard" rows, the quota
/// gauge and all four latency histograms.
void run_golden_stream() {
  const ClusterGraph cg(2, 3, 4);
  const DenseMetric m(cg.graph);
  ArrivalStreamOptions so;
  so.num_txns = 40;
  so.num_objects = 8;
  so.objects_per_txn = 2;
  so.rate = 1.5;
  auto src = make_arrival_source(ArrivalModel::kBursty, cg.graph, so, 5);
  StreamingRuntimeOptions opts;
  opts.window = 8;
  opts.shards = 2;
  opts.admission.policy = AdmissionPolicy::kAimd;
  opts.admission.min_live = 4;
  opts.admission.increase = 4;
  opts.admission.decrease = 0.5;
  StreamingRuntime rt(cg.graph, m, StreamingRuntime::spread_homes(cg.graph, 8),
                      opts);
  rt.ingest_all(*src);
  rt.drain();
}

// The golden stream's dtm-metrics-v1 document below the provenance
// header, pinned byte for byte: samples in recording order, then gauges,
// then histograms, each in name order. stream_report and every exported
// metrics file rely on this layout.
constexpr const char* kGoldenStreamJsonl = R"jsonl({"series":"window","t":8,"backlog":32,"admitted":4,"deferred":28,"quota":4,"live":4,"retired":0,"colors":8}
{"series":"shard","t":8,"shards":2,"batch":4,"local":2,"cross":2,"fixup":4,"peak_members":0}
{"series":"window","t":16,"backlog":29,"admitted":7,"deferred":21,"quota":8,"live":8,"retired":3,"colors":14}
{"series":"shard","t":16,"shards":2,"batch":7,"local":3,"cross":4,"fixup":6,"peak_members":1}
{"series":"window","t":24,"backlog":36,"admitted":1,"deferred":28,"quota":8,"live":8,"retired":1,"colors":1}
{"series":"shard","t":24,"shards":2,"batch":1,"local":1,"cross":0,"fixup":0,"peak_members":1}
{"series":"window","t":32,"backlog":32,"admitted":8,"deferred":20,"quota":12,"live":12,"retired":4,"colors":9}
{"series":"shard","t":32,"shards":2,"batch":8,"local":4,"cross":4,"fixup":8,"peak_members":0}
{"series":"window","t":40,"backlog":30,"admitted":2,"deferred":18,"quota":12,"live":12,"retired":2,"colors":1}
{"series":"shard","t":40,"shards":2,"batch":2,"local":0,"cross":2,"fixup":2,"peak_members":0}
{"series":"window","t":48,"backlog":28,"admitted":2,"deferred":16,"quota":12,"live":12,"retired":2,"colors":7}
{"series":"shard","t":48,"shards":2,"batch":2,"local":1,"cross":1,"fixup":2,"peak_members":0}
{"series":"window","t":56,"backlog":21,"admitted":7,"deferred":9,"quota":12,"live":12,"retired":7,"colors":7}
{"series":"shard","t":56,"shards":2,"batch":7,"local":2,"cross":5,"fixup":7,"peak_members":0}
{"series":"window","t":64,"backlog":20,"admitted":1,"deferred":8,"quota":12,"live":12,"retired":1,"colors":1}
{"series":"shard","t":64,"shards":2,"batch":1,"local":0,"cross":1,"fixup":1,"peak_members":0}
{"series":"window","t":72,"backlog":17,"admitted":3,"deferred":5,"quota":12,"live":12,"retired":3,"colors":2}
{"series":"shard","t":72,"shards":2,"batch":3,"local":2,"cross":1,"fixup":2,"peak_members":1}
{"series":"window","t":80,"backlog":16,"admitted":1,"deferred":4,"quota":12,"live":12,"retired":1,"colors":1}
{"series":"shard","t":80,"shards":2,"batch":1,"local":0,"cross":1,"fixup":1,"peak_members":0}
{"series":"window","t":88,"backlog":10,"admitted":4,"deferred":0,"quota":12,"live":10,"retired":6,"colors":3}
{"series":"shard","t":88,"shards":2,"batch":4,"local":1,"cross":3,"fixup":3,"peak_members":1}
{"gauge":"admission.quota","value":12}
{"gauge":"stream.admitted","value":40}
{"gauge":"stream.arrived","value":40}
{"gauge":"stream.committed","value":40}
{"gauge":"stream.deferrals","value":157}
{"gauge":"stream.makespan","value":114}
{"gauge":"stream.peak_backlog","value":36}
{"gauge":"stream.windows","value":11}
{"hist":"stream.latency.admit_to_scheduled","count":40,"sum":813,"min":6,"max":33,"buckets":[[6,4],[12,7],[18,8],[19,1],[24,6],[25,2],[26,1],[28,7],[31,3],[33,1]]}
{"hist":"stream.latency.arrival_to_admit","count":40,"sum":1496,"min":7,"max":66,"buckets":[[7,4],[15,7],[23,1],[31,8],[39,2],[47,2],[50,3],[55,7],[58,1],[63,1],[65,4]]}
{"hist":"stream.latency.arrival_to_commit","count":40,"sum":2428,"min":14,"max":97,"buckets":[[14,2],[15,1],[21,1],[28,3],[29,1],[34,1],[40,1],[41,1],[43,1],[50,2],[51,2],[52,2],[53,1],[58,1],[64,2],[68,1],[71,1],[73,3],[74,5],[75,2],[77,3],[78,2],[80,1]]}
{"hist":"stream.latency.scheduled_to_commit","count":40,"sum":119,"min":1,"max":14,"buckets":[[1,20],[2,7],[3,4],[4,2],[7,3],[8,1],[9,1],[13,1],[14,1]]}
)jsonl";

TEST_F(StreamMetricsTest, SinkMatchesTheGoldenLayoutByteForByte) {
  std::ostringstream out;
  MetricsSink sink(out);
  run_golden_stream();
  sink.finish();
  const std::string jsonl = out.str();
  ASSERT_EQ(jsonl.rfind("{\"schema\":\"dtm-metrics-v1\",\"provenance\":{", 0),
            0u);
  EXPECT_EQ(jsonl.substr(jsonl.find('\n') + 1), kGoldenStreamJsonl);
}

// A stream run with no sink attached leaves no sample rows behind: a sink
// attached afterwards sees only the end-of-run gauges and histograms.
TEST_F(StreamMetricsTest, StreamWithoutASinkRetainsNoSamples) {
  run_golden_stream();
  std::ostringstream out;
  MetricsSink(out).finish();
  const std::vector<std::string> lines = body_lines(out.str());
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("{\"series\"", 0), std::string::npos) << line;
  }
  EXPECT_NE(out.str().find("\"hist\":\"stream.latency.arrival_to_commit\""),
            std::string::npos);
}

TEST_F(StreamMetricsTest, LatencyStagesTileArrivalToCommitExactly) {
  const ClusterGraph cg(3, 4, 6);
  const DenseMetric m(cg.graph);
  constexpr std::size_t kObjects = 12;
  ArrivalStreamOptions so;
  so.num_txns = 120;
  so.num_objects = kObjects;
  so.objects_per_txn = 2;
  so.rate = 1.5;
  auto src = make_arrival_source(ArrivalModel::kPoisson, cg.graph, so, 17);
  StreamingRuntimeOptions opts;
  opts.window = 8;
  opts.admission.max_live = 24;
  StreamingRuntime rt(cg.graph, m, StreamingRuntime::spread_homes(cg.graph,
                                                                  kObjects),
                      opts);
  std::ostringstream jsonl;
  MetricsSink sink(jsonl);
  rt.ingest_all(*src);
  const StreamStats& st = rt.drain();
  sink.finish();

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const HistogramSnapshot& wait =
      snap.histograms.at("stream.latency.arrival_to_admit");
  const HistogramSnapshot& sched =
      snap.histograms.at("stream.latency.admit_to_scheduled");
  const HistogramSnapshot& commit =
      snap.histograms.at("stream.latency.scheduled_to_commit");
  const HistogramSnapshot& total =
      snap.histograms.at("stream.latency.arrival_to_commit");

  // One sample per admitted transaction in every stage.
  EXPECT_EQ(wait.count, st.admitted);
  EXPECT_EQ(sched.count, st.admitted);
  EXPECT_EQ(commit.count, st.admitted);
  EXPECT_EQ(total.count, st.admitted);

  // The stages tile the total exactly.
  EXPECT_EQ(wait.sum + sched.sum + commit.sum, total.sum);
  // Commit wait is the in-window color slot, always >= 1.
  EXPECT_GE(commit.min, 1u);

  // Ground truth from the materialized schedule: the histogram's total is
  // sum over transactions of commit - arrival.
  const Schedule s = rt.schedule();
  const std::span<const Time> arr = rt.arrivals();
  ASSERT_EQ(s.commit_time.size(), arr.size());
  std::uint64_t want_sum = 0;
  for (std::size_t t = 0; t < arr.size(); ++t) {
    ASSERT_GE(s.commit_time[t], arr[t]);
    want_sum += static_cast<std::uint64_t>(s.commit_time[t] - arr[t]);
  }
  EXPECT_EQ(total.sum, want_sum);
  EXPECT_EQ(total.count, arr.size());

  // Window samples reconcile with the run's stats.
  std::int64_t admitted = 0;
  std::size_t windows = 0;
  for (const std::string& line : body_lines(jsonl.str())) {
    const JsonValue row = JsonReader(line).parse();
    const JsonValue* series = row.find("series");
    if (series == nullptr || series->str != "window") continue;
    ++windows;
    admitted += static_cast<std::int64_t>(row.find("admitted")->number);
  }
  EXPECT_EQ(static_cast<std::size_t>(admitted), st.admitted);
  EXPECT_GE(windows, st.windows);  // empty windows sample too
  EXPECT_EQ(snap.gauges.at("stream.admitted"),
            static_cast<std::int64_t>(st.admitted));
  EXPECT_EQ(snap.gauges.at("stream.makespan"),
            static_cast<std::int64_t>(st.makespan));
}

// ------------------------------------------------------------------------
// Cross-check against the tracing spine (the 7 golden fixtures).

struct Fixture {
  std::string name;
  std::unique_ptr<Clique> clique;
  std::unique_ptr<Line> line;
  std::unique_ptr<Grid> grid;
  std::unique_ptr<ClusterGraph> cluster;
  std::unique_ptr<Hypercube> hypercube;
  std::unique_ptr<Butterfly> butterfly;
  std::unique_ptr<Star> star;

  const Graph& graph() const {
    if (clique) return clique->graph;
    if (line) return line->graph;
    if (grid) return grid->graph;
    if (cluster) return cluster->graph;
    if (hypercube) return hypercube->graph;
    if (butterfly) return butterfly->graph;
    return star->graph;
  }
};

Fixture make_fixture(int which) {
  Fixture f;
  switch (which) {
    case 0:
      f.name = "clique";
      f.clique = std::make_unique<Clique>(10);
      break;
    case 1:
      f.name = "line";
      f.line = std::make_unique<Line>(16);
      break;
    case 2:
      f.name = "grid";
      f.grid = std::make_unique<Grid>(5);
      break;
    case 3:
      f.name = "cluster";
      f.cluster = std::make_unique<ClusterGraph>(3, 4, 6);
      break;
    case 4:
      f.name = "hypercube";
      f.hypercube = std::make_unique<Hypercube>(4);
      break;
    case 5:
      f.name = "butterfly";
      f.butterfly = std::make_unique<Butterfly>(2);
      break;
    default:
      f.name = "star";
      f.star = std::make_unique<Star>(4, 4);
      break;
  }
  return f;
}

// On an all-arrive-at-step-0 stream the metrics histogram records
// commit - 0 per transaction, and the trace analyzer's latency block over
// the engine replay measures realized commit ends under the batch
// convention (arrival step 0) — the two observability paths must agree.
TEST_F(StreamMetricsTest, TraceLatencyAgreesWithHistogramOnAllFixtures) {
  for (int which = 0; which < 7; ++which) {
    const Fixture f = make_fixture(which);
    const DenseMetric m(f.graph());
    constexpr std::size_t kObjects = 12;
    MetricsRegistry::global().reset();

    StreamingRuntimeOptions opts;
    opts.window = 4;
    StreamingRuntime rt(f.graph(), m,
                        StreamingRuntime::spread_homes(f.graph(), kObjects),
                        opts);
    for (TxnId t = 0; t < 40; ++t) {
      ArrivingTxn txn;
      txn.arrival = 0;
      txn.home = static_cast<NodeId>(t % f.graph().num_nodes());
      const auto a = static_cast<ObjectId>(t % kObjects);
      const auto b = static_cast<ObjectId>((t + 5) % kObjects);
      txn.objects = a == b ? std::vector<ObjectId>{a}
                           : std::vector<ObjectId>{std::min(a, b),
                                                   std::max(a, b)};
      rt.ingest(txn);
    }
    rt.drain();
    const HistogramSnapshot hist =
        MetricsRegistry::global()
            .snapshot()
            .histograms.at("stream.latency.arrival_to_commit");
    ASSERT_EQ(hist.count, 40u) << f.name;

    // Replay the materialized schedule through the traced engine.
    TraceRecorder& rec = TraceRecorder::global();
    rec.clear();
    rec.set_enabled(true);
    const Instance inst = rt.materialize();
    const Schedule s = rt.schedule();
    EngineConfig eo;
    eo.discipline = CommitDiscipline::kPlannedDegraded;
    eo.telemetry = false;
    BoundedCapacityLinks links(m, 0);
    const SimResult r = Engine(inst, m, s, links, eo).run();
    const auto events = rec.events();
    rec.set_enabled(false);
    rec.clear();
    ASSERT_TRUE(r.ok) << f.name;

    const TraceSummary sum = summarize_trace(events);
    EXPECT_TRUE(sum.consistent()) << f.name;
    ASSERT_EQ(sum.latency.count, hist.count) << f.name;
    EXPECT_EQ(static_cast<std::uint64_t>(sum.latency.sum), hist.sum)
        << f.name;
    EXPECT_EQ(static_cast<std::uint64_t>(sum.latency.min), hist.min)
        << f.name;
    EXPECT_EQ(static_cast<std::uint64_t>(sum.latency.max), hist.max)
        << f.name;

    // Percentiles: the histogram reports the bucket lower bound of the
    // nearest-rank realized commit.
    std::vector<std::uint64_t> realized;
    realized.reserve(sum.slack.size());
    for (const TxnSlack& ts : sum.slack) {
      realized.push_back(static_cast<std::uint64_t>(ts.realized));
    }
    for (double p : {50.0, 95.0, 99.0}) {
      EXPECT_EQ(hist.percentile(p),
                hdr::bucket_lower(hdr::bucket_index(oracle_value(realized,
                                                                 p))))
          << f.name << " p" << p;
    }
  }
}

}  // namespace
}  // namespace dtm
