// Tests for the metrics subsystem (util/metrics.hpp) and its streaming
// instrumentation (sim/runtime.cpp).
//
//  * hdr bucket geometry: exact unit range, power-of-two boundary round
//    trips, monotone index, 1/32 relative-error bound.
//  * Histogram percentiles against a sorted-vector nearest-rank oracle,
//    including values that straddle bucket boundaries.
//  * Snapshot merging is exactly associative and commutative and equals
//    single-recorder ground truth.
//  * The registry gate: disabled-by-default no-op recording, reset
//    semantics, stable handles, concurrent record() with exact totals
//    (the test the CI TSan job leans on).
//  * JSONL export is byte-deterministic for identical recordings.
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
  reg.set_enabled(true);
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
  reg.set_enabled(true);
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
  reg.set_enabled(true);
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
// Registry gate, reset, handles.

TEST(MetricsRegistry, DisabledByDefaultRecordingIsANoOp) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.gauge("g").set(7);
  reg.gauge("g").add(3);
  reg.histogram("h").record(42);
  reg.sample("window", {{"t", 8}});
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gauges.at("g"), 0);       // registered but never written
  EXPECT_EQ(snap.histograms.count("h"), 0u);  // zero-count hists are skipped
  EXPECT_TRUE(snap.samples.empty());
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  MetricGauge& g = reg.gauge("g");
  MetricHistogram& h = reg.histogram("h");
  g.set(5);
  h.record(9);
  reg.sample("window", {{"t", 1}});
  reg.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_TRUE(reg.snapshot().samples.empty());
  // The old references still work after reset.
  g.add(2);
  h.record(3);
  EXPECT_EQ(reg.snapshot().gauges.at("g"), 2);
  EXPECT_EQ(reg.snapshot().histograms.at("h").sum, 3u);
  // Same name, same handle.
  EXPECT_EQ(&reg.gauge("g"), &g);
  EXPECT_EQ(&reg.histogram("h"), &h);
}

// Concurrent record() must lose nothing: counts, sums, min/max, and every
// bucket agree exactly with a serial recording of the same multiset. This
// is the test the CI TSan job runs for the metrics layer.
TEST(MetricsRegistry, ConcurrentRecordIsExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  MetricsRegistry reg;
  reg.set_enabled(true);
  MetricHistogram& h = reg.histogram("h");
  MetricGauge& g = reg.gauge("g");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h, &g, i] {
      for (int j = 0; j < kPerThread; ++j) {
        h.record(static_cast<std::uint64_t>((i * 31 + j) % 1000));
        g.add(1);
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
}

// ------------------------------------------------------------------------
// JSONL export.

void record_fixture(MetricsRegistry& reg) {
  reg.set_enabled(true);
  reg.sample("window", {{"t", 8}, {"backlog", 2}, {"admitted", 3}});
  reg.sample("window", {{"t", 16}, {"backlog", 0}, {"admitted", 1}});
  reg.gauge("stream.admitted").set(4);
  reg.gauge("stream.arrived").set(4);
  MetricHistogram& h = reg.histogram("stream.latency.arrival_to_commit");
  for (std::uint64_t v : {3u, 5u, 40u, 41u}) h.record(v);
}

TEST(MetricsJsonl, ExportIsByteDeterministic) {
  MetricsRegistry r1;
  MetricsRegistry r2;
  record_fixture(r1);
  record_fixture(r2);
  const std::string j1 = r1.snapshot().to_jsonl();
  EXPECT_EQ(j1, r2.snapshot().to_jsonl());
  EXPECT_EQ(j1.rfind("{\"schema\":\"dtm-metrics-v1\"", 0), 0u);
  EXPECT_NE(j1.find("\"series\":\"window\""), std::string::npos);
  EXPECT_NE(j1.find("\"gauge\":\"stream.admitted\""), std::string::npos);
  EXPECT_NE(j1.find("\"hist\":\"stream.latency.arrival_to_commit\""),
            std::string::npos);
}

// ------------------------------------------------------------------------
// Streaming instrumentation.

// The global registry is shared across tests in this binary; start each
// streaming test from a clean, enabled registry and leave it disabled.
class StreamMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::global().reset();
    MetricsRegistry::global().set_enabled(true);
  }
  void TearDown() override {
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
  }
};

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
  opts.max_live_admitted = 24;
  StreamingRuntime rt(cg.graph, m, StreamingRuntime::spread_homes(cg.graph,
                                                                  kObjects),
                      opts);
  rt.ingest_all(*src);
  const StreamStats& st = rt.drain();

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
  const ArrivalTimes& arr = rt.arrivals();
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
  for (const MetricSample& row : snap.samples) {
    if (row.series != "window") continue;
    ++windows;
    for (const auto& [k, v] : row.fields) {
      if (k == "admitted") admitted += v;
    }
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
