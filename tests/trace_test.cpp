// Tests for the structured tracing subsystem (util/trace.hpp) and the
// critical-path analyzer over its event stream (sim/trace_analysis.hpp).
//
//  * Recorder semantics: disabled-by-default no-op, begin/end id pairing,
//    open-span flagging, provenance merging, wall-domain exclusion from
//    the JSONL export, and concurrent wall-span recording (exercised
//    under TSan in CI).
//  * Determinism: the JSONL export of a seeded run is byte-identical
//    across two executions — the property that makes traces diffable.
//  * The critical-path invariant: on every topology fixture (the
//    faults_test recipe), fault-free and faulted, and on a composed
//    faults x capacity run, the reconstructed critical path tiles
//    [0, makespan] exactly and its segment lengths sum to the realized
//    makespan reported by the engine.
#include <gtest/gtest.h>

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
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_analysis.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace dtm {
namespace {

// The global recorder is shared across tests in this binary; every test
// starts from a clean, disabled recorder and leaves it disabled.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().clear();
  }
  void TearDown() override { TraceRecorder::global().set_enabled(false); }
};

// ------------------------------------------------------------- recorder

TEST_F(TraceTest, DisabledRecorderIsANoOp) {
  TraceRecorder& rec = TraceRecorder::global();
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.begin_span(TraceCat::kLeg, "link 0-1", "o0#0", 0), 0u);
  rec.end_span(0, 5);
  rec.span(TraceCat::kTxn, "node 0", "T0", 0, 5);
  rec.instant(TraceCat::kFault, "link 0-1", "outage", 3);
  EXPECT_EQ(rec.size(), 0u);
}

TEST_F(TraceTest, BeginEndPairsById) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  const std::uint64_t a = rec.begin_span(TraceCat::kLeg, "link 0-1", "a", 1);
  const std::uint64_t b = rec.begin_span(TraceCat::kLeg, "link 2-3", "b", 2);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  rec.end_span(b, 7);  // out of order on purpose
  rec.end_span(a, 4);

  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_FALSE(evs[0].open);
  EXPECT_EQ(evs[0].begin, 1);
  EXPECT_EQ(evs[0].end, 4);
  EXPECT_FALSE(evs[1].open);
  EXPECT_EQ(evs[1].end, 7);
}

TEST_F(TraceTest, UnendedSpanStaysFlaggedOpen) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  rec.begin_span(TraceCat::kLeg, "link 0-1", "dangling", 3);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_TRUE(evs[0].open);
}

TEST_F(TraceTest, ProvenanceMergesBuildInfoWithRunFields) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_provenance({{"seed", "9"}, {"scheduler", "greedy-ff"}});
  const auto prov = rec.provenance();
  EXPECT_EQ(prov.at("seed"), "9");
  EXPECT_EQ(prov.at("scheduler"), "greedy-ff");
  // Build info is always stamped (values depend on the build, but the
  // keys must be present and non-empty).
  for (const char* key : {"git_sha", "build_type", "compiler"}) {
    ASSERT_TRUE(prov.count(key)) << key;
    EXPECT_FALSE(prov.at(key).empty()) << key;
  }
}

TEST_F(TraceTest, JsonlSkipsWallDomainChromeKeepsIt) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  rec.span(TraceCat::kLeg, "link 0-1", "o0#0", 0, 4);
  const auto now = std::chrono::steady_clock::now();
  rec.wall_span(TraceCat::kPhase, "phase.test", now, now);

  const std::string jsonl = rec.to_jsonl();
  EXPECT_NE(jsonl.find("dtm-trace-jsonl-v1"), std::string::npos);
  EXPECT_NE(jsonl.find("o0#0"), std::string::npos);
  EXPECT_EQ(jsonl.find("phase.test"), std::string::npos);

  const std::string chrome = rec.to_chrome_json();
  EXPECT_NE(chrome.find("dtm-trace-chrome-v1"), std::string::npos);
  EXPECT_NE(chrome.find("phase.test"), std::string::npos);
  EXPECT_NE(chrome.find("host phases"), std::string::npos);
}

// Many threads record wall spans concurrently (the ThreadPool pattern);
// every span must land, on the right track, with distinct ids. This is
// the test the CI TSan job leans on.
TEST_F(TraceTest, ConcurrentWallSpansFromManyThreads) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      TraceRecorder::set_thread_track("worker " + std::to_string(i));
      for (int j = 0; j < kSpansPerThread; ++j) {
        const auto now = std::chrono::steady_clock::now();
        TraceRecorder::global().wall_span(TraceCat::kPhase, "phase.work", now,
                                          now);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto evs = rec.events();
  ASSERT_EQ(evs.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::vector<int> per_track(kThreads, 0);
  for (const auto& e : evs) {
    EXPECT_TRUE(e.wall);
    ASSERT_EQ(e.track.rfind("worker ", 0), 0u) << e.track;
    ++per_track[std::stoi(e.track.substr(7))];
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(per_track[i], kSpansPerThread) << "worker " << i;
  }
}

// -------------------------------------------------------------- fixtures
// The faults_test / engine_test topology recipe: seed = which * 131 + 7,
// 6 objects, 2 objects per transaction, greedy-ff.

struct Fixture {
  std::string name;
  std::unique_ptr<Line> line;
  std::unique_ptr<Grid> grid;
  std::unique_ptr<ClusterGraph> cluster;
  std::unique_ptr<Star> star;
  std::unique_ptr<Clique> clique;
  std::unique_ptr<Hypercube> hypercube;
  std::unique_ptr<Butterfly> butterfly;

  const Graph& graph() const {
    if (line) return line->graph;
    if (grid) return grid->graph;
    if (cluster) return cluster->graph;
    if (star) return star->graph;
    if (clique) return clique->graph;
    if (hypercube) return hypercube->graph;
    return butterfly->graph;
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

Instance fixture_instance(const Fixture& topo, int which) {
  Rng rng(static_cast<std::uint64_t>(which) * 131 + 7);
  return generate_uniform(topo.graph(),
                          {.num_objects = 6, .objects_per_txn = 2}, rng);
}

FaultConfig fixture_faults(int which) {
  FaultConfig fc;
  fc.link_outage_rate = 0.2;
  fc.loss_rate = 0.05;
  fc.seed = static_cast<std::uint64_t>(which) * 131 + 7;
  return fc;
}

// ------------------------------------------------- critical-path invariant

class CriticalPathInvariant : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().clear();
  }
  void TearDown() override { TraceRecorder::global().set_enabled(false); }
};

// Fault-free: the analytic engine path. Segment lengths must sum to the
// realized makespan with no chain violations.
TEST_P(CriticalPathInvariant, FaultFreeRunTilesMakespan) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);

  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  const SimResult r = simulate(inst, metric, s);
  rec.set_enabled(false);
  ASSERT_TRUE(r.ok) << topo.name << ": " << r.summary();

  const TraceSummary sum = summarize_trace(rec.events());
  EXPECT_TRUE(sum.problems.empty())
      << topo.name << ": " << sum.problems.front();
  EXPECT_EQ(sum.makespan, r.realized_makespan) << topo.name;
  EXPECT_EQ(sum.critical_total, r.realized_makespan) << topo.name;
  EXPECT_TRUE(sum.consistent()) << topo.name;
  EXPECT_FALSE(sum.critical_path.empty()) << topo.name;
}

// Faulted: outages, loss and retries drive the stepwise engine path; the
// invariant must survive reroutes and degraded commits.
TEST_P(CriticalPathInvariant, FaultedRunTilesMakespan) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);

  const FaultModel model(fixture_faults(which));
  SimOptions opts;
  opts.faults = &model;
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  const SimResult r = simulate(inst, metric, s, opts);
  rec.set_enabled(false);
  ASSERT_TRUE(r.ok) << topo.name << ": " << r.summary();

  const TraceSummary sum = summarize_trace(rec.events());
  EXPECT_TRUE(sum.problems.empty())
      << topo.name << ": " << sum.problems.front();
  EXPECT_EQ(sum.makespan, r.realized_makespan) << topo.name;
  EXPECT_EQ(sum.critical_total, r.realized_makespan) << topo.name;
  EXPECT_TRUE(sum.consistent()) << topo.name;
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, CriticalPathInvariant,
                         ::testing::Range(0, 7));

// Composed faults x capacity-1 FIFO links: queue waits appear in the trace
// and the transfer spans absorb them, so the invariant still holds.
TEST_F(TraceTest, CriticalPathHoldsUnderFaultsTimesCapacity) {
  const Fixture topo = make_fixture(2);  // grid
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, 2);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);

  const FaultModel model(fixture_faults(2));
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  const SimResult r = simulate(
      inst, metric, s,
      {.faults = &model, .capacity = 1, .earliest_commit = true});
  rec.set_enabled(false);
  ASSERT_TRUE(r.ok) << r.summary();

  const TraceSummary sum = summarize_trace(rec.events());
  EXPECT_TRUE(sum.problems.empty()) << sum.problems.front();
  EXPECT_EQ(sum.critical_total, r.realized_makespan);
  EXPECT_TRUE(sum.consistent());
  // Capacity-1 links on this fixture force queueing; the queue-wait spans
  // must surface in the summary.
  EXPECT_EQ(r.total_queue_wait > 0, !sum.queue_waits.empty());
}

// ----------------------------------------------------------- determinism

// The JSONL export of a seeded faulted run is byte-identical across two
// executions — the property that makes traces diffable artifacts.
TEST_F(TraceTest, JsonlExportIsByteIdenticalAcrossRuns) {
  const auto run_once = [] {
    const Fixture topo = make_fixture(2);
    const DenseMetric metric(topo.graph());
    const Instance inst = fixture_instance(topo, 2);
    const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);
    const FaultModel model(fixture_faults(2));
    SimOptions opts;
    opts.faults = &model;
    TraceRecorder& rec = TraceRecorder::global();
    rec.clear();
    rec.set_provenance({{"seed", "269"}});
    rec.set_enabled(true);
    const SimResult r = simulate(inst, metric, s, opts);
    rec.set_enabled(false);
    EXPECT_TRUE(r.ok) << r.summary();
    return rec.to_jsonl();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dtm
