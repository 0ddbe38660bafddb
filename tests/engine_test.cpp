// Tests for the unified execution engine (sim/engine.hpp) and its
// LinkPolicy substrates.
//
//  * Pre-engine golden pinning: simulate() with capacity = 0 and no fault
//    model reproduces the exact aggregates the pre-refactor simulator
//    produced on the faults_test topology fixtures (planned/realized
//    makespan, travel, count of move and commit records) — the
//    refactor's bit-identity anchor.
//  * Trace equivalence: the leg records of the engine's log on a feasible
//    reliable run equal planned_leg_trace(), and analyze_congestion()
//    matches an independent interval-overlap accumulator over that trace.
//  * Faults × capacity: the composition the engine unlocked — bounded
//    FIFO links and a fault model in one run — against hand-computed
//    outcomes (outage stalls the queued object, rerouting detours it)
//    and the ideal-substrate lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
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
#include "sim/congestion.hpp"
#include "sim/engine.hpp"
#include "sim/link_policy.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_analysis.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

// The faults_test topology fixtures (same recipe: seed = which * 131 + 7,
// 6 objects, 2 objects/txn, greedy-ff).
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

// ------------------------------------------------------------------------
// Golden pinning: these aggregates were captured from the pre-engine
// simulator on the fixtures above; the engine-backed simulate() must keep
// reproducing them bit for bit.

struct GoldenRow {
  Time planned;
  Time realized;
  Weight travel;
  std::size_t events;  // move (depart/hop/arrive) and commit records
};

std::size_t moves_and_commits(const std::vector<SimEvent>& log) {
  return static_cast<std::size_t>(
      std::count_if(log.begin(), log.end(),
                    [](const SimEvent& e) { return e.chronological(); }));
}

constexpr GoldenRow kGolden[7] = {
    /*clique*/ {7, 7, 19, 48},      /*line*/ {27, 27, 97, 145},
    /*grid*/ {28, 28, 124, 199},    /*cluster*/ {27, 27, 128, 84},
    /*hypercube*/ {15, 15, 54, 100}, /*butterfly*/ {18, 18, 45, 80},
    /*star*/ {28, 28, 109, 159}};

class EngineGolden : public ::testing::TestWithParam<int> {};

TEST_P(EngineGolden, ReliableSimulateMatchesPreEngineCapture) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const auto sched = make_scheduler("greedy-ff");
  const Schedule s = sched->run(inst, metric);

  SimOptions opts;
  opts.record_events = true;
  opts.record_hops = true;
  const SimResult r = simulate(inst, metric, s, opts);
  ASSERT_TRUE(r.ok) << topo.name << ": " << r.summary();
  const GoldenRow& g = kGolden[which];
  EXPECT_EQ(r.planned_makespan, g.planned) << topo.name;
  EXPECT_EQ(r.realized_makespan, g.realized) << topo.name;
  EXPECT_EQ(r.object_travel, g.travel) << topo.name;
  EXPECT_EQ(moves_and_commits(r.events), g.events) << topo.name;
  EXPECT_TRUE(r.faults == FaultStats{}) << topo.name;
  EXPECT_EQ(r.total_queue_wait, 0) << topo.name;
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, EngineGolden, ::testing::Range(0, 7));

// ------------------------------------------------------------------------
// Trace equivalence (the congestion analyzer's foundation).

std::vector<LegRecord> sorted_by_object_leg(std::vector<LegRecord> legs) {
  std::sort(legs.begin(), legs.end(),
            [](const LegRecord& a, const LegRecord& b) {
              return std::tie(a.object, a.leg) < std::tie(b.object, b.leg);
            });
  return legs;
}

/// The kLeg records of a run's log, as LegRecords.
std::vector<LegRecord> logged_legs(const std::vector<SimEvent>& log) {
  std::vector<LegRecord> legs;
  for (const SimEvent& e : log) {
    if (e.kind == SimEvent::Kind::kLeg) {
      legs.push_back({e.object, e.leg, e.from, e.node, e.since});
    }
  }
  return legs;
}

class TraceEquivalence : public ::testing::TestWithParam<int> {};

// On a feasible reliable run the engine launches exactly the legs the
// planner promised: same objects, same legs, same endpoints, same depart
// steps, and each leg arrives its distance after it departs. (The log
// holds launches in timeline order, planned_leg_trace object-major —
// compare canonicalized.)
TEST_P(TraceEquivalence, ExecutedLegsEqualPlannedTrace) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);

  UnboundedLinks links(metric);
  EngineConfig opts;
  opts.discipline = CommitDiscipline::kPlannedStrict;
  opts.record_events = true;
  Engine eng(inst, metric, s, links, opts);
  const SimResult r = eng.run();
  ASSERT_TRUE(r.ok) << topo.name;

  EXPECT_EQ(sorted_by_object_leg(logged_legs(r.events)),
            sorted_by_object_leg(planned_leg_trace(inst, s)))
      << topo.name;
  for (const SimEvent& e : r.events) {
    if (e.kind != SimEvent::Kind::kLeg) continue;
    EXPECT_EQ(e.time, e.since + metric.distance(e.from, e.node)) << topo.name;
  }
}

// Independent congestion oracle: walk every nonzero leg of the planned
// trace along metric.path, occupy each edge of weight w for [t, t + w),
// and compute per-edge traversal counts and peak interval overlap by
// sweeping. analyze_congestion must agree on every aggregate and on every
// edge's (peak, traversals).
TEST_P(TraceEquivalence, CongestionMatchesIntervalOverlapOracle) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);

  struct Edge {
    std::vector<std::pair<Time, Time>> intervals;  // [enter, exit)
  };
  std::map<std::pair<NodeId, NodeId>, Edge> edges;
  Weight total_flow = 0;
  for (const LegRecord& leg : planned_leg_trace(inst, s)) {
    if (leg.from == leg.to) continue;
    const std::vector<NodeId> path = metric.path(leg.from, leg.to);
    ASSERT_GE(path.size(), 2u);
    Time t = leg.depart;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Weight w = metric.distance(path[i], path[i + 1]);
      const auto key = std::minmax(path[i], path[i + 1]);
      edges[{key.first, key.second}].intervals.push_back({t, t + w});
      total_flow += w;
      t += w;
    }
  }
  std::map<std::pair<NodeId, NodeId>, std::pair<std::size_t, std::size_t>>
      want;  // edge -> (peak, traversals)
  std::size_t peak_load = 0;
  for (auto& [key, e] : edges) {
    std::vector<std::pair<Time, int>> sweep;
    for (const auto& [enter, exit] : e.intervals) {
      sweep.push_back({enter, +1});
      sweep.push_back({exit, -1});
    }
    std::sort(sweep.begin(), sweep.end());
    std::size_t cur = 0, peak = 0;
    for (const auto& [t, d] : sweep) {
      cur = static_cast<std::size_t>(static_cast<long long>(cur) + d);
      peak = std::max(peak, cur);
    }
    want[key] = {peak, e.intervals.size()};
    peak_load = std::max(peak_load, peak);
  }

  const CongestionReport r =
      analyze_congestion(inst, metric, s, /*top_k=*/1u << 20);
  EXPECT_EQ(r.peak_load, peak_load) << topo.name;
  EXPECT_EQ(r.total_flow, total_flow) << topo.name;
  EXPECT_EQ(r.edges_used, edges.size()) << topo.name;
  ASSERT_EQ(r.hottest.size(), edges.size()) << topo.name;
  for (const EdgeLoad& e : r.hottest) {
    const auto key = std::minmax(e.u, e.v);
    const auto it = want.find({key.first, key.second});
    ASSERT_NE(it, want.end()) << topo.name;
    EXPECT_EQ(e.peak, it->second.first) << topo.name;
    EXPECT_EQ(e.traversals, it->second.second) << topo.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TraceEquivalence,
                         ::testing::Range(0, 7));

// ------------------------------------------------------------------------
// Faults × capacity: the composition the engine unlocked.

// Line 0-1-2: one object must cross both edges; there is no detour.
TEST(FaultsTimesCapacity, ScheduledOutageStallsQueuedObject) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  const Graph g = b.build();
  const DenseMetric m(g);
  InstanceBuilder ib(g, 1);
  ib.set_object_home(0, 0);
  ib.add_transaction(2, {0});
  const Instance inst = ib.build();
  const Schedule s = Schedule::from_commit_times(inst, {2});

  const SimResult reliable =
      simulate(inst, m, s, {.capacity = 1, .earliest_commit = true});
  ASSERT_TRUE(reliable.ok) << reliable.summary();
  EXPECT_EQ(reliable.realized_makespan, 2);

  FaultConfig cfg;
  cfg.scheduled.push_back({0, 1, /*start=*/0, /*duration=*/5});
  const FaultModel model(cfg);
  const SimResult r = simulate(
      inst, m, s, {.faults = &model, .capacity = 1, .earliest_commit = true});
  ASSERT_TRUE(r.ok) << r.summary();
  // The object queues on {0,1} until the link returns at step 5, then
  // crosses both unit edges: commit at 7.
  EXPECT_EQ(r.realized_makespan, 7);
  EXPECT_GT(r.total_queue_wait, 0);
  EXPECT_EQ(r.faults.injected, 1u);  // one blocked episode, deduped
  EXPECT_EQ(r.faults.reroutes, 0u);  // nowhere else to go
}

// Diamond: 0-1-3 costs 2, the 0-2-3 detour costs 4. With {0,1} down and
// rerouting on, the queued object detours instead of stalling.
TEST(FaultsTimesCapacity, OutageReroutesQueuedObject) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 3, 1);
  b.add_edge(0, 2, 2);
  b.add_edge(2, 3, 2);
  const Graph g = b.build();
  const DenseMetric m(g);
  InstanceBuilder ib(g, 1);
  ib.set_object_home(0, 0);
  ib.add_transaction(3, {0});
  const Instance inst = ib.build();
  const Schedule s = Schedule::from_commit_times(inst, {2});

  FaultConfig cfg;
  cfg.scheduled.push_back({0, 1, /*start=*/0, /*duration=*/20});
  const FaultModel model(cfg);

  const SimOptions reroute{
      .faults = &model, .capacity = 1, .earliest_commit = true};
  const SimResult detoured = simulate(inst, m, s, reroute);
  ASSERT_TRUE(detoured.ok) << detoured.summary();
  // Reroute decided at step 0, detour entered at step 1, 0-2-3 costs 4.
  EXPECT_EQ(detoured.realized_makespan, 5);
  EXPECT_EQ(detoured.faults.reroutes, 1u);

  SimOptions stall = reroute;
  stall.recovery.reroute = false;
  const SimResult stalled = simulate(inst, m, s, stall);
  ASSERT_TRUE(stalled.ok) << stalled.summary();
  EXPECT_EQ(stalled.realized_makespan, 22);  // waits out the outage, then 0-1-3
  EXPECT_EQ(stalled.faults.reroutes, 0u);
  EXPECT_LT(detoured.realized_makespan, stalled.realized_makespan);
}

// On the ideal substrate (unbounded, reliable) every commit is as early as
// it can ever be; adding faults and capacity can only push the realized
// makespan up, and the fault tallies must come back through the result.
TEST(FaultsTimesCapacity, ComposedRunDominatesIdealSubstrate) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  Rng rng(17);
  const Instance inst = generate_uniform(
      g.graph, {.num_objects = 10, .objects_per_txn = 2}, rng);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, m);

  const SimResult ideal =
      simulate(inst, m, s, {.capacity = 0, .earliest_commit = true});
  ASSERT_TRUE(ideal.ok) << ideal.summary();

  FaultConfig cfg;
  cfg.link_outage_rate = 0.3;
  cfg.loss_rate = 0.05;
  cfg.seed = 17;
  const FaultModel model(cfg);
  for (const std::size_t cap : {std::size_t{0}, std::size_t{2},
                                std::size_t{1}}) {
    const SimResult r = simulate(
        inst, m, s,
        {.faults = &model, .capacity = cap, .earliest_commit = true});
    ASSERT_TRUE(r.ok) << "cap " << cap << ": " << r.summary();
    EXPECT_GE(r.realized_makespan, ideal.realized_makespan) << "cap " << cap;
    EXPECT_GT(r.faults.injected, 0u) << "cap " << cap;
  }
}

// ------------------------------------------------------------------------
// Critical path on a hand-computable diamond.

// Diamond 0-1:1, 1-3:1, 0-2:2, 2-3:2. One object homed at 0 serves T0 at
// node 1 (planned commit 1) and then T1 at node 3 (planned commit 3).
// The realized timeline is forced: leg 0 crosses 0-1 during [0,1], T0
// commits at 1 and releases leg 1, which crosses 1-3 during [1,2]; T1 sits
// assembled for one step of schedule slack and commits at 3. The critical
// path must therefore be exactly transfer [0,1], transfer [1,2], wait
// [2,3] — tiling [0, makespan] with total 3.
TEST(CriticalPath, HandComputedDiamondChain) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 3, 1);
  b.add_edge(0, 2, 2);
  b.add_edge(2, 3, 2);
  const Graph g = b.build();
  const DenseMetric m(g);
  InstanceBuilder ib(g, 1);
  ib.set_object_home(0, 0);
  ib.add_transaction(1, {0});  // T0 at node 1
  ib.add_transaction(3, {0});  // T1 at node 3
  const Instance inst = ib.build();
  const Schedule s = Schedule::from_commit_times(inst, {1, 3});

  const SimResult r = simulate(inst, m, s, {.record_events = true});
  ASSERT_TRUE(r.ok) << r.summary();
  ASSERT_EQ(r.realized_makespan, 3);

  const TraceSummary sum = summarize_trace(r.events);
  EXPECT_TRUE(sum.problems.empty())
      << "first problem: " << sum.problems.front();
  EXPECT_EQ(sum.makespan, 3);
  EXPECT_EQ(sum.critical_total, 3);
  ASSERT_EQ(sum.critical_path.size(), 3u);

  const CriticalSegment& first = sum.critical_path[0];
  EXPECT_EQ(first.kind, CriticalSegment::Kind::kTransfer);
  EXPECT_EQ(first.begin, 0);
  EXPECT_EQ(first.end, 1);
  EXPECT_EQ(first.txn, 0);
  EXPECT_EQ(first.object, 0);
  EXPECT_EQ(first.leg, 0);
  EXPECT_EQ(first.from, 0);
  EXPECT_EQ(first.to, 1);

  const CriticalSegment& second = sum.critical_path[1];
  EXPECT_EQ(second.kind, CriticalSegment::Kind::kTransfer);
  EXPECT_EQ(second.begin, 1);
  EXPECT_EQ(second.end, 2);
  EXPECT_EQ(second.txn, 1);
  EXPECT_EQ(second.object, 0);
  EXPECT_EQ(second.leg, 1);
  EXPECT_EQ(second.from, 1);
  EXPECT_EQ(second.to, 3);

  const CriticalSegment& wait = sum.critical_path[2];
  EXPECT_EQ(wait.kind, CriticalSegment::Kind::kWait);
  EXPECT_EQ(wait.begin, 2);
  EXPECT_EQ(wait.end, 3);
  EXPECT_EQ(wait.txn, 1);

  // Per-txn slack: T1 sat assembled for one step; T0 committed on arrival.
  ASSERT_EQ(sum.slack.size(), 2u);
  EXPECT_EQ(sum.slack[0].txn, 1);
  EXPECT_EQ(sum.slack[0].slack, 1);
  EXPECT_EQ(sum.slack[1].slack, 0);
}

}  // namespace
}  // namespace dtm
