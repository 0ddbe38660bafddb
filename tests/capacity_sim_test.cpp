// Tests for the bounded-capacity re-execution: simulate() with
// earliest_commit, which replays only the visit orders on FIFO links.
#include <gtest/gtest.h>

#include <memory>

#include "core/generators.hpp"
#include "core/precedence.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "sched/greedy.hpp"
#include "sim/congestion.hpp"
#include "sim/engine.hpp"
#include "sim/link_policy.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

/// Earliest-commit re-execution at link capacity `cap` (0 = unbounded).
SimOptions replay(std::size_t cap) {
  return {.capacity = cap, .earliest_commit = true};
}

/// Star fan-out fixture: three objects start at the tip of ray 0 and are
/// each wanted at the tip of a different ray; all paths share ray 0's two
/// edges.
Instance star_fanout(const Star& star) {
  InstanceBuilder b(star.graph, 3);
  for (ObjectId o = 0; o < 3; ++o) {
    b.set_object_home(o, star.node_at(0, 2));
    b.add_transaction(star.node_at(o + 1, 2), {o});
  }
  return b.build();
}

TEST(CapacitySim, UnboundedMatchesEarliestTimes) {
  // With capacity 0 (unbounded), the realized makespan equals the
  // precedence solver's earliest-commit makespan for the same orders.
  const Grid g(6);
  const DenseMetric m(g.graph);
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = generate_uniform(
        g.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
    GreedyOptions o;
    o.rule = ColoringRule::kFirstFit;
    GreedyScheduler sched(o);
    const Schedule s = sched.run(inst, m);
    const Schedule earliest = compact(inst, m, s);
    const SimResult r = simulate(inst, m, s, replay(0));
    ASSERT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.realized_makespan, earliest.makespan());
    EXPECT_EQ(r.total_queue_wait, 0);
  }
}

TEST(CapacitySim, CapacityOneSerializesSharedEdges) {
  const Star star(4, 2);
  const Instance inst = star_fanout(star);
  const DenseMetric m(star.graph);
  const Schedule s = Schedule::from_commit_times(inst, {4, 4, 4});
  // Unbounded: all three objects travel in parallel, distance 4 each.
  const SimResult unbounded = simulate(inst, m, s, replay(0));
  ASSERT_TRUE(unbounded.ok);
  EXPECT_EQ(unbounded.realized_makespan, 4);
  // Capacity 1: the shared first edge admits one object per traversal, so
  // the last object finishes 2 steps later.
  const SimResult tight = simulate(inst, m, s, replay(1));
  ASSERT_TRUE(tight.ok);
  EXPECT_EQ(tight.realized_makespan, 6);
  EXPECT_GT(tight.total_queue_wait, 0);
  EXPECT_EQ(tight.max_queue_length, 2u);
}

TEST(CapacitySim, MakespanMonotoneInCapacity) {
  const Grid g(7);
  const DenseMetric m(g.graph);
  Rng rng(5);
  const Instance inst = generate_uniform(
      g.graph, {.num_objects = 10, .objects_per_txn = 2}, rng);
  GreedyScheduler sched;
  const Schedule s = sched.run(inst, m);
  Time prev = kInfiniteWeight;
  for (std::size_t cap : {1u, 2u, 4u, 0u}) {  // 0 = unbounded, last
    const SimResult r = simulate(inst, m, s, replay(cap));
    ASSERT_TRUE(r.ok) << "capacity " << cap;
    EXPECT_LE(r.realized_makespan, prev) << "capacity " << cap;
    prev = r.realized_makespan;
  }
}

// Tightening capacity never helps, on any topology: for every fixture and
// seed, makespan(unbounded) <= makespan(C) <= makespan(C') whenever
// C >= C'. (The single-workload test above is the smoke version; this is
// the property across topology × seed.)
TEST(CapacitySim, MakespanMonotoneAcrossTopologiesAndSeeds) {
  const Line line(12);
  const Grid grid(6);
  const Star star(4, 3);
  const struct {
    const char* name;
    const Graph* g;
  } topologies[] = {
      {"line12", &line.graph}, {"grid6", &grid.graph}, {"star4x3", &star.graph}};
  for (const auto& topo : topologies) {
    const DenseMetric m(*topo.g);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      const Instance inst = generate_uniform(
          *topo.g, {.num_objects = 8, .objects_per_txn = 2}, rng);
      GreedyOptions o;
      o.rule = ColoringRule::kFirstFit;
      GreedyScheduler sched(o);
      const Schedule s = sched.run(inst, m);
      // Capacities from loosest to tightest; 0 = unbounded comes first so
      // every bounded makespan is checked against it too.
      Time unbounded = 0;
      Time prev = 0;
      for (const std::size_t cap : {std::size_t{0}, std::size_t{8},
                                    std::size_t{4}, std::size_t{2},
                                    std::size_t{1}}) {
        const SimResult r = simulate(inst, m, s, replay(cap));
        ASSERT_TRUE(r.ok)
            << topo.name << " seed " << seed << " capacity " << cap;
        if (cap == 0) {
          unbounded = r.realized_makespan;
          EXPECT_EQ(r.total_queue_wait, 0) << topo.name << " seed " << seed;
        } else {
          EXPECT_GE(r.realized_makespan, prev)
              << topo.name << " seed " << seed << " capacity " << cap;
          EXPECT_GE(r.realized_makespan, unbounded)
              << topo.name << " seed " << seed << " capacity " << cap;
        }
        prev = r.realized_makespan;
      }
    }
  }
}

TEST(CapacitySim, StretchBoundedByPeakCongestion) {
  // Realized makespan under capacity 1 is at most (unbounded makespan) ×
  // (1 + peak congestion): every queueing delay is caused by at most
  // peak-1 objects ahead on a link.
  const Line line(24);
  const DenseMetric m(line.graph);
  Rng rng(7);
  const Instance inst = generate_uniform(
      line.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
  GreedyOptions o;
  o.rule = ColoringRule::kFirstFit;
  GreedyScheduler sched(o);
  const Schedule s = sched.run(inst, m);
  const CongestionReport cong = analyze_congestion(inst, m, s);
  const SimResult unbounded = simulate(inst, m, s, replay(0));
  const SimResult tight = simulate(inst, m, s, replay(1));
  ASSERT_TRUE(unbounded.ok);
  ASSERT_TRUE(tight.ok);
  EXPECT_LE(tight.realized_makespan,
            unbounded.realized_makespan *
                static_cast<Time>(cong.peak_load + 1));
}

TEST(CapacitySim, RejectsCorruptOrders) {
  const Line line(4);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(0, {0});
  b.add_transaction(3, {0});
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  Schedule s = Schedule::from_commit_times(inst, {1, 4});
  s.object_order[0] = {0};  // dropped a requester
  Schedule short_orders = Schedule::from_commit_times(inst, {1, 4});
  short_orders.object_order.clear();  // one order per object is missing
  // Reported as a violation on every stepwise path, planned or earliest.
  for (const SimOptions& opts : {replay(1), SimOptions{.capacity = 1}}) {
    const SimResult r = simulate(inst, m, s, opts);
    EXPECT_FALSE(r.ok);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations.front(),
              "object_order[0] is not a permutation of o0's requesters");
    const SimResult shape = simulate(inst, m, short_orders, opts);
    EXPECT_FALSE(shape.ok);
    ASSERT_EQ(shape.violations.size(), 1u);
    EXPECT_EQ(shape.violations.front(),
              "schedule shape does not match instance");
  }
}

TEST(CapacitySim, RejectsRescheduleHook) {
  // Earliest commits discard the planned times, so there is no plan for a
  // reschedule hook to splice into.
  const Line line(4);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(3, {0});
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {3});
  SimOptions opts = replay(1);
  opts.reschedule = [](const PartialExecution&) {
    return std::unique_ptr<Schedule>();
  };
  EXPECT_THROW(simulate(inst, m, s, opts), Error);
}

TEST(CapacitySim, MaxStepsGuard) {
  const Line line(8);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(0, {0});
  b.add_transaction(7, {0});
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {1, 8});
  // The guard is engine-internal; simulate() always runs with its default.
  BoundedCapacityLinks links(m, 1);
  EngineConfig cfg;
  cfg.discipline = CommitDiscipline::kEarliest;
  cfg.max_steps = 3;
  const SimResult r = Engine(inst, m, s, links, cfg).run();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.summary().find("max_steps"), std::string::npos);
}

TEST(CapacitySim, EmptyInstance) {
  const Line line(3);
  InstanceBuilder b(line.graph, 1);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  Schedule s;
  s.object_order.resize(1);
  const SimResult r = simulate(inst, m, s, replay(1));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.realized_makespan, 0);
}

TEST(CapacitySim, ObjectlessTransactionsCommitAtOne) {
  const Line line(3);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(1, {});
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  Schedule s;
  s.commit_time = {1};
  s.object_order.resize(1);
  const SimResult r = simulate(inst, m, s, replay(1));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.realized_makespan, 1);
}

}  // namespace
}  // namespace dtm
