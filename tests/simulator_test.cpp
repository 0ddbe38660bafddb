// Tests for the synchronous data-flow simulator, including the
// validator/simulator agreement property.
#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "core/precedence.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/line.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace dtm {
namespace {

Instance line_instance(const Line& line) {
  InstanceBuilder b(line.graph, 2);
  b.add_transaction(0, {0});
  b.add_transaction(2, {0, 1});
  b.add_transaction(4, {0});
  b.set_object_home(0, 0);
  b.set_object_home(1, 4);
  return b.build();
}

TEST(Simulator, RunsFeasibleSchedule) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {1, 3, 5});
  const SimResult r = simulate(inst, m, s);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_EQ(r.realized_makespan, 5);
  EXPECT_EQ(r.object_travel, 6);
}

TEST(Simulator, DetectsMissingObject) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {1, 2, 5});
  const SimResult r = simulate(inst, m, s);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.violations.empty());
  EXPECT_NE(r.summary().find("in transit"), std::string::npos);
}

TEST(Simulator, DetectsOutOfOrderUse) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  Schedule s = Schedule::from_commit_times(inst, {1, 3, 5});
  // Corrupt the order so the object chain targets T2 before T1.
  s.object_order[0] = {0, 2, 1};
  const SimResult r = simulate(inst, m, s);
  EXPECT_FALSE(r.ok);
}

TEST(Simulator, SlackSchedulesStillRun) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {10, 30, 50});
  const SimResult r = simulate(inst, m, s);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_EQ(r.realized_makespan, 50);
}

// The log's moves and commits are non-decreasing in time, and every
// transaction commits once.
TEST(Simulator, EventLogIsChronologicalAndComplete) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {1, 3, 5});
  SimOptions opts;
  opts.record_events = true;
  const SimResult r = simulate(inst, m, s, opts);
  ASSERT_TRUE(r.ok);
  std::size_t commits = 0;
  std::size_t moves = 0;
  Time prev = 0;
  for (const SimEvent& e : r.events) {
    if (!e.chronological()) continue;
    EXPECT_GE(e.time, prev);
    prev = e.time;
    if (e.kind == SimEvent::Kind::kCommit) {
      ++commits;
    } else {
      ++moves;
    }
  }
  EXPECT_EQ(commits, inst.num_transactions());
  EXPECT_GT(moves, 0u);
}

TEST(Simulator, HopEventsFollowEdges) {
  const Grid grid(4);
  InstanceBuilder b(grid.graph, 1);
  b.add_transaction(grid.node_at(0, 0), {0});
  b.add_transaction(grid.node_at(3, 3), {0});
  b.set_object_home(0, grid.node_at(0, 0));
  const Instance inst = b.build();
  const DenseMetric m(grid.graph);
  const Schedule s = Schedule::from_commit_times(inst, {1, 7});
  SimOptions opts;
  opts.record_events = true;
  opts.record_hops = true;
  const SimResult r = simulate(inst, m, s, opts);
  ASSERT_TRUE(r.ok) << r.summary();
  // The o0 leg from (0,0) to (3,3) has distance 6: 5 intermediate hops.
  std::size_t hops = 0;
  for (const SimEvent& e : r.events) {
    if (e.kind == SimEvent::Kind::kHop) ++hops;
  }
  EXPECT_EQ(hops, 5u);
}

TEST(Simulator, ZeroTransactionInstance) {
  const Line line(3);
  InstanceBuilder b(line.graph, 1);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  Schedule s;
  s.object_order.resize(1);
  const SimResult r = simulate(inst, m, s);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.realized_makespan, 0);
}

// Property: on random instances and random (but acyclic) orders, the
// simulator and the validator agree, and earliest-time schedules always
// pass both.
class SimulatorAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorAgreement, ValidatorAndSimulatorAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  const ClusterGraph cg(3, 4, 6);
  const Instance inst = generate_cluster_spread(cg, 8, 2, 2, rng);
  const DenseMetric m(cg.graph);

  // Random global order -> feasible earliest schedule.
  std::vector<TxnId> perm(inst.num_transactions());
  for (TxnId t = 0; t < perm.size(); ++t) perm[t] = t;
  rng.shuffle(perm);
  std::vector<std::size_t> rank(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) rank[perm[i]] = i;
  std::vector<std::vector<TxnId>> orders(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    orders[o] = test::to_vector(inst.requesters(o));
    std::sort(orders[o].begin(), orders[o].end(),
              [&](TxnId a, TxnId b) { return rank[a] < rank[b]; });
  }
  const Schedule good = schedule_from_orders(inst, m, orders);
  EXPECT_TRUE(validate(inst, m, good).ok);
  const SimResult sim_good = simulate(inst, m, good);
  EXPECT_TRUE(sim_good.ok) << sim_good.summary();
  EXPECT_EQ(sim_good.realized_makespan, good.makespan());

  // Shrink one commit time: both must reject (the perturbed transaction has
  // at least one object constraint binding unless it was already at slack 0
  // with no objects — skip those).
  Schedule bad = good;
  const TxnId victim = perm.back();
  if (!inst.txn(victim).objects.empty() && bad.commit_time[victim] > 1) {
    bad.commit_time[victim] = 1;
    const bool v = validate(inst, m, bad).ok;
    const bool s = simulate(inst, m, bad).ok;
    EXPECT_EQ(v, s);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimulatorAgreement,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace dtm
