// Tests for the control-flow execution model.
#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "core/metrics.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/line.hpp"
#include "sched/control_flow.hpp"
#include "sched/greedy.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

TEST(ControlFlow, SingleAccessIsOneRoundTrip) {
  const Line line(6);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(5, {0});
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  const ControlFlowResult r = schedule_control_flow(inst, m);
  EXPECT_EQ(r.commit_time[0], 10);  // 2 * dist(0, 5)
  EXPECT_EQ(r.communication, 10);
  EXPECT_EQ(check_control_flow(inst, m, r), "");
}

TEST(ControlFlow, SerializesSharedObjectAccesses) {
  const Line line(7);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(2, {0});
  b.add_transaction(6, {0});
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  const ControlFlowResult r = schedule_control_flow(inst, m);
  // T0: round trip 4; T1: waits for T0, then round trip 12.
  EXPECT_EQ(r.commit_time[0], 4);
  EXPECT_EQ(r.commit_time[1], 16);
  EXPECT_EQ(r.communication, 16);
  EXPECT_EQ(check_control_flow(inst, m, r), "");
}

TEST(ControlFlow, NearestFirstNeverWorseHere) {
  // With the far transaction first, total time grows; nearest-first is the
  // SPT rule for this single-machine view.
  const Line line(9);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(8, {0});  // far, lower id
  b.add_transaction(1, {0});  // near
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  const ControlFlowResult by_id =
      schedule_control_flow(inst, m, ControlFlowOrder::kById);
  const ControlFlowResult nearest =
      schedule_control_flow(inst, m, ControlFlowOrder::kNearestFirst);
  EXPECT_EQ(check_control_flow(inst, m, by_id), "");
  EXPECT_EQ(check_control_flow(inst, m, nearest), "");
  EXPECT_LE(nearest.makespan(), by_id.makespan());
  EXPECT_EQ(nearest.object_order[0], (std::vector<TxnId>{1, 0}));
}

TEST(ControlFlow, ConsistentOnRandomInstances) {
  const Clique c(12);
  const DenseMetric m(c.graph);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = generate_uniform(
        c.graph,
        {.num_objects = 5, .objects_per_txn = 2,
         .placement = ObjectPlacement::kRandomNode},
        rng);
    for (ControlFlowOrder ord :
         {ControlFlowOrder::kById, ControlFlowOrder::kNearestFirst}) {
      const ControlFlowResult r = schedule_control_flow(inst, m, ord);
      EXPECT_EQ(check_control_flow(inst, m, r), "") << inst.describe();
      EXPECT_GE(r.makespan(), 1);
    }
  }
}

TEST(ControlFlow, DataFlowWinsOnHeavySharing) {
  // One object requested by every node of a clique: control-flow pays a
  // 2-step round trip per access (2ℓ total); data-flow moves the object
  // along a 1-step chain (ℓ total).
  const Clique c(16);
  const DenseMetric m(c.graph);
  Rng rng(6);
  const Instance inst = generate_hotspot(c.graph, 1, 1, rng);
  const ControlFlowResult cf = schedule_control_flow(inst, m);
  GreedyOptions o;
  o.rule = ColoringRule::kFirstFit;
  o.compact = true;
  GreedyScheduler df(o);
  const Schedule s = df.run(inst, m);
  EXPECT_LT(s.makespan(), cf.makespan());
}

TEST(ControlFlow, LocalAccessesAreFree) {
  // A transaction co-located with its object commits at step 1.
  const Line line(4);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(2, {0});
  b.set_object_home(0, 2);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  const ControlFlowResult r = schedule_control_flow(inst, m);
  EXPECT_EQ(r.commit_time[0], 1);
  EXPECT_EQ(r.communication, 0);
}

TEST(ControlFlow, RequesterOnTheHomeStillWaitsAStep) {
  // T1 sits on o0's home, so its round trip is 0 steps; the object still
  // serves one requester per step, so T1 commits a step after T0.
  const Line line(4);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(3, {0});
  b.add_transaction(2, {0});
  b.set_object_home(0, 2);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  ControlFlowResult r = schedule_control_flow(inst, m);
  EXPECT_EQ(r.commit_time, (std::vector<Time>{2, 3}));
  EXPECT_EQ(check_control_flow(inst, m, r), "");
  r.commit_time[1] = 2;  // same step as T0
  EXPECT_NE(check_control_flow(inst, m, r), "");
}

TEST(ControlFlow, CheckerCatchesViolations) {
  const Line line(7);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(2, {0});
  b.add_transaction(6, {0});
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  ControlFlowResult r = schedule_control_flow(inst, m);
  r.commit_time[1] = 10;  // too early: needs 4 + 12
  EXPECT_NE(check_control_flow(inst, m, r), "");
  r = schedule_control_flow(inst, m);
  r.object_order[0] = {0};  // broken permutation
  EXPECT_NE(check_control_flow(inst, m, r), "");
}

}  // namespace
}  // namespace dtm
