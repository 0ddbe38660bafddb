// Tests for Schedule, the feasibility validator, the earliest-time
// precedence solver, and schedule metrics.
#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "core/metrics.hpp"
#include "core/precedence.hpp"
#include "core/schedule.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/line.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace dtm {
namespace {

/// Three transactions on a 5-node line sharing object 0:
/// T0@0, T1@2, T2@4; o0 starts at node 0; o1 used by T1 only, starts at 4.
Instance line_instance(const Line& line) {
  InstanceBuilder b(line.graph, 2);
  b.add_transaction(0, {0});
  b.add_transaction(2, {0, 1});
  b.add_transaction(4, {0});
  b.set_object_home(0, 0);
  b.set_object_home(1, 4);
  return b.build();
}

TEST(Schedule, MakespanIsMaxCommit) {
  Schedule s;
  s.commit_time = {3, 9, 4};
  EXPECT_EQ(s.makespan(), 9);
  EXPECT_EQ(Schedule{}.makespan(), 0);
}

TEST(Schedule, FromCommitTimesSortsByTime) {
  const Line line(5);
  const Instance inst = line_instance(line);
  Schedule s = Schedule::from_commit_times(inst, {7, 3, 12});
  EXPECT_EQ(s.object_order[0], (std::vector<TxnId>{1, 0, 2}));
  EXPECT_EQ(s.object_order[1], (std::vector<TxnId>{1}));
}

TEST(Validate, AcceptsFeasibleHandSchedule) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  // o0: 0 -> 2 -> 4 with 2 steps between; o1 must reach node 2 (distance 2).
  Schedule s = Schedule::from_commit_times(inst, {1, 3, 5});
  const auto r = validate(inst, m, s);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_EQ(r.summary(), "feasible");
}

TEST(Validate, RejectsTooTightTimes) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  // T1 at step 2 but o1 needs 2 steps from node 4 and o0 arrives at 1+2.
  Schedule s = Schedule::from_commit_times(inst, {1, 2, 5});
  const auto r = validate(inst, m, s);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.violations.empty());
}

TEST(Validate, RejectsZeroCommitTime) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  Schedule s = Schedule::from_commit_times(inst, {0, 3, 5});
  EXPECT_FALSE(validate(inst, m, s).ok);
}

TEST(Validate, RejectsCorruptedObjectOrder) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  Schedule s = Schedule::from_commit_times(inst, {1, 3, 5});
  s.object_order[0] = {0, 2};  // dropped T1
  EXPECT_FALSE(validate(inst, m, s).ok);
  s.object_order[0] = {0, 1, 1};  // duplicate
  EXPECT_FALSE(validate(inst, m, s).ok);
}

TEST(Validate, RejectsShapeMismatch) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  Schedule s;
  s.commit_time = {1, 2};  // wrong size
  EXPECT_FALSE(validate(inst, m, s).ok);
}

TEST(Validate, CollectsMultipleViolations) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  Schedule s = Schedule::from_commit_times(inst, {1, 1, 1});
  const auto r = validate(inst, m, s);
  EXPECT_FALSE(r.ok);
  EXPECT_GE(r.violations.size(), 2u);
}

// ------------------------------------------------------------ precedence

TEST(Precedence, EarliestTimesOnChain) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  const auto t = earliest_commit_times(inst, m, {{0, 1, 2}, {1}});
  // T0: o0 already at node 0 -> step 1.
  // T1: o0 arrives at 1+2 = 3; o1 arrives from node 4 at step 2 -> 3.
  // T2: o0 arrives at 3+2 = 5.
  EXPECT_EQ(t, (std::vector<Time>{1, 3, 5}));
}

TEST(Precedence, ReverseOrderCostsMore) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  const auto t = earliest_commit_times(inst, m, {{2, 1, 0}, {1}});
  // o0 travels 0->4 (arrive 4), then back: T2@4, T1@6, T0@8.
  EXPECT_EQ(t[2], 4);
  EXPECT_EQ(t[1], 6);
  EXPECT_EQ(t[0], 8);
}

TEST(Precedence, DetectsCycles) {
  const Line line(5);
  InstanceBuilder b(line.graph, 2);
  b.add_transaction(0, {0, 1});
  b.add_transaction(4, {0, 1});
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  // o0 says T0 before T1; o1 says T1 before T0 — infeasible.
  EXPECT_THROW(earliest_commit_times(inst, m, {{0, 1}, {1, 0}}), Error);
}

TEST(Precedence, RejectsNonPermutationOrders) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  EXPECT_THROW(earliest_commit_times(inst, m, {{0, 1}, {1}}), Error);
}

TEST(Precedence, CompactNeverIncreasesMakespan) {
  const Line line(9);
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = generate_uniform(
        line.graph, {.num_objects = 4, .objects_per_txn = 2}, rng);
    const DenseMetric m(line.graph);
    // Any feasible schedule: id order at earliest times, then slack it.
    std::vector<std::vector<TxnId>> orders(inst.num_objects());
    for (ObjectId o = 0; o < inst.num_objects(); ++o) {
      orders[o] = test::to_vector(inst.requesters(o));
    }
    Schedule slack = schedule_from_orders(inst, m, orders);
    for (Time& t : slack.commit_time) t = t * 3 + 7;  // preserves gaps
    ASSERT_TRUE(validate(inst, m, slack).ok);
    const Schedule tight = compact(inst, m, slack);
    EXPECT_TRUE(validate(inst, m, tight).ok);
    EXPECT_LE(tight.makespan(), slack.makespan());
  }
}

TEST(Precedence, TransactionsWithoutObjectsCommitAtOne) {
  const Line line(3);
  InstanceBuilder b(line.graph, 1);
  b.add_transaction(1, {});
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  const auto t = earliest_commit_times(inst, m, {{}});
  EXPECT_EQ(t, (std::vector<Time>{1}));
}

// --------------------------------------------------------------- metrics

TEST(Metrics, CommunicationSumsObjectTravel) {
  const Line line(5);
  const Instance inst = line_instance(line);
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {1, 3, 5});
  const ScheduleMetrics sm = compute_metrics(inst, m, s);
  EXPECT_EQ(sm.makespan, 5);
  // o0 travels 0->2->4 = 4; o1 travels 4->2 = 2.
  EXPECT_EQ(sm.communication, 6);
  EXPECT_EQ(sm.max_object_travel, 4);
}

TEST(Metrics, EmptyObjectsTravelNothing) {
  const Line line(4);
  InstanceBuilder b(line.graph, 2);
  b.add_transaction(0, {});
  const Instance inst = b.build();
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {1});
  const ScheduleMetrics sm = compute_metrics(inst, m, s);
  EXPECT_EQ(sm.communication, 0);
  EXPECT_EQ(sm.makespan, 1);
}

}  // namespace
}  // namespace dtm
