// Tests for the online extension: arrival generators, online validation,
// and the FIFO / batch online schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/generators.hpp"
#include "core/online.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "sched/greedy.hpp"
#include "sched/online.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace dtm {
namespace {

Instance grid_instance(const Grid& g, std::uint64_t seed) {
  Rng rng(seed);
  return generate_uniform(g.graph, {.num_objects = 6, .objects_per_txn = 2},
                          rng);
}

TEST(Arrivals, UniformWithinHorizon) {
  Rng rng(1);
  const ArrivalTimes a = generate_arrivals(100, 50, rng);
  ASSERT_EQ(a.size(), 100u);
  for (Time t : a) {
    EXPECT_GE(t, 0);
    EXPECT_LE(t, 50);
  }
}

TEST(Arrivals, BurstyLandsOnBurstSteps) {
  Rng rng(2);
  const ArrivalTimes a = generate_bursty_arrivals(60, 30, 4, rng);
  for (Time t : a) {
    EXPECT_TRUE(t == 0 || t == 10 || t == 20 || t == 30) << t;
  }
  const ArrivalTimes single = generate_bursty_arrivals(10, 99, 1, rng);
  for (Time t : single) EXPECT_EQ(t, 0);
}

TEST(ValidateOnline, CatchesEarlyCommits) {
  const Clique c(4);
  InstanceBuilder b(c.graph, 1);
  b.add_transaction(0, {0});
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(c.graph);
  const Schedule s = Schedule::from_commit_times(inst, {3});
  EXPECT_TRUE(validate_online(inst, m, ArrivalTimes{2}, s).ok);
  EXPECT_FALSE(validate_online(inst, m, ArrivalTimes{5}, s).ok);
  EXPECT_FALSE(validate_online(inst, m, {}, s).ok);  // size mismatch
}

TEST(OnlineFifo, FeasibleAndRespectsArrivals) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Instance inst = grid_instance(g, seed);
    Rng rng(seed + 100);
    const ArrivalTimes arrival =
        generate_arrivals(inst.num_transactions(), 40, rng);
    OnlineFifoScheduler sched;
    const Schedule s = sched.run_online(inst, m, arrival);
    const auto vr = validate_online(inst, m, arrival, s);
    EXPECT_TRUE(vr.ok) << vr.summary();
    EXPECT_TRUE(simulate(inst, m, s).ok);
  }
}

TEST(OnlineFifo, ZeroArrivalsEqualsIdOrderDispatch) {
  const Grid g(5);
  const DenseMetric m(g.graph);
  const Instance inst = grid_instance(g, 9);
  OnlineFifoScheduler sched;
  const Schedule s = sched.run(inst, m);  // all released at 0
  EXPECT_TRUE(validate(inst, m, s).ok);
  // Chains follow id order under simultaneous release.
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    EXPECT_EQ(s.object_order[o], test::to_vector(inst.requesters(o)));
  }
}

TEST(OnlineBatch, FeasibleAcrossWindows) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  for (Time window : {1, 4, 16, 64}) {
    const Instance inst = grid_instance(g, 3);
    Rng rng(33);
    const ArrivalTimes arrival =
        generate_arrivals(inst.num_transactions(), 50, rng);
    OnlineBatchScheduler sched({.window = window});
    const Schedule s = sched.run_online(inst, m, arrival);
    const auto vr = validate_online(inst, m, arrival, s);
    EXPECT_TRUE(vr.ok) << "window=" << window << ": " << vr.summary();
    EXPECT_TRUE(simulate(inst, m, s).ok);
    EXPECT_GE(sched.last_batches(), 1u);
  }
}

// An object has one copy and serves one commit per step, even between two
// requesters on the same node: three transactions at node 0 on object 0
// (homed at node 1) need three steps. validate, the §2.3 greedy and both
// online schedulers keep that rule, so the stepwise engine realizes
// exactly the planned makespan.
TEST(HopRule, SharedNodeRequestersCommitOneStepApart) {
  const Clique c(4);
  const DenseMetric m(c.graph);
  InstanceBuilder b(c.graph, 1);
  b.allow_shared_homes();
  b.set_object_home(0, 1);
  for (int i = 0; i < 3; ++i) b.add_transaction(0, {0});
  const Instance inst = b.build();

  GreedyScheduler first_fit({.rule = ColoringRule::kFirstFit});
  GreedyScheduler compacted(
      {.rule = ColoringRule::kFirstFit, .compact = true});
  OnlineBatchScheduler batch;
  OnlineFifoScheduler fifo;
  EXPECT_EQ(first_fit.run(inst, m).makespan(), 3);
  EXPECT_EQ(fifo.run(inst, m).makespan(), 3);
  for (Scheduler* sched : std::initializer_list<Scheduler*>{
           &first_fit, &compacted, &batch, &fifo}) {
    SCOPED_TRACE(sched->name());
    const Schedule s = sched->run(inst, m);
    const auto vr = validate(inst, m, s);
    EXPECT_TRUE(vr.ok) << vr.summary();
    std::vector<Time> steps = s.commit_time;
    std::sort(steps.begin(), steps.end());
    EXPECT_EQ(std::adjacent_find(steps.begin(), steps.end()), steps.end());
    const SimResult r = simulate(inst, m, s);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.realized_makespan, r.planned_makespan);
  }

  Schedule same_step;
  same_step.commit_time = {1, 1, 1};
  same_step.object_order = {{0, 1, 2}};
  EXPECT_FALSE(validate(inst, m, same_step).ok);
}

TEST(OnlineBatch, LargerWindowsFewerBatches) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  const Instance inst = grid_instance(g, 4);
  Rng rng(44);
  const ArrivalTimes arrival =
      generate_arrivals(inst.num_transactions(), 60, rng);
  std::size_t prev = static_cast<std::size_t>(-1);
  for (Time window : {2, 8, 32, 128}) {
    OnlineBatchScheduler sched({.window = window});
    (void)sched.run_online(inst, m, arrival);
    EXPECT_LE(sched.last_batches(), prev);
    prev = sched.last_batches();
  }
  EXPECT_EQ(prev, 1u);  // window 128 > horizon swallows everything
}

TEST(OnlineBatch, RejectsBadWindow) {
  EXPECT_THROW(OnlineBatchScheduler({.window = 0}), Error);
}

TEST(Online, CompetitiveAgainstOfflineGreedy) {
  // With all arrivals at 0, the batch scheduler with one window is the
  // offline greedy up to the window close offset; FIFO stays within a
  // moderate factor on these workloads.
  const Clique c(16);
  const DenseMetric m(c.graph);
  Rng rng(7);
  const Instance inst =
      generate_uniform(c.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
  GreedyOptions gopts;
  gopts.rule = ColoringRule::kFirstFit;
  GreedyScheduler offline(gopts);
  OnlineFifoScheduler fifo;
  const Time off = offline.run(inst, m).makespan();
  const Time on = fifo.run(inst, m).makespan();
  EXPECT_LE(on, 4 * off + 4);
}

// Drives the feed by hand — pushes in release order with advance_to()
// interleaved at every arrival — and checks the result is bit-identical to
// the run_online adapter. Covers every bench_online (E12) configuration:
// both graphs, all four arrival kinds, all three schedulers, all five
// trial seeds; together with CI's BENCH_online.json gate (recorded before
// the feed redesign) this pins the feed to the historic clairvoyant
// implementation.
TEST(OnlineFeed, IncrementalFeedMatchesAdapterOnAllBenchConfigs) {
  const Grid grid(10);
  const DenseMetric grid_metric(grid.graph);
  const Clique clique(64);
  const DenseMetric clique_metric(clique.graph);

  struct ArrivalKind {
    Time horizon;
    bool bursty;
  };
  const ArrivalKind kinds[] = {{0, false}, {64, false}, {512, false},
                               {64, true}};
  auto check = [](OnlineScheduler& sched, const Instance& inst,
                  const Metric& m, const ArrivalTimes& arrival) {
    const Schedule via_adapter = sched.run_online(inst, m, arrival);

    std::vector<TxnId> order(inst.num_transactions());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](TxnId a, TxnId b) {
      return arrival[a] < arrival[b];
    });
    sched.begin_feed(inst, m);
    for (TxnId t : order) {
      sched.advance_to(arrival[t]);  // no earlier release remains
      sched.push(t, arrival[t]);
    }
    sched.advance_to(arrival.empty() ? 0 : arrival[order.back()] + 1000);
    const Schedule via_feed = sched.finish();

    EXPECT_EQ(via_feed.commit_time, via_adapter.commit_time);
    EXPECT_EQ(via_feed.object_order, via_adapter.object_order);
    // The feed recorded exactly the arrivals it was driven with.
    EXPECT_EQ(sched.feed_arrivals(), arrival);
  };

  for (const auto& [graph, metric] :
       {std::pair<const Graph&, const Metric&>{grid.graph, grid_metric},
        std::pair<const Graph&, const Metric&>{clique.graph,
                                               clique_metric}}) {
    for (const ArrivalKind& kind : kinds) {
      for (std::uint64_t seed = 31; seed < 36; ++seed) {
        Rng rng(seed);
        const Instance inst = generate_uniform(
            graph, {.num_objects = 8, .objects_per_txn = 2}, rng);
        Rng arng(seed + 9999);
        ArrivalTimes arrival;
        if (kind.horizon == 0) {
          arrival.assign(inst.num_transactions(), 0);
        } else if (kind.bursty) {
          arrival = generate_bursty_arrivals(inst.num_transactions(),
                                             kind.horizon, 4, arng);
        } else {
          arrival =
              generate_arrivals(inst.num_transactions(), kind.horizon, arng);
        }
        OnlineFifoScheduler fifo;
        check(fifo, inst, metric, arrival);
        for (Time window : {Time{8}, Time{32}}) {
          OnlineBatchScheduler batch({.window = window});
          check(batch, inst, metric, arrival);
        }
      }
    }
  }
}

TEST(OnlineFeed, EnforcesFeedDiscipline) {
  const Clique c(4);
  InstanceBuilder b(c.graph, 1);
  b.add_transaction(0, {0});
  b.add_transaction(1, {0});
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(c.graph);

  OnlineFifoScheduler sched;
  EXPECT_THROW(sched.push(0, 0), Error);    // no feed open
  EXPECT_THROW(sched.advance_to(1), Error);
  EXPECT_THROW(sched.finish(), Error);

  sched.begin_feed(inst, m);
  sched.push(0, 5);
  EXPECT_THROW(sched.push(0, 6), Error);  // double release
  EXPECT_THROW(sched.push(1, 3), Error);  // time went backwards
  sched.advance_to(10);
  EXPECT_THROW(sched.push(1, 7), Error);  // before the advanced horizon
  sched.push(1, 12);
  (void)sched.finish();
  EXPECT_THROW(sched.finish(), Error);  // feed closed
}

TEST(OnlineFeed, NeverReleasedTransactionsAreRejectedByValidation) {
  const Clique c(4);
  InstanceBuilder b(c.graph, 1);
  b.add_transaction(0, {0});
  b.add_transaction(1, {0});
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(c.graph);

  OnlineFifoScheduler sched;
  sched.begin_feed(inst, m);
  sched.push(0, 2);
  const Schedule s = sched.finish();  // T1 never released
  EXPECT_EQ(sched.feed_arrivals()[1], kNeverReleased);
  const auto vr = validate_online(inst, m, sched.feed_arrivals(), s);
  EXPECT_FALSE(vr.ok);
}

TEST(OnlineFeed, NeverReleasedTransactionsStayOutOfVisitChains) {
  const Grid g(3);
  const DenseMetric m(g.graph);
  InstanceBuilder b(g.graph, 3);
  for (NodeId v = 0; v < 6; ++v) {
    b.add_transaction(v, {static_cast<ObjectId>(v % 3),
                          static_cast<ObjectId>((v + 1) % 3)});
  }
  const Instance inst = b.build();

  OnlineBatchScheduler sched({.window = 4});
  sched.begin_feed(inst, m);
  sched.push(0, 0);
  sched.push(2, 1);
  sched.push(3, 5);
  sched.push(5, 9);
  const Schedule s = sched.finish();  // T1 and T4 never released
  EXPECT_EQ(s.commit_time[1], 0);
  EXPECT_EQ(s.commit_time[4], 0);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    std::vector<TxnId> expect;
    for (TxnId t : inst.requesters(o)) {
      if (t != 1 && t != 4) expect.push_back(t);
    }
    std::sort(expect.begin(), expect.end(), [&](TxnId a, TxnId c) {
      return s.commit_time[a] < s.commit_time[c];
    });
    EXPECT_EQ(s.object_order[o], expect) << "object " << o;
  }
}

TEST(OnlineFeed, RunTreatsOfflineAsExplicitZeroArrivals) {
  const Grid g(5);
  const DenseMetric m(g.graph);
  const Instance inst = grid_instance(g, 21);
  OnlineBatchScheduler a({.window = 8}), b({.window = 8});
  const Schedule via_run = a.run(inst, m);
  const Schedule via_zeros =
      b.run_online(inst, m, ArrivalTimes(inst.num_transactions(), 0));
  EXPECT_EQ(via_run.commit_time, via_zeros.commit_time);
  EXPECT_EQ(via_run.object_order, via_zeros.object_order);
  EXPECT_EQ(a.feed_arrivals(), ArrivalTimes(inst.num_transactions(), 0));
}

TEST(Online, BatchArrivalRespectMeansLateCommits) {
  // A transaction released at step 100 cannot commit before 100 even if
  // everything else is idle.
  const Clique c(3);
  InstanceBuilder b(c.graph, 1);
  b.add_transaction(0, {0});
  b.add_transaction(1, {0});
  b.set_object_home(0, 0);
  const Instance inst = b.build();
  const DenseMetric m(c.graph);
  const ArrivalTimes arrival = {0, 100};
  for (int which = 0; which < 2; ++which) {
    std::unique_ptr<OnlineScheduler> sched;
    if (which == 0) {
      sched = std::make_unique<OnlineFifoScheduler>();
    } else {
      sched = std::make_unique<OnlineBatchScheduler>(OnlineBatchOptions{});
    }
    const Schedule s = sched->run_online(inst, m, arrival);
    EXPECT_TRUE(validate_online(inst, m, arrival, s).ok) << sched->name();
    EXPECT_GE(s.commit_time[1], 100) << sched->name();
    EXPECT_LT(s.commit_time[0], 100) << sched->name();
  }
}

}  // namespace
}  // namespace dtm
