// Tests for trace-driven adaptive rescheduling: partial-state scheduler
// restarts (sched/reschedule.hpp) and the engine's splice machinery
// (SimOptions::reschedule). Covers the ISSUE-6 checklist: determinism
// across the 7 topology fixtures, a hand-computed diamond splice with a
// known recovered makespan, validity of every spliced schedule (reusing
// validate.*), and the rw partial-state variant.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "core/partial.hpp"
#include "core/rw.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/butterfly.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "sched/registry.hpp"
#include "sched/reschedule.hpp"
#include "sched/rw_greedy.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_analysis.hpp"
#include "util/rng.hpp"

namespace {

using namespace dtm;

// -------------------------------------------------------------- fixtures
// The faults_test / engine_test / trace_test topology recipe: seed =
// which * 131 + 7, 6 objects, 2 objects per transaction, greedy-ff.

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

/// Aggressive policy so the fixtures actually splice.
ReschedulePolicy eager_policy() {
  ReschedulePolicy p;
  p.slack_threshold = 1;
  p.cooldown = 4;
  p.max_reschedules = 8;
  return p;
}

/// Wraps a RescheduleFn and keeps a copy of every accepted splice.
RescheduleFn capturing(RescheduleFn inner,
                       std::shared_ptr<std::vector<Schedule>> out) {
  return [inner = std::move(inner),
          out = std::move(out)](const PartialExecution& px) {
    std::unique_ptr<Schedule> s = inner(px);
    if (s != nullptr) out->push_back(*s);
    return s;
  };
}

struct ActiveRun {
  SimResult sim;
  std::shared_ptr<std::vector<Schedule>> splices;
};

ActiveRun run_active(const Instance& inst, const Metric& metric,
                     const Schedule& s, const FaultModel& model) {
  ActiveRun out;
  out.splices = std::make_shared<std::vector<Schedule>>();
  SimOptions opts;
  opts.record_events = true;
  opts.faults = &model;
  opts.reschedule =
      capturing(make_rescheduler(inst, metric, "greedy-ff"), out.splices);
  opts.reschedule_policy = eager_policy();
  out.sim = simulate(inst, metric, s, opts);
  return out;
}

// ----------------------------------------------------------- determinism

class RescheduleFixtures : public ::testing::TestWithParam<int> {};

// Same seed, same fixture: two active runs must agree on every aggregate
// and produce identical spliced schedules.
TEST_P(RescheduleFixtures, DeterministicAcrossRuns) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);
  const FaultModel model(fixture_faults(which));

  const ActiveRun a = run_active(inst, metric, s, model);
  const ActiveRun b = run_active(inst, metric, s, model);
  ASSERT_TRUE(a.sim.ok) << topo.name << ": " << a.sim.summary();
  ASSERT_TRUE(b.sim.ok) << topo.name << ": " << b.sim.summary();
  EXPECT_EQ(a.sim.realized_makespan, b.sim.realized_makespan) << topo.name;
  EXPECT_EQ(a.sim.planned_makespan, b.sim.planned_makespan) << topo.name;
  EXPECT_EQ(a.sim.object_travel, b.sim.object_travel) << topo.name;
  EXPECT_EQ(a.sim.reschedules, b.sim.reschedules) << topo.name;
  EXPECT_EQ(a.sim.reschedules, a.splices->size()) << topo.name;
  EXPECT_TRUE(a.sim.events == b.sim.events) << topo.name;

  ASSERT_EQ(a.splices->size(), b.splices->size()) << topo.name;
  for (std::size_t i = 0; i < a.splices->size(); ++i) {
    EXPECT_EQ((*a.splices)[i].commit_time, (*b.splices)[i].commit_time)
        << topo.name << " splice " << i;
    EXPECT_EQ((*a.splices)[i].object_order, (*b.splices)[i].object_order)
        << topo.name << " splice " << i;
  }
}

// Property: every spliced schedule is a feasible schedule of the original
// instance (object-exclusivity and precedence, via validate.*), keeps the
// committed prefix ordering of the incumbent, and the traced critical
// path still tiles [0, realized makespan] exactly.
TEST_P(RescheduleFixtures, SplicesValidateAndPathTilesMakespan) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);
  const FaultModel model(fixture_faults(which));

  const ActiveRun a = run_active(inst, metric, s, model);
  ASSERT_TRUE(a.sim.ok) << topo.name << ": " << a.sim.summary();

  for (std::size_t i = 0; i < a.splices->size(); ++i) {
    const ValidationResult vr = validate(inst, metric, (*a.splices)[i]);
    EXPECT_TRUE(vr.ok) << topo.name << " splice " << i << ":\n"
                       << vr.summary();
  }

  const TraceSummary sum = summarize_trace(a.sim.events);
  EXPECT_TRUE(sum.problems.empty())
      << topo.name << ": " << sum.problems.front();
  EXPECT_EQ(sum.makespan, a.sim.realized_makespan) << topo.name;
  EXPECT_EQ(sum.critical_total, a.sim.realized_makespan) << topo.name;
  EXPECT_TRUE(sum.consistent()) << topo.name;
  EXPECT_EQ(sum.reschedules, a.sim.reschedules) << topo.name;
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, RescheduleFixtures,
                         ::testing::Range(0, 7));

// ------------------------------------------------ hand-computed diamond
// Diamond 0-1:1, 1-3:1, 0-2:4, 2-3:2 — the heavy 0-2 edge makes every
// 1<->2 route go via node 3 (distance 3), away from the faulted link.
// o0 starts at node 0, o1 at node 3. T0@1 needs {o0,o1}; T1@2 needs {o1}.
// Planned orders: o0:[T0], o1:[T0,T1]; commit times T0=2, T1=5.
//
// A 20-step outage on link 0-1 (reroute off) pins o0's first leg at node 0
// until step 20; it arrives at node 1 at 21. Passively, T0 commits at 21
// and o1 only then travels 1->2 (distance 3), so T1 commits at 24.
//
// Actively, the slack monitor sees lag now-2 and fires at lag 5 > 4, i.e.
// step 7. The splice flips o1's suffix to [T1, T0]: o1 is redirected
// 1->3->2 at step 7 (arrives 10, T1 commits at its planned step 10),
// returns 2->3->1 by 13, and T0 still waits for o0 until 21. Recovered
// makespan: 21 instead of 24 — the recovery is exactly o1's 1->2 leg.
struct Diamond {
  Graph g;
  Diamond() {
    GraphBuilder b(4);
    b.add_edge(0, 1, 1);
    b.add_edge(1, 3, 1);
    b.add_edge(0, 2, 4);
    b.add_edge(2, 3, 2);
    g = b.build();
  }
};

TEST(RescheduleDiamond, MidFlightOutageSpliceRecoversKnownMakespan) {
  const Diamond d;
  InstanceBuilder ib(d.g, 2);
  ib.set_object_home(0, 0);
  ib.set_object_home(1, 3);
  ib.add_transaction(1, {0, 1});  // T0
  ib.add_transaction(2, {1});     // T1
  const Instance inst = ib.build();
  const DenseMetric m(d.g);
  const Schedule s = Schedule::from_commit_times(inst, {2, 5});
  ASSERT_TRUE(validate(inst, m, s).ok);

  FaultConfig cfg;
  cfg.scheduled.push_back({0, 1, /*start=*/0, /*duration=*/20});
  const FaultModel model(cfg);

  SimOptions passive;
  passive.faults = &model;
  passive.recovery.reroute = false;
  const SimResult p = simulate(inst, m, s, passive);
  ASSERT_TRUE(p.ok) << p.summary();
  EXPECT_EQ(p.realized_makespan, 24);
  EXPECT_EQ(p.reschedules, 0u);

  SimOptions active = passive;
  active.reschedule_policy.slack_threshold = 4;
  active.reschedule_policy.max_reschedules = 1;
  int calls = 0;
  active.reschedule = [&inst, &calls](const PartialExecution& px) {
    ++calls;
    // The monitor fires at the first step with lag > 4: lag = now - 2.
    EXPECT_EQ(px.now, 7);
    EXPECT_TRUE(std::none_of(px.committed.begin(), px.committed.end(),
                             [](char c) { return c != 0; }));
    // o0 is mid-flight toward node 1 (pinned at the leg target); o1 is
    // parked at node 1 since step 2.
    EXPECT_EQ(px.object_at, (std::vector<NodeId>{1, 1}));
    EXPECT_EQ(px.object_free_at, (std::vector<Time>{7, 7}));
    auto next = std::make_unique<Schedule>();
    next->object_order = {{0}, {1, 0}};  // serve T1 while T0 waits for o0
    next->commit_time = {13, 10};
    EXPECT_TRUE(validate(inst, DenseMetric(inst.graph()), *next).ok);
    return next;
  };
  const SimResult a = simulate(inst, m, s, active);
  ASSERT_TRUE(a.ok) << a.summary();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(a.reschedules, 1u);
  EXPECT_EQ(a.realized_makespan, 21);
  EXPECT_LT(a.realized_makespan, p.realized_makespan);
}

// The same splice recorded: the trace must carry exactly one reschedule
// instant and the critical path must tile [0, 21].
TEST(RescheduleDiamond, SpliceIsVisibleInTraceAndPathTiles) {
  const Diamond d;
  InstanceBuilder ib(d.g, 2);
  ib.set_object_home(0, 0);
  ib.set_object_home(1, 3);
  ib.add_transaction(1, {0, 1});
  ib.add_transaction(2, {1});
  const Instance inst = ib.build();
  const DenseMetric m(d.g);
  const Schedule s = Schedule::from_commit_times(inst, {2, 5});

  FaultConfig cfg;
  cfg.scheduled.push_back({0, 1, 0, 20});
  const FaultModel model(cfg);
  SimOptions active;
  active.faults = &model;
  active.recovery.reroute = false;
  active.reschedule_policy.slack_threshold = 4;
  active.reschedule_policy.max_reschedules = 1;
  active.reschedule = [](const PartialExecution&) {
    auto next = std::make_unique<Schedule>();
    next->object_order = {{0}, {1, 0}};
    next->commit_time = {13, 10};
    return next;
  };

  active.record_events = true;
  const SimResult a = simulate(inst, m, s, active);
  ASSERT_TRUE(a.ok) << a.summary();
  ASSERT_EQ(a.realized_makespan, 21);

  const TraceSummary sum = summarize_trace(a.events);
  EXPECT_EQ(sum.reschedules, 1u);
  EXPECT_TRUE(sum.problems.empty()) << sum.problems.front();
  EXPECT_EQ(sum.makespan, 21);
  EXPECT_EQ(sum.critical_total, 21);
  EXPECT_TRUE(sum.consistent());
}

// A splice can assemble a transaction without moving anything: T1 shares
// node 0 with T0 and o0's home, and o0 waits there for T0, whose o1 is
// held up by an outage. Serving T1 first makes it ready at the splice, so
// its logged assembly step is the splice's step, not o0's arrival at 0.
TEST(RescheduleLog, SpliceAssembledCommitDatesFromTheSplice) {
  const Line line(3);
  InstanceBuilder ib(line.graph, 2);
  ib.allow_shared_homes();
  ib.set_object_home(0, 0);
  ib.set_object_home(1, 2);
  ib.add_transaction(0, {0, 1});
  ib.add_transaction(0, {0});
  const Instance inst = ib.build();
  const DenseMetric m(line.graph);
  const Schedule s = Schedule::from_commit_times(inst, {2, 3});

  FaultConfig cfg;
  cfg.scheduled.push_back({1, 2, 0, 20});
  const FaultModel model(cfg);
  SimOptions active;
  active.record_events = true;
  active.faults = &model;
  active.recovery.reroute = false;
  active.reschedule_policy.slack_threshold = 4;
  active.reschedule_policy.max_reschedules = 1;
  active.reschedule = [](const PartialExecution& px) {
    auto next = std::make_unique<Schedule>();
    next->object_order = {{1, 0}, {0}};
    next->commit_time = {px.now + 30, px.now + 1};
    return next;
  };
  const SimResult a = simulate(inst, m, s, active);
  ASSERT_TRUE(a.ok) << a.summary();
  ASSERT_EQ(a.reschedules, 1u);

  Time splice = -1;
  const SimEvent* t1 = nullptr;
  for (const SimEvent& e : a.events) {
    if (e.kind == SimEvent::Kind::kReschedule) splice = e.time;
    if (e.kind == SimEvent::Kind::kCommit && e.txn == 1) t1 = &e;
  }
  ASSERT_GT(splice, 0);
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->since, splice);
  EXPECT_EQ(t1->time, splice + 1);
}

// --------------------------------------------------- reschedule_from unit

// Rescheduling an untouched execution with the scheduler that produced
// the incumbent projects zero gain, so the guard declines.
TEST(RescheduleFrom, DeclinesWhenNoProjectedGain) {
  const Grid topo(4);
  const DenseMetric m(topo.graph);
  Rng rng(11);
  const Instance inst =
      generate_uniform(topo.graph, {.num_objects = 5, .objects_per_txn = 2},
                       rng);
  const auto sched = make_scheduler("greedy-ff");
  const Schedule s = sched->run(inst, m);

  PartialExecution px;
  px.now = 0;
  px.committed.assign(inst.num_transactions(), 0);
  px.commit_realized.assign(inst.num_transactions(), 0);
  px.object_at.resize(inst.num_objects());
  px.object_free_at.assign(inst.num_objects(), 0);
  px.served.resize(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    px.object_at[o] = inst.object_home(o);
  }
  px.order = s.object_order;
  const auto resched = make_scheduler("greedy-ff");
  EXPECT_EQ(reschedule_from(inst, m, *resched, px), nullptr);
}

TEST(RescheduleFrom, ReturnsNullWhenEverythingCommitted) {
  const Clique topo(4);
  const DenseMetric m(topo.graph);
  Rng rng(3);
  const Instance inst =
      generate_uniform(topo.graph, {.num_objects = 2, .objects_per_txn = 1},
                       rng);
  const auto sched = make_scheduler("greedy-ff");
  const Schedule s = sched->run(inst, m);

  PartialExecution px;
  px.now = s.makespan();
  px.committed.assign(inst.num_transactions(), 1);
  px.commit_realized = s.commit_time;
  px.object_at.resize(inst.num_objects());
  px.object_free_at.assign(inst.num_objects(), px.now);
  px.served.resize(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    px.object_at[o] = inst.object_home(o);
    px.served[o] = s.object_order[o];
  }
  px.order = s.object_order;
  EXPECT_EQ(reschedule_from(inst, m, *sched, px), nullptr);
}

// ----------------------------------------------------------- rw variant

PartialExecution fresh_px(const Instance& inst) {
  PartialExecution px;
  px.committed.assign(inst.num_transactions(), 0);
  px.commit_realized.assign(inst.num_transactions(), 0);
  px.object_at.resize(inst.num_objects());
  px.object_free_at.assign(inst.num_objects(), 0);
  px.served.resize(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    px.object_at[o] = inst.object_home(o);
  }
  return px;
}

// Shared homes: o0 (home 2) served T2@1 at step 1 and parks there; the
// suffix T0, T1 sits on node 0. The residual instance shares that home,
// and the hop rule on the suffix chain keeps the two commits a step apart.
struct SharedHomeSnapshot {
  Line line{3};
  DenseMetric m{line.graph};
  Instance inst;
  PartialExecution px;

  SharedHomeSnapshot() {
    InstanceBuilder b(line.graph, 1);
    b.allow_shared_homes();
    b.add_transaction(0, {0});
    b.add_transaction(0, {0});
    b.add_transaction(1, {0});
    b.set_object_home(0, 2);
    inst = b.build();
    px = fresh_px(inst);
    px.now = 1;
    px.committed[2] = 1;
    px.commit_realized[2] = 1;
    px.object_at[0] = 1;
    px.object_free_at[0] = 1;
    px.served[0] = {2};
  }
};

TEST(RescheduleFrom, SharedHomeSpliceValidates) {
  const SharedHomeSnapshot f;
  const auto sched = make_scheduler("greedy-ff");
  const std::unique_ptr<Schedule> out =
      reschedule_from(f.inst, f.m, *sched, f.px);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->object_order[0], (std::vector<TxnId>{2, 0, 1}));
  EXPECT_EQ(out->commit_time, (std::vector<Time>{2, 3, 1}));
  const ValidationResult r = validate(f.inst, f.m, *out);
  EXPECT_TRUE(r.ok) << r.summary();
}

TEST(RescheduleRw, SharedHomeWritersCommitAStepApart) {
  const SharedHomeSnapshot f;
  const RwSchedule out =
      reschedule_rw_from(f.inst, WriteSets{{0}, {0}, {0}}, f.m, f.px);
  EXPECT_EQ(out.writer_order[0], (std::vector<TxnId>{0, 1}));
  EXPECT_EQ(out.commit_time, (std::vector<Time>{2, 3, 1}));
}

// From an untouched snapshot (objects at home, nothing committed) the rw
// restart degenerates to schedule_rw_greedy, so check_rw accepts it.
TEST(RescheduleRw, FreshSnapshotPassesCheckRw) {
  const Grid topo(4);
  const DenseMetric m(topo.graph);
  Rng rng(29);
  const Instance inst =
      generate_uniform(topo.graph, {.num_objects = 6, .objects_per_txn = 2},
                       rng);
  const WriteSets writes = generate_write_sets(inst, 0.5, rng);
  const RwSchedule out = reschedule_rw_from(inst, writes, m, fresh_px(inst));
  EXPECT_EQ(check_rw(inst, writes, m, out, RwPolicy::kMultiVersion), "");
}

// Half-committed snapshot: committed transactions keep their realized
// times and vanish from every writer chain and reader list; the suffix
// lands strictly after the snapshot.
TEST(RescheduleRw, HalfCommittedSuffixComposesWithHistory) {
  const Clique topo(6);
  const DenseMetric m(topo.graph);
  Rng rng(17);
  const Instance inst =
      generate_uniform(topo.graph, {.num_objects = 4, .objects_per_txn = 2},
                       rng);
  const WriteSets writes = generate_write_sets(inst, 0.5, rng);
  const RwSchedule full = schedule_rw_greedy(inst, writes, m, {});
  ASSERT_EQ(check_rw(inst, writes, m, full, RwPolicy::kMultiVersion), "");

  // Commit everything at or below the median commit time; pin each object
  // at the home of its last committed writer.
  std::vector<Time> sorted = full.commit_time;
  std::sort(sorted.begin(), sorted.end());
  const Time cut = sorted[sorted.size() / 2];
  PartialExecution px = fresh_px(inst);
  px.now = cut;
  std::size_t committed = 0;
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    if (full.commit_time[t] > cut) continue;
    px.committed[t] = 1;
    px.commit_realized[t] = full.commit_time[t];
    ++committed;
  }
  ASSERT_GT(committed, 0u);
  ASSERT_LT(committed, inst.num_transactions());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    for (const TxnId t : full.writer_order[o]) {
      if (px.committed[t] == 0) continue;
      if (px.commit_realized[t] >= px.object_free_at[o]) {
        px.object_free_at[o] = px.commit_realized[t];
        px.object_at[o] = inst.txn(t).home;
      }
    }
  }

  const RwSchedule out = reschedule_rw_from(inst, writes, m, px);
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    if (px.committed[t] != 0) {
      EXPECT_EQ(out.commit_time[t], full.commit_time[t]) << "T" << t;
    } else {
      EXPECT_GT(out.commit_time[t], px.now) << "T" << t;
    }
  }
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    for (const TxnId t : out.writer_order[o]) {
      EXPECT_EQ(px.committed[t], 0) << "committed writer T" << t
                                    << " in o" << o << "'s chain";
    }
    for (const auto& [reader, source] : out.reader_source[o]) {
      EXPECT_EQ(px.committed[reader], 0)
          << "committed reader T" << reader << " listed for o" << o;
      (void)source;
    }
  }
}

}  // namespace
