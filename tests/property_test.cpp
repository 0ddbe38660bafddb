// Cross-cutting property and fuzz tests.
//
//  * EverySchedulerEverywhere — for each topology × seed, run every
//    applicable scheduler and check the full invariant set: validator ok,
//    simulator ok with the same makespan, makespan >= certified LB,
//    compaction never hurts, unbounded capacity replay == earliest times.
//  * MutationFuzz — randomly corrupt feasible schedules and check the
//    declarative validator and the operational simulator always agree on
//    the verdict.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/generators.hpp"
#include "core/metrics.hpp"
#include "core/precedence.hpp"
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
#include "lb/bounds.hpp"
#include "sched/control_flow.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

struct TopologyUnderTest {
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

TopologyUnderTest make_topology(int which) {
  TopologyUnderTest t;
  switch (which) {
    case 0:
      t.name = "clique";
      t.clique = std::make_unique<Clique>(14);
      break;
    case 1:
      t.name = "line";
      t.line = std::make_unique<Line>(20);
      break;
    case 2:
      t.name = "grid";
      t.grid = std::make_unique<Grid>(5);
      break;
    case 3:
      t.name = "cluster";
      t.cluster = std::make_unique<ClusterGraph>(3, 4, 6);
      break;
    case 4:
      t.name = "hypercube";
      t.hypercube = std::make_unique<Hypercube>(4);
      break;
    case 5:
      t.name = "butterfly";
      t.butterfly = std::make_unique<Butterfly>(2);
      break;
    default:
      t.name = "star";
      t.star = std::make_unique<Star>(4, 5);
      break;
  }
  return t;
}

// Every scheduler is built through the registry by name; topology-specific
// names work because make_scheduler_for recovers the topology from the
// instance's graph ("exact" is skipped — Held–Karp blows up at this size).
std::vector<std::string> scheduler_names_under_test(
    const TopologyUnderTest& t) {
  std::vector<std::string> names{"greedy-paper", "greedy-compact",
                                 "random-order", "serial"};
  if (t.line) names.push_back("line");
  if (t.grid) names.push_back("grid");
  if (t.cluster) {
    names.push_back("cluster");
    names.push_back("cluster-random");
  }
  if (t.star) {
    names.push_back("star");
    names.push_back("star-random");
  }
  return names;
}

class EverySchedulerEverywhere
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EverySchedulerEverywhere, FullInvariantSet) {
  const auto [which, seed_base] = GetParam();
  const TopologyUnderTest topo = make_topology(which);
  const DenseMetric metric(topo.graph());
  Rng rng(static_cast<std::uint64_t>(seed_base) * 6151 + 11);
  const Instance inst = generate_uniform(
      topo.graph(), {.num_objects = 6, .objects_per_txn = 2}, rng);
  const InstanceBounds lb = compute_bounds(inst, metric);

  for (const std::string& name : scheduler_names_under_test(topo)) {
    const auto sched =
        make_scheduler_for(inst, name, static_cast<std::uint64_t>(seed_base));
    const Schedule s = sched->run(inst, metric);
    const ValidationResult vr = validate(inst, metric, s);
    ASSERT_TRUE(vr.ok) << topo.name << '/' << sched->name() << ": "
                       << vr.summary();
    const SimResult sim = simulate(inst, metric, s);
    ASSERT_TRUE(sim.ok) << topo.name << '/' << sched->name() << ": "
                        << sim.summary();
    EXPECT_EQ(sim.realized_makespan, s.makespan())
        << topo.name << '/' << sched->name();
    EXPECT_GE(s.makespan(), lb.makespan_lb)
        << topo.name << '/' << sched->name();

    const Schedule tight = compact(inst, metric, s);
    EXPECT_LE(tight.makespan(), s.makespan())
        << topo.name << '/' << sched->name();
    EXPECT_TRUE(validate(inst, metric, tight).ok);

    const SimResult replay = simulate(
        inst, metric, s, {.capacity = 0, .earliest_commit = true});
    ASSERT_TRUE(replay.ok);
    EXPECT_EQ(replay.realized_makespan, tight.makespan())
        << topo.name << '/' << sched->name();

    const ScheduleMetrics sm = compute_metrics(inst, metric, s);
    EXPECT_GE(sm.communication, sm.max_object_travel);
    EXPECT_GE(sm.max_object_travel, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EverySchedulerEverywhere,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(0, 3)));

class MutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MutationFuzz, ValidatorAndSimulatorAlwaysAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40993 + 3);
  const Grid grid(5);
  const DenseMetric metric(grid.graph);
  const Instance inst = generate_uniform(
      grid.graph, {.num_objects = 5, .objects_per_txn = 2}, rng);
  const auto sched = make_scheduler("greedy-ff");
  const Schedule base = sched->run(inst, metric);
  ASSERT_TRUE(validate(inst, metric, base).ok);

  for (int mutation = 0; mutation < 30; ++mutation) {
    Schedule s = base;
    switch (rng.index(3)) {
      case 0: {  // perturb one commit time (can go infeasible or stay ok)
        const TxnId t = static_cast<TxnId>(rng.index(inst.num_transactions()));
        const Time delta = static_cast<Time>(rng.uniform(0, 6)) - 3;
        s.commit_time[t] = std::max<Time>(0, s.commit_time[t] + delta);
        break;
      }
      case 1: {  // swap two entries within one object's order
        const ObjectId o =
            static_cast<ObjectId>(rng.index(inst.num_objects()));
        auto& order = s.object_order[o];
        if (order.size() >= 2) {
          const std::size_t i = rng.index(order.size());
          const std::size_t j = rng.index(order.size());
          std::swap(order[i], order[j]);
        }
        break;
      }
      default: {  // uniform shift (stays feasible)
        const Time shift = static_cast<Time>(rng.uniform(0, 5));
        for (Time& t : s.commit_time) t += shift;
        break;
      }
    }
    const bool v = validate(inst, metric, s).ok;
    const bool m = simulate(inst, metric, s).ok;
    EXPECT_EQ(v, m) << "mutation " << mutation << " diverges (validator=" << v
                    << ", simulator=" << m << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range(0, 8));

// The three models check their schedules separately (validate, check_rw,
// check_control_flow), but they share the rule that one object serves one
// commit per step. T0 and T1 both sit on o0's home, so every distance is 0
// and only that rule keeps them apart.
TEST(CrossModel, EveryCheckerRejectsTwoCommitsOfOneObjectInOneStep) {
  const Line line(3);
  InstanceBuilder b(line.graph, 1);
  b.allow_shared_homes();
  b.set_object_home(0, 1);
  b.add_transaction(1, {0});
  b.add_transaction(1, {0});
  const Instance inst = b.build();
  const DenseMetric metric(line.graph);
  const WriteSets every_access_writes = {{0}, {0}};

  // Each checker returns "" when it accepts commit times `t` with o0
  // serving T0 first.
  using Checker = std::function<std::string(const std::vector<Time>&)>;
  const std::vector<std::pair<std::string, Checker>> checkers = {
      {"validate",
       [&](const std::vector<Time>& t) {
         const ValidationResult vr =
             validate(inst, metric, Schedule::from_commit_times(inst, t));
         return vr.ok ? std::string() : vr.summary();
       }},
      {"check_rw",
       [&](const std::vector<Time>& t) {
         RwSchedule s;
         s.commit_time = t;
         s.writer_order = {{0, 1}};
         s.reader_source.resize(1);
         return check_rw(inst, every_access_writes, metric, s,
                         RwPolicy::kSingleVersion);
       }},
      {"check_control_flow",
       [&](const std::vector<Time>& t) {
         ControlFlowResult r;
         r.commit_time = t;
         r.object_order = {{0, 1}};
         return check_control_flow(inst, metric, r);
       }},
  };
  for (const auto& [name, check] : checkers) {
    EXPECT_NE(check({1, 1}), "") << name << " accepts two commits in step 1";
    EXPECT_EQ(check({1, 2}), "") << name;
  }
}

}  // namespace
}  // namespace dtm
