// Network-on-chip scenario (§1: "grid graphs represent systems on chips or
// multi-cores, e.g. XMOS, Intel Xeon Phi").
//
// A 16x16 mesh of cores runs one transaction each against a pool of shared
// cache lines (the mobile objects). The example compares the §5 subgrid
// scheduler against the plain §2.3 greedy schedule and a serial baseline,
// then prints the first steps of the winning schedule's event trace so you
// can see objects hopping between cores.
#include <iostream>

#include "core/generators.hpp"
#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/grid.hpp"
#include "lb/bounds.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using namespace dtm;

  const std::size_t side = 16;
  const Grid topo(side);
  const DenseMetric metric(topo.graph);

  Rng rng(7);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 32, .objects_per_txn = 2}, rng);
  const InstanceBounds lb = compute_bounds(inst, metric);

  std::cout << "NoC: " << side << "x" << side << " mesh, "
            << inst.num_transactions() << " transactions over "
            << inst.num_objects() << " shared cache lines\n"
            << "certified makespan lower bound: " << lb.makespan_lb << "\n\n";

  Table table({"scheduler", "makespan", "ratio", "communication"});
  Schedule best;
  Time best_makespan = kInfiniteWeight;

  auto evaluate = [&](Scheduler& sched) {
    const Schedule s = sched.run(inst, metric);
    DTM_REQUIRE(validate(inst, metric, s).ok,
                sched.name() << " produced an infeasible schedule");
    const ScheduleMetrics sm = compute_metrics(inst, metric, s);
    table.add_row(sched.name(), static_cast<double>(sm.makespan),
                  static_cast<double>(sm.makespan) /
                      static_cast<double>(lb.makespan_lb),
                  static_cast<double>(sm.communication));
    if (sm.makespan < best_makespan) {
      best_makespan = sm.makespan;
      best = s;
    }
  };

  // The registry recovers the 16x16 mesh from the instance's graph, so the
  // subgrid schedulers need no hand-passed topology.
  for (const char* name : {"grid", "grid-ff", "greedy-compact", "serial"}) {
    const auto sched = make_scheduler_for(inst, name, 1);
    evaluate(*sched);
  }
  table.print(std::cout);

  // Trace the first dozen events of the best schedule.
  SimOptions opts;
  opts.record_events = true;
  const SimResult sim = simulate(inst, metric, best, opts);
  DTM_REQUIRE(sim.ok, "simulation failed: " << sim.summary());
  std::cout << "\nfirst events of the best schedule (makespan "
            << sim.realized_makespan << "):\n";
  std::size_t shown = 0;
  for (const SimEvent& e : sim.events) {
    if (!e.chronological()) continue;  // show the moves and commits
    if (shown++ >= 14) break;
    std::cout << "  t=" << e.time << "  ";
    switch (e.kind) {
      case SimEvent::Kind::kDepart:
        std::cout << "o" << e.object << " departs core ("
                  << topo.row_of(e.node) << ',' << topo.col_of(e.node) << ")";
        break;
      case SimEvent::Kind::kArrive:
        std::cout << "o" << e.object << " arrives at core ("
                  << topo.row_of(e.node) << ',' << topo.col_of(e.node) << ")";
        break;
      case SimEvent::Kind::kCommit:
        std::cout << "T" << e.txn << " commits at core ("
                  << topo.row_of(e.node) << ',' << topo.col_of(e.node) << ")";
        break;
      case SimEvent::Kind::kHop:
        std::cout << "o" << e.object << " hops";
        break;
      default:
        break;
    }
    std::cout << "\n";
  }
  return 0;
}
