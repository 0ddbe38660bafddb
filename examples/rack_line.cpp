// Bus / backplane scenario (§1/§4: "the line graph represents bus system
// architectures, for example connecting boards in a rack").
//
// 32 boards on a linear bus share a handful of mobile objects. The example
// shows the §4 two-phase schedule: it computes ℓ (the longest object walk),
// prints the phase structure, and verifies the 4ℓ guarantee; on a tiny
// instance it also compares against the exact optimum.
#include <iostream>

#include "core/generators.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/line.hpp"
#include "lb/bounds.hpp"
#include "sched/line.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using namespace dtm;

  const Line topo(32);
  const DenseMetric metric(topo.graph);
  Rng rng(9);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);

  // The registry recovers the line topology from the instance's graph;
  // underlying() reaches the concrete LineScheduler for last_ell().
  const auto sched = make_scheduler_for(inst, "line");
  const Schedule s = sched->run(inst, metric);
  DTM_REQUIRE(validate(inst, metric, s).ok, "infeasible line schedule");
  const InstanceBounds lb = compute_bounds(inst, metric);

  const Weight ell =
      dynamic_cast<const LineScheduler&>(*sched->underlying()).last_ell();
  std::cout << "bus with 32 boards; longest object walk ℓ = " << ell << "\n"
            << "two-phase schedule makespan " << s.makespan()
            << "  (paper guarantee 4ℓ = " << 4 * ell << ", certified LB "
            << lb.makespan_lb << ")\n\n";

  // Show which phase each board commits in.
  Table table({"board", "objects", "commit step", "phase"});
  for (const TxnRef t : inst.transactions()) {
    if (t.home % 4 != 0) continue;  // sample every 4th board for brevity
    std::string objs;
    for (ObjectId o : t.objects) objs += (objs.empty() ? "o" : ",o") + std::to_string(o);
    const std::size_t subline = t.home / static_cast<NodeId>(std::max<Weight>(ell, 1));
    table.add_row(t.home, objs, static_cast<double>(s.commit_time[t.id]),
                  subline % 2 == 0 ? 1 : 2);
  }
  table.print(std::cout);

  // Tiny instance: the line schedule vs the true optimum.
  {
    const Line small(7);
    const DenseMetric small_metric(small.graph);
    Rng small_rng(4);
    const Instance tiny = generate_uniform(
        small.graph,
        {.num_objects = 2, .objects_per_txn = 1}, small_rng);
    const auto line_sched = make_scheduler_for(tiny, "line");
    const auto exact = make_scheduler_for(tiny, "exact");
    const Schedule a = line_sched->run(tiny, small_metric);
    const Schedule b = exact->run(tiny, small_metric);
    std::cout << "\ntiny 7-board instance: line schedule " << a.makespan()
              << " vs exact optimum " << b.makespan() << "\n";
  }
  return 0;
}
