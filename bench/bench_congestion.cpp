// E13 — link congestion (paper's open question #2: bounded-capacity links).
//
// The §2.1 model allows unlimited messages per link per step. This bench
// measures how hard each schedule leans on that assumption: the peak
// number of objects simultaneously crossing one link. A schedule with peak
// load L stretches by at most L on a serializing network, so small peaks
// mean the paper's bounds survive capacity limits nearly unchanged.
//
// Expected shape: the specialized schedules (line/grid) keep peaks low
// (objects move in disjoint regions); hub topologies (star center) and
// makespan-aggressive schedules concentrate load.
#include "bench_common.hpp"

#include "core/generators.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "sched/registry.hpp"
#include "sim/congestion.hpp"
#include "util/rng.hpp"

namespace {

using namespace dtm;

// Schedulers come from the registry by name (default seed 1, matching the
// hand-constructed options this bench used before the registry existed).
void measure(const char* topology, const Graph& g, const Metric& metric,
             const std::function<Instance(std::uint64_t)>& make_inst,
             const std::string& sched_name, Table& table) {
  Stats makespan, peak, flow;
  std::string display_name;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Instance inst = make_inst(seed);
    auto sched = make_scheduler_for(inst, sched_name);
    display_name = sched->name();
    const Schedule s = sched->run(inst, metric);
    DTM_REQUIRE(validate(inst, metric, s).ok, "infeasible schedule");
    const CongestionReport r = analyze_congestion(inst, metric, s);
    makespan.add(static_cast<double>(s.makespan()));
    peak.add(static_cast<double>(r.peak_load));
    flow.add(static_cast<double>(r.total_flow));
  }
  table.add_row(topology, display_name, makespan.mean(), peak.mean(),
                peak.max(), flow.mean());
  (void)g;
}

void print_series() {
  benchutil::print_header(
      "E13 — link congestion under the unbounded-capacity model",
      "peak simultaneous objects per link; a peak of L means at most an "
      "L-fold stretch on serializing links");
  Table table({"topology", "scheduler", "makespan(mean)", "peak(mean)",
               "peak(max)", "flow(mean)"});
  {
    const Line topo(64);
    const DenseMetric metric(topo.graph);
    const auto make_inst = benchutil::uniform_workload(topo.graph);
    measure("line64", topo.graph, metric, make_inst, "line", table);
    measure("line64", topo.graph, metric, make_inst, "greedy-ff", table);
  }
  {
    const Grid topo(12);
    const DenseMetric metric(topo.graph);
    const auto make_inst = benchutil::uniform_workload(topo.graph);
    measure("grid12", topo.graph, metric, make_inst, "grid", table);
    measure("grid12", topo.graph, metric, make_inst, "greedy-ff", table);
    measure("grid12", topo.graph, metric, make_inst, "serial", table);
  }
  {
    const Star topo(8, 8);
    const DenseMetric metric(topo.graph);
    const auto make_inst = benchutil::uniform_workload(topo.graph);
    measure("star8x8", topo.graph, metric, make_inst, "star", table);
    measure("star8x8", topo.graph, metric, make_inst, "greedy-ff", table);
  }
  benchutil::emit_table("main", table);
}

void capacity_series() {
  benchutil::print_header(
      "E13b — realized makespan under bounded link capacity",
      "re-executing each policy's visit orders with FIFO links of capacity "
      "C; stretch = makespan(C) / makespan(unbounded)");
  Table table({"topology", "scheduler", "unbounded", "C=4", "C=2", "C=1",
               "stretch C=1"});
  // Capacity columns in the table's order; index 0 is the unbounded run.
  const std::vector<std::size_t> caps = {0, 4, 2, 1};
  auto run_capacities = [&](const char* topology, const Graph& g,
                            const Metric& metric,
                            const std::string& sched_name) {
    const benchutil::CapacityCellStats cell = benchutil::run_capacity_cell(
        metric, benchutil::uniform_workload(g), sched_name,
        /*seed_schedulers=*/false, caps, /*trials=*/5);
    table.add_row(topology, cell.scheduler, cell.makespan[0].mean(),
                  cell.makespan[1].mean(), cell.makespan[2].mean(),
                  cell.makespan[3].mean(),
                  cell.makespan[3].mean() / cell.makespan[0].mean());
  };
  {
    const Grid topo(12);
    const DenseMetric metric(topo.graph);
    run_capacities("grid12", topo.graph, metric, "grid");
    run_capacities("grid12", topo.graph, metric, "greedy-ff");
  }
  {
    const Star topo(8, 8);
    const DenseMetric metric(topo.graph);
    run_capacities("star8x8", topo.graph, metric, "star");
    run_capacities("star8x8", topo.graph, metric, "greedy-ff");
  }
  benchutil::emit_table("capacity", table);
}

void BM_CongestionAnalysis(benchmark::State& state) {
  const Grid topo(static_cast<std::size_t>(state.range(0)));
  const DenseMetric metric(topo.graph);
  Rng rng(5);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 16, .objects_per_txn = 2}, rng);
  auto sched = make_scheduler("greedy-ff");
  const Schedule s = sched->run(inst, metric);
  for (auto _ : state) {
    const CongestionReport r = analyze_congestion(inst, metric, s);
    benchmark::DoNotOptimize(r.peak_load);
  }
}
BENCHMARK(BM_CongestionAnalysis)->Arg(8)->Arg(16)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  dtm::benchutil::BenchMain bm("congestion", argc, argv);
  print_series();
  capacity_series();
  bm.write_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
