// E11 — substrate microbenchmarks: APSP (sequential vs thread pool),
// single-source search, dependency-graph construction, greedy coloring,
// the earliest-time precedence solver, and simulator throughput.
//
// The printed series reports *counted work* (telemetry counter deltas) per
// substrate operation — the complement of the google-benchmark wall times.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/generators.hpp"
#include "core/precedence.hpp"
#include "graph/apsp.hpp"
#include "graph/metric.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "sched/dependency_graph.hpp"
#include "sched/greedy.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dtm;

void BM_ApspSequential(benchmark::State& state) {
  const Grid topo(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const DistanceMatrix m = compute_apsp(topo.graph);
    benchmark::DoNotOptimize(m.num_nodes());
  }
}
BENCHMARK(BM_ApspSequential)->Arg(16)->Arg(32)->Arg(48)->Unit(
    benchmark::kMillisecond);

void BM_ApspParallel(benchmark::State& state) {
  const Grid topo(static_cast<std::size_t>(state.range(0)));
  ThreadPool pool;
  for (auto _ : state) {
    const DistanceMatrix m = compute_apsp(topo.graph, &pool);
    benchmark::DoNotOptimize(m.num_nodes());
  }
}
BENCHMARK(BM_ApspParallel)->Arg(16)->Arg(32)->Arg(48)->Unit(
    benchmark::kMillisecond);

void BM_SingleSourceBfs(benchmark::State& state) {
  const Grid topo(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto t = single_source(topo.graph, 0);
    benchmark::DoNotOptimize(t.dist.data());
  }
}
BENCHMARK(BM_SingleSourceBfs)->Arg(32)->Arg(64)->Unit(
    benchmark::kMicrosecond);

void BM_DenseMetricQuery(benchmark::State& state) {
  const Grid topo(static_cast<std::size_t>(state.range(0)));
  const DenseMetric m(topo.graph);
  NodeId u = 0, v = 1;
  const auto n = static_cast<NodeId>(topo.graph.num_nodes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.distance(u, v));
    u = (u + 7) % n;
    v = (v + 13) % n;
  }
}
BENCHMARK(BM_DenseMetricQuery)->Arg(16)->Arg(48)->Unit(
    benchmark::kNanosecond);

void BM_LazyMetricQueryCachedSource(benchmark::State& state) {
  const Grid topo(static_cast<std::size_t>(state.range(0)));
  const LazyMetric m(topo.graph);
  (void)m.distance(0, 1);  // warm the single source
  NodeId v = 1;
  const auto n = static_cast<NodeId>(topo.graph.num_nodes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.distance(0, v));
    v = (v + 13) % n;
  }
}
BENCHMARK(BM_LazyMetricQueryCachedSource)->Arg(16)->Arg(48)->Unit(
    benchmark::kNanosecond);

void BM_DependencyGraphBuild(benchmark::State& state) {
  const Hypercube topo(static_cast<std::size_t>(state.range(0)));
  const DenseMetric metric(topo.graph);
  Rng rng(3);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 32, .objects_per_txn = 4}, rng);
  for (auto _ : state) {
    const DependencyGraph h = build_dependency_graph(inst, metric);
    benchmark::DoNotOptimize(h.max_degree);
  }
}
BENCHMARK(BM_DependencyGraphBuild)->Arg(6)->Arg(8)->Arg(10)->Unit(
    benchmark::kMillisecond);

void BM_GreedyColoring(benchmark::State& state) {
  const Hypercube topo(static_cast<std::size_t>(state.range(0)));
  const DenseMetric metric(topo.graph);
  Rng rng(4);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 32, .objects_per_txn = 4}, rng);
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  for (auto _ : state) {
    const ColoredSubset cs =
        greedy_color(inst, metric, all, ColoringRule::kFirstFit);
    benchmark::DoNotOptimize(cs.duration);
  }
}
BENCHMARK(BM_GreedyColoring)->Arg(6)->Arg(8)->Arg(10)->Unit(
    benchmark::kMillisecond);

void BM_PrecedenceSolver(benchmark::State& state) {
  const Hypercube topo(static_cast<std::size_t>(state.range(0)));
  const DenseMetric metric(topo.graph);
  Rng rng(5);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 32, .objects_per_txn = 4}, rng);
  std::vector<std::vector<TxnId>> orders(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    orders[o].assign(inst.requesters(o).begin(), inst.requesters(o).end());
  }
  for (auto _ : state) {
    const auto times = earliest_commit_times(inst, metric, orders);
    benchmark::DoNotOptimize(times.data());
  }
}
BENCHMARK(BM_PrecedenceSolver)->Arg(6)->Arg(8)->Arg(10)->Unit(
    benchmark::kMicrosecond);

void BM_Simulator(benchmark::State& state) {
  const Hypercube topo(static_cast<std::size_t>(state.range(0)));
  const DenseMetric metric(topo.graph);
  Rng rng(6);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 32, .objects_per_txn = 4}, rng);
  GreedyOptions opts;
  opts.rule = ColoringRule::kFirstFit;
  GreedyScheduler sched(opts);
  const Schedule s = sched.run(inst, metric);
  for (auto _ : state) {
    const SimResult r = simulate(inst, metric, s);
    benchmark::DoNotOptimize(r.realized_makespan);
    DTM_ASSERT(r.ok);
  }
}
BENCHMARK(BM_Simulator)->Arg(6)->Arg(8)->Arg(10)->Unit(
    benchmark::kMicrosecond);

/// Counted-work series: run each substrate op once on a fixed workload and
/// report how much work the telemetry counters observed.
void print_series() {
  benchutil::print_header(
      "E11 — substrate counted work",
      "counter deltas per substrate operation (grid 32x32, hypercube dim 8; "
      "see google-benchmark section for wall times)");
  MetricsRegistry& reg = MetricsRegistry::global();
  Table table({"operation", "counter", "delta"});
  const auto delta = [&](const std::string& counter_name,
                         const std::string& op,
                         const std::function<void()>& body) {
    const std::uint64_t before = reg.snapshot().counters[counter_name];
    body();
    const std::uint64_t after = reg.snapshot().counters[counter_name];
    table.add_row(op, counter_name, after - before);
  };

  const Grid grid(32);
  const Hypercube cube(8);
  delta("apsp.dijkstra_runs", "compute_apsp(grid32)",
        [&] { compute_apsp(grid.graph); });
  const DenseMetric metric(cube.graph);
  Rng rng(3);
  const Instance inst = generate_uniform(
      cube.graph, {.num_objects = 32, .objects_per_txn = 4}, rng);
  delta("metric.distance_queries", "build_dependency_graph(cube8)",
        [&] { (void)build_dependency_graph(inst, metric); });
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  delta("greedy.color_probes", "greedy_color(cube8)",
        [&] { (void)greedy_color(inst, metric, all, ColoringRule::kFirstFit); });
  GreedyOptions gopts;
  gopts.rule = ColoringRule::kFirstFit;
  GreedyScheduler sched(gopts);
  const Schedule s = sched.run(inst, metric);
  delta("sim.legs_moved", "simulate(cube8)",
        [&] { (void)simulate(inst, metric, s); });
  delta("metric.lazy_sssp_runs", "LazyMetric 8 sources (grid32)", [&] {
    const LazyMetric lazy(grid.graph);
    for (NodeId u = 0; u < 8; ++u) (void)lazy.distance(u, 100);
  });
  benchutil::emit_table("counted_work", table);
}

}  // namespace

int main(int argc, char** argv) {
  dtm::benchutil::BenchMain bm("substrate", argc, argv);
  print_series();
  bm.write_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
