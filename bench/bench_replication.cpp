// E17 — read/write workloads under replication / multi-versioning (§1.2:
// "our results for the data-flow model also apply to restricted versions
// of other models where objects may be replicated or versioned").
//
// Series: sweep the write fraction. With all-writes the model degenerates
// to the paper's single-copy setting; as reads dominate, the conflict
// graph thins out and copies serve readers in parallel. Expected shape:
// makespan falls monotonically with the write fraction, multi-version <=
// single-version <= single-copy, with the largest wins on hot objects.
#include "bench_common.hpp"

#include "core/generators.hpp"
#include "core/rw.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "sched/rw_greedy.hpp"
#include "util/rng.hpp"

namespace {

using namespace dtm;

void series(const char* topology, const Graph& g, const Metric& metric,
            bool hotspot, Table& table) {
  for (double frac : {1.0, 0.5, 0.2, 0.05}) {
    Stats single_copy, sv, mv;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      metrics::count("bench.trials");
      Rng rng(seed * 61);
      const Instance inst =
          hotspot ? generate_hotspot(g, 8, 2, rng)
                  : generate_uniform(
                        g, {.num_objects = 8, .objects_per_txn = 2}, rng);
      const WriteSets writes = generate_write_sets(inst, frac, rng);
      WriteSets all(inst.num_transactions());
      for (TxnId t = 0; t < inst.num_transactions(); ++t) {
        all[t].assign(inst.objects(t).begin(), inst.objects(t).end());
      }
      RwGreedyOptions opts;
      opts.policy = RwPolicy::kMultiVersion;
      const RwSchedule base = schedule_rw_greedy(inst, all, metric, opts);
      const RwSchedule mv_s = schedule_rw_greedy(inst, writes, metric, opts);
      opts.policy = RwPolicy::kSingleVersion;
      const RwSchedule sv_s = schedule_rw_greedy(inst, writes, metric, opts);
      DTM_REQUIRE(
          check_rw(inst, writes, metric, mv_s, RwPolicy::kMultiVersion)
              .empty(),
          "infeasible multi-version schedule");
      DTM_REQUIRE(
          check_rw(inst, writes, metric, sv_s, RwPolicy::kSingleVersion)
              .empty(),
          "infeasible single-version schedule");
      single_copy.add(static_cast<double>(base.makespan()));
      sv.add(static_cast<double>(sv_s.makespan()));
      mv.add(static_cast<double>(mv_s.makespan()));
    }
    table.add_row(topology, hotspot ? "hotspot" : "uniform", frac,
                  single_copy.mean(), sv.mean(), mv.mean(),
                  single_copy.mean() / std::max(mv.mean(), 1.0));
  }
}

void print_series() {
  benchutil::print_header(
      "E17 — replication / multi-versioning (§1.2)",
      "makespan vs write fraction; single-copy (all accesses exclusive) vs "
      "single-version replication vs multi-versioning");
  Table table({"topology", "workload", "write frac", "single-copy mk",
               "single-version mk", "multi-version mk", "speedup (mv)"});
  {
    const Clique topo(32);
    const DenseMetric metric(topo.graph);
    series("clique32", topo.graph, metric, false, table);
    series("clique32", topo.graph, metric, true, table);
  }
  {
    const Grid topo(8);
    const DenseMetric metric(topo.graph);
    series("grid8", topo.graph, metric, false, table);
  }
  benchutil::emit_table("main", table);
}

void BM_RwGreedy(benchmark::State& state) {
  const Grid topo(static_cast<std::size_t>(state.range(0)));
  const DenseMetric metric(topo.graph);
  Rng rng(3);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 12, .objects_per_txn = 2}, rng);
  const WriteSets writes = generate_write_sets(inst, 0.3, rng);
  for (auto _ : state) {
    const RwSchedule s = schedule_rw_greedy(inst, writes, metric);
    benchmark::DoNotOptimize(s.commit_time.data());
  }
}
BENCHMARK(BM_RwGreedy)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  dtm::benchutil::BenchMain bm("replication", argc, argv);
  print_series();
  bm.write_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
