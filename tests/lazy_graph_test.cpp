// Which layers read a row-built graph's offsets and arcs. A ClusterGraph
// declares its rows and writes its offsets on the first count read and its
// arcs on the first adjacency read; the `graph.offsets_written` and
// `graph.materialized` counters count those writes. The batch-cluster
// pipeline (closed-form metric, uniform workload, greedy cluster
// scheduler, validation, simulation) must write neither, and the stream
// set-up (shard map, home placement, runtime) no arcs; adjacency readers
// write the arcs exactly once per shared block, however many copies read.
#include <gtest/gtest.h>

#include <sstream>

#include "core/generators.hpp"
#include "core/io.hpp"
#include "core/validate.hpp"
#include "graph/analytic_metric.hpp"
#include "graph/metric.hpp"
#include "graph/partition.hpp"
#include "graph/topologies/cluster.hpp"
#include "sched/cluster.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

using test::materialized_count;
using test::offsets_written_count;

// 4 clusters of 5 with γ = 6. Detection from the bare graph rebuilds the
// (2, 10) split first and rejects it by key, then matches (4, 5) by key.
ClusterGraph small_cluster() { return ClusterGraph(4, 5, 6); }

TEST(LazyGraphPipeline, BatchClusterNeverWritesRows) {
  const auto before = materialized_count();
  const auto offsets_before = offsets_written_count();
  const ClusterGraph topo = small_cluster();
  const auto metric = make_analytic_metric(topo);
  for (std::uint64_t b = 0; b < 3; ++b) {
    Rng rng(b + 1);
    const Instance inst = generate_uniform(
        topo.graph, {.num_objects = 12, .objects_per_txn = 2}, rng);
    ClusterScheduler sched(topo, {.approach = ClusterApproach::kGreedy});
    const Schedule s = sched.run(inst, *metric);
    const ValidationResult vr = validate(inst, *metric, s);
    EXPECT_TRUE(vr.ok) << vr.summary();
    const SimResult sim = simulate(inst, *metric, s);
    EXPECT_TRUE(sim.ok) << sim.summary();
    EXPECT_EQ(sim.realized_makespan, s.makespan());
  }
  EXPECT_EQ(materialized_count(), before);
  EXPECT_EQ(offsets_written_count(), offsets_before);
  // Detection from the bare graph settles the family by key before any
  // count read: it writes neither array.
  ASSERT_NE(make_analytic_metric(topo.graph), nullptr);
  ASSERT_NE(make_analytic_metric(topo.graph), nullptr);
  EXPECT_EQ(materialized_count(), before);
  EXPECT_EQ(offsets_written_count(), offsets_before);
}

TEST(LazyGraphPipeline, StreamSetupNeverWritesRows) {
  const auto before = materialized_count();
  const auto offsets_before = offsets_written_count();
  const ClusterGraph topo = small_cluster();
  const auto metric = make_analytic_metric(topo);
  const ShardMap map = make_shard_map(topo.graph, 2);
  EXPECT_EQ(map.scheme, "cluster");
  const auto local = shard_aligned_homes(map, 16);
  const auto spread = StreamingRuntime::spread_homes(topo.graph, 16);
  StreamingRuntimeOptions opts;
  opts.window = 4;
  opts.shards = 2;
  StreamingRuntime rt(topo.graph, *metric, local, opts);
  for (Time t = 0; t < 12; ++t) {
    rt.ingest({.arrival = t,
               .home = static_cast<NodeId>(t % 20),
               .objects = {static_cast<ObjectId>(t % 16),
                           static_cast<ObjectId>((t + 5) % 16)}});
  }
  EXPECT_EQ(rt.drain().committed, 12u);
  EXPECT_EQ(spread.size(), 16u);
  EXPECT_EQ(materialized_count(), before);
  // The shard map's detection matches the substrate by key and writes no
  // offsets either.
  EXPECT_EQ(offsets_written_count(), offsets_before);
}

// Each reader below writes the rows on first use, once per block: a copy
// of the graph, read after the original, writes nothing more.

TEST(LazyGraphReaders, AnalyticPathWritesOnce) {
  const ClusterGraph topo = small_cluster();
  const Graph copy = topo.graph;
  const auto metric = make_analytic_metric(topo);
  const auto before = materialized_count();
  EXPECT_EQ(metric->path(1, 17).size(), 4u);  // 1, bridges 0 and 15, 17
  EXPECT_EQ(materialized_count(), before + 1);
  EXPECT_EQ(metric->path(7, 3).size(), 4u);
  EXPECT_EQ(copy.neighbors(0).size(), 7u);
  EXPECT_EQ(materialized_count(), before + 1);
}

TEST(LazyGraphReaders, DenseMetricWritesOnce) {
  const ClusterGraph topo = small_cluster();
  const Graph copy = topo.graph;
  const auto before = materialized_count();
  const DenseMetric dense(topo.graph);
  EXPECT_EQ(materialized_count(), before + 1);
  const DenseMetric dense_copy(copy);
  EXPECT_EQ(materialized_count(), before + 1);
  EXPECT_EQ(dense.distance(1, 17), topo.cluster_distance(1, 17));
  EXPECT_EQ(dense_copy.distance(2, 9), topo.cluster_distance(2, 9));
}

TEST(LazyGraphReaders, WriteGraphWritesOnce) {
  const ClusterGraph topo = small_cluster();
  const Graph copy = topo.graph;
  const auto before = materialized_count();
  std::ostringstream first, second;
  write_graph(first, topo.graph);
  EXPECT_EQ(materialized_count(), before + 1);
  write_graph(second, copy);
  EXPECT_EQ(materialized_count(), before + 1);
  EXPECT_EQ(first.str(), second.str());
  std::istringstream in(first.str());
  EXPECT_EQ(read_graph(in), topo.graph);
}

TEST(LazyGraphReaders, ConnectedWritesOnce) {
  const ClusterGraph topo = small_cluster();
  const Graph copy = topo.graph;
  const auto before = materialized_count();
  EXPECT_TRUE(topo.graph.connected());
  EXPECT_EQ(materialized_count(), before + 1);
  EXPECT_TRUE(copy.connected());
  EXPECT_EQ(materialized_count(), before + 1);
}

}  // namespace
}  // namespace dtm
