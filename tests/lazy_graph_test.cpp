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
#include "graph/topologies/butterfly.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/detect.hpp"
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

// Detection rules a keyed graph of another family out by the key's closed
// form, so asking for a family's metric or shard map writes no offsets:
// not for the candidates of earlier families tried first, and not for the
// caller's graph.

TEST(LazyGraphDetection, KeyedShapeIsClosedForm) {
  const Line line(7);
  const Grid grid(3, 4), row(1, 5);
  const ClusterGraph cluster(3, 4, 2);
  const Clique clique(5);
  const Hypercube cube(4);
  const Butterfly butterfly(3);
  const Star star(3, 2);
  const BlockGrid block_grid(4);
  const BlockTree block_tree(4);
  for (const Graph* g :
       {&line.graph, &grid.graph, &row.graph, &cluster.graph, &clique.graph,
        &cube.graph, &butterfly.graph, &star.graph, &block_grid.graph,
        &block_tree.graph}) {
    const auto offsets_before = offsets_written_count();
    const GraphShape shape = graph_shape(*g);
    EXPECT_EQ(offsets_written_count(), offsets_before);
    EXPECT_EQ(shape.edges, g->num_edges());
    EXPECT_EQ(shape.degree0, g->degree(0));
  }
}

TEST(LazyGraphDetection, OtherFamiliesWriteNoOffsets) {
  // Each call on a fresh graph: an earlier call writes nothing for a later
  // one to reuse.
  const auto writes = [](const auto& call) {
    const auto before = offsets_written_count();
    call();
    return offsets_written_count() - before;
  };
  const auto before = materialized_count();
  EXPECT_EQ(writes([] {
              EXPECT_EQ(make_analytic_metric(Grid(10, 10).graph)->kind(),
                        TopologyKind::kGrid);
            }),
            0u);
  EXPECT_EQ(writes([] {
              EXPECT_EQ(make_analytic_metric(Clique(6).graph)->kind(),
                        TopologyKind::kClique);
            }),
            0u);
  EXPECT_EQ(writes([] {
              EXPECT_EQ(make_analytic_metric(Hypercube(4).graph)->kind(),
                        TopologyKind::kHypercube);
            }),
            0u);
  EXPECT_EQ(writes([] {
              EXPECT_EQ(make_shard_map(Grid(10, 10).graph, 4).scheme, "grid");
            }),
            0u);
  // A star's ray count is node 0's degree, which its key also gives.
  EXPECT_EQ(writes([] {
              EXPECT_EQ(make_analytic_metric(Star(3, 4).graph)->kind(),
                        TopologyKind::kStar);
            }),
            0u);
  EXPECT_EQ(materialized_count(), before);
}

TEST(LazyGraphDetection, DegenerateGridIsStillALine) {
  // Grid(1, n) has a Line's shape, so it takes the full comparison.
  const Grid row(1, 6);
  const auto metric = make_analytic_metric(row.graph);
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind(), TopologyKind::kLine);
  EXPECT_EQ(detect_topology(row.graph), TopologyKind::kLine);
}

}  // namespace
}  // namespace dtm
