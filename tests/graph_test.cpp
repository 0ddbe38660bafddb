// Unit tests for the CSR graph and single-source shortest paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/line.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace dtm {
namespace {

using test::materialized_count;
using test::offsets_written_count;

Graph triangle_with_tail() {
  // 0-1 (1), 1-2 (2), 0-2 (4), 2-3 (1)
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(0, 2, 4);
  b.add_edge(2, 3, 1);
  return b.build();
}

TEST(GraphBuilder, CountsNodesAndEdges) {
  const Graph g = triangle_with_tail();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(GraphBuilder, NeighborsSortedWithWeights) {
  const Graph g = triangle_with_tail();
  const auto n2 = g.neighbors(2);
  ASSERT_EQ(n2.size(), 3u);
  EXPECT_EQ(n2[0].to, 0u);
  EXPECT_EQ(n2[0].weight, 4);
  EXPECT_EQ(n2[1].to, 1u);
  EXPECT_EQ(n2[2].to, 3u);
}

TEST(GraphBuilder, RejectsBadEdges) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), Error);
  EXPECT_THROW(b.add_edge(1, 1), Error);
  EXPECT_THROW(b.add_edge(0, 1, 0), Error);
  EXPECT_THROW(b.add_edge(0, 1, -2), Error);
}

TEST(GraphBuilder, RejectsEmptyGraph) {
  EXPECT_THROW(GraphBuilder(0), Error);
}

TEST(Graph, UnitWeightFlag) {
  EXPECT_TRUE(Clique(4).graph.unit_weights());
  EXPECT_FALSE(triangle_with_tail().unit_weights());
  EXPECT_EQ(triangle_with_tail().max_weight(), 4);
}

TEST(Graph, ConnectedDetection) {
  EXPECT_TRUE(triangle_with_tail().connected());
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_FALSE(b.build().connected());
}

TEST(Graph, SingleNodeIsConnected) {
  GraphBuilder b(1);
  EXPECT_TRUE(b.build().connected());
}

// Builds a graph through Graph::from_rows from explicit rows; `degrees`
// overrides each row's declared length (defaults to the row's size) and
// `max_weight` the declared heaviest weight (defaults to the rows' own).
// The row source owns its rows and degrees: from_rows graphs read them on
// first use.
Graph from_arc_rows(std::vector<std::vector<Arc>> rows,
                    std::vector<std::size_t> degrees = {},
                    Weight max_weight = 0) {
  if (degrees.empty()) {
    for (const auto& row : rows) degrees.push_back(row.size());
  }
  if (max_weight == 0) {
    for (const auto& row : rows) {
      for (const Arc& a : row) max_weight = std::max(max_weight, a.weight);
    }
  }
  const std::size_t n = rows.size();
  return Graph::from_rows(
      n, max_weight,
      [degrees = std::move(degrees)](NodeId u) { return degrees[u]; },
      [rows = std::move(rows)](NodeId u, RowWriter& out) {
        for (const Arc& a : rows[u]) out.add(a.to, a.weight);
      });
}

// Expects building `rows` and reading them to throw dtm::Error whose
// message names `what`.
void expect_rows_rejected(const std::vector<std::vector<Arc>>& rows,
                          const std::string& what,
                          std::vector<std::size_t> degrees = {},
                          Weight max_weight = 0) {
  try {
    from_arc_rows(rows, std::move(degrees), max_weight).neighbors(0);
    ADD_FAILURE() << "expected an Error mentioning '" << what << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(FromRows, MatchesGraphBuilder) {
  // The rows of triangle_with_tail(), sorted by (to, weight).
  const Graph g = from_arc_rows({{{1, 1}, {2, 4}},
                                 {{0, 1}, {2, 2}},
                                 {{0, 4}, {1, 2}, {3, 1}},
                                 {{2, 1}}});
  EXPECT_EQ(g, triangle_with_tail());
  EXPECT_FALSE(g.unit_weights());
  EXPECT_EQ(g.max_weight(), 4);
  EXPECT_EQ(from_arc_rows({{}}), GraphBuilder(1).build());
}

TEST(FromRows, KeepsParallelArcsSortedByWeight) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 3);
  b.add_edge(1, 0, 2);
  EXPECT_EQ(from_arc_rows({{{1, 2}, {1, 3}}, {{0, 2}, {0, 3}}}), b.build());
  expect_rows_rejected({{{1, 3}, {1, 2}}, {{0, 2}, {0, 3}}}, "not sorted");
}

TEST(FromRows, RejectsMalformedRows) {
  // Path 0-1-2 with node 1's row replaced.
  const auto path_with = [](std::vector<Arc> row1) {
    return std::vector<std::vector<Arc>>{{{1, 1}}, std::move(row1), {{1, 1}}};
  };
  expect_rows_rejected(path_with({{0, 1}, {2, 1}}), "wrote 2 arcs, degree 3",
                       {1, 3, 2});
  expect_rows_rejected(path_with({{0, 1}, {2, 1}}), "more arcs than its degree",
                       {1, 1, 2});
  expect_rows_rejected(path_with({{2, 1}, {0, 1}}), "not sorted");
  expect_rows_rejected(path_with({{0, 1}, {1, 1}}), "self-loops");
  expect_rows_rejected(path_with({{0, 1}, {3, 1}}), "out of range");
  expect_rows_rejected(path_with({{0, 0}, {2, 1}}), "must be positive");
  expect_rows_rejected(path_with({{0, -2}, {2, 1}}), "must be positive");
  expect_rows_rejected(path_with({{0, 1}}), "odd number of arcs");
  EXPECT_THROW(from_arc_rows({}), Error);  // no nodes
}

TEST(FromRows, CheckedNodeCount) {
  EXPECT_EQ(checked_node_count(3, 4), 12u);
  EXPECT_EQ(checked_node_count(kInvalidNode - 1, 1), kInvalidNode - 1);
  EXPECT_THROW(checked_node_count(65535, 65537), Error);  // = kInvalidNode
  EXPECT_THROW(checked_node_count((std::size_t{1} << 63) + 1, 2), Error);
}

TEST(LazyRows, CountsAndWeightsDoNotWriteRows) {
  const auto before = materialized_count();
  const Graph g = from_arc_rows({{{1, 1}, {2, 4}},
                                 {{0, 1}, {2, 2}},
                                 {{0, 4}, {1, 2}, {3, 1}},
                                 {{2, 1}}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.max_weight(), 4);
  EXPECT_FALSE(g.unit_weights());
  EXPECT_EQ(materialized_count(), before);
  EXPECT_EQ(g.neighbors(2).size(), 3u);
  EXPECT_EQ(materialized_count(), before + 1);
}

TEST(LazyRows, BadRowSourceThrowsOnFirstRead) {
  // The row writes 2 where degree() promised 1: not seen until first read.
  const Graph g = from_arc_rows({{{1, 1}, {1, 1}}, {{0, 1}}}, {1, 1});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_THROW(g.neighbors(0), Error);
  EXPECT_THROW(g.neighbors(1), Error);  // a failed write is not kept
  GraphBuilder edge(2);
  edge.add_edge(0, 1);
  EXPECT_THROW((void)(g == edge.build()), Error);
}

TEST(LazyRows, DeclaredMaxWeightMustMatchRows) {
  const std::vector<std::vector<Arc>> weighted = {{{1, 4}}, {{0, 4}}};
  EXPECT_EQ(from_arc_rows(weighted, {}, 7).max_weight(), 7);
  expect_rows_rejected(weighted, "declared 7", {}, 7);
  // Declaring unit weights for rows that carry a weight-4 arc.
  EXPECT_TRUE(from_arc_rows(weighted, {}, 1).unit_weights());
  expect_rows_rejected(weighted, "declared 1", {}, 1);
  expect_rows_rejected({{{1, 1}}, {{0, 1}}}, "declared 2", {}, 2);
  EXPECT_THROW(from_arc_rows(weighted, {}, -1), Error);
}

TEST(LazyRows, EdgelessRowsDeclareWeightZero) {
  // A negative declaration throws at construction, arcs or not.
  EXPECT_THROW(from_arc_rows({{}}, {}, -1), Error);
  EXPECT_THROW(from_arc_rows({{}, {}}, {}, -3), Error);
  const Graph edgeless = from_arc_rows({{}, {}});
  EXPECT_EQ(edgeless.max_weight(), 0);
  EXPECT_EQ(edgeless.num_edges(), 0u);
  EXPECT_EQ(edgeless, GraphBuilder(2).build());
  // A positive declaration on edgeless rows throws from the first count
  // read, as an arc total that is odd or declared unweighted does.
  const Graph heavy = from_arc_rows({{}, {}}, {}, 5);
  EXPECT_EQ(heavy.max_weight(), 5);  // declared values are read freely
  EXPECT_THROW((void)heavy.num_edges(), Error);
  EXPECT_THROW((void)heavy.degree(1), Error);  // a failed write is not kept
  const Graph odd = from_arc_rows({{{1, 1}}, {{0, 1}}, {}}, {1, 1, 1});
  EXPECT_THROW((void)odd.degree(0), Error);
}

// Builds the path 0-1-...-(n-1) from rows, counting calls to `degree`.
Graph counted_path(std::size_t n, std::shared_ptr<std::atomic<int>> calls) {
  return Graph::from_rows(
      n, 1,
      [n, calls](NodeId u) {
        ++*calls;
        return std::size_t{u > 0} + (u + 1 < n);
      },
      [n](NodeId u, RowWriter& out) {
        if (u > 0) out.add(u - 1, 1);
        if (u + 1 < n) out.add(u + 1, 1);
      });
}

TEST(LazyRows, DegreeRunsOnceOnFirstCountRead) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  const auto before = offsets_written_count();
  const Graph g = counted_path(6, calls);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.max_weight(), 1);
  EXPECT_TRUE(g.unit_weights());
  const Graph early_copy = g;
  EXPECT_EQ(*calls, 0);
  EXPECT_EQ(offsets_written_count(), before);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(*calls, 6);
  EXPECT_EQ(offsets_written_count(), before + 1);
  // Later reads, through the graph or any copy, call it no more.
  const Graph late_copy = g;
  EXPECT_EQ(early_copy.degree(0), 1u);
  EXPECT_EQ(late_copy.degree(3), 2u);
  EXPECT_EQ(g.neighbors(5).size(), 1u);
  EXPECT_EQ(early_copy, late_copy);
  EXPECT_EQ(*calls, 6);
  EXPECT_EQ(offsets_written_count(), before + 1);
}

// Concurrent first count readers of one block see the same offsets, and
// the offsets are written once. Run under ThreadSanitizer in CI.
TEST(LazyRows, ConcurrentFirstDegreeReadsWriteOnce) {
  constexpr std::size_t kNodes = 5000;
  auto calls = std::make_shared<std::atomic<int>>(0);
  const Graph g = counted_path(kNodes, calls);
  const Graph copy = g;
  const auto before = offsets_written_count();
  constexpr int kThreads = 8;
  std::vector<std::size_t> sums(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Graph& mine = t % 2 ? copy : g;
      for (NodeId u = 0; u < kNodes; ++u) sums[t] += mine.degree(u);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(offsets_written_count(), before + 1);
  EXPECT_EQ(*calls, static_cast<int>(kNodes));
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(sums[t], 2 * (kNodes - 1)) << t;
}

TEST(LazyRows, CopiesShareOneMaterialization) {
  const Graph a = from_arc_rows({{{1, 2}}, {{0, 2}, {2, 1}}, {{1, 1}}});
  const Graph b = a;
  Graph c;
  c = b;
  const auto before = materialized_count();
  EXPECT_EQ(b.neighbors(1).size(), 2u);
  EXPECT_EQ(a.neighbors(0).data(), b.neighbors(0).data());
  EXPECT_EQ(c.neighbors(2)[0].to, 1u);
  EXPECT_EQ(materialized_count(), before + 1);
  EXPECT_EQ(a, c);
  EXPECT_EQ(materialized_count(), before + 1);
}

TEST(LazyRows, AdjacencyViewWritesOnceAndMatchesNeighbors) {
  const Graph g = from_arc_rows({{{1, 1}, {2, 4}},
                                 {{0, 1}, {2, 2}},
                                 {{0, 4}, {1, 2}, {3, 1}},
                                 {{2, 1}}});
  const auto before = materialized_count();
  const Graph::Adjacency adj = g.adjacency();
  EXPECT_EQ(materialized_count(), before + 1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto view = adj.neighbors(u);
    const auto row = g.neighbors(u);
    EXPECT_EQ(view.data(), row.data()) << u;
    EXPECT_EQ(view.size(), row.size()) << u;
  }
  (void)g.adjacency();
  EXPECT_EQ(materialized_count(), before + 1);
  // A bad row source throws from adjacency() as from neighbors().
  const Graph bad = from_arc_rows({{{1, 1}, {1, 1}}, {{0, 1}}}, {1, 1});
  EXPECT_THROW((void)bad.adjacency(), Error);
  // A default graph has no block; its view is empty and writes nothing.
  (void)Graph().adjacency();
  EXPECT_EQ(materialized_count(), before + 1);
}

TEST(LazyRows, UnkeyedGraphsCompareByArcs) {
  const auto rows = std::vector<std::vector<Arc>>{{{1, 1}}, {{0, 1}}};
  const Graph a = from_arc_rows(rows);
  const Graph b = from_arc_rows(rows);
  const auto before = materialized_count();
  EXPECT_EQ(a, b);
  EXPECT_EQ(materialized_count(), before + 2);
  EXPECT_NE(a, from_arc_rows({{{1, 1}}, {{0, 1}}, {}}));  // node count
}

TEST(Dijkstra, WeightedDistances) {
  const Graph g = triangle_with_tail();
  const auto t = dijkstra(g, 0);
  EXPECT_EQ(t.dist[0], 0);
  EXPECT_EQ(t.dist[1], 1);
  EXPECT_EQ(t.dist[2], 3);  // 0-1-2 beats the weight-4 direct edge
  EXPECT_EQ(t.dist[3], 4);
}

TEST(Dijkstra, PathReconstruction) {
  const Graph g = triangle_with_tail();
  const auto t = dijkstra(g, 0);
  const auto p = t.path_to(3);
  EXPECT_EQ(p, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Dijkstra, UnreachableIsInfinite) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto t = dijkstra(g, 0);
  EXPECT_EQ(t.dist[2], kInfiniteWeight);
  EXPECT_THROW(t.path_to(2), Error);
}

TEST(Bfs, MatchesDijkstraOnUnitGraphs) {
  const Grid grid(5, 7);
  for (NodeId s : {NodeId{0}, NodeId{17}, NodeId{34}}) {
    const auto b = bfs(grid.graph, s);
    const auto d = dijkstra(grid.graph, s);
    EXPECT_EQ(b.dist, d.dist);
  }
}

TEST(Bfs, RejectsWeightedGraph) {
  EXPECT_THROW(bfs(triangle_with_tail(), 0), Error);
}

TEST(SingleSource, DispatchesByWeights) {
  const Line line(10);
  EXPECT_EQ(single_source(line.graph, 0).dist[9], 9);
  EXPECT_EQ(single_source(triangle_with_tail(), 0).dist[2], 3);
}

TEST(Distance, PairQueries) {
  const Graph g = triangle_with_tail();
  EXPECT_EQ(distance(g, 0, 0), 0);
  EXPECT_EQ(distance(g, 0, 2), 3);
  EXPECT_EQ(distance(g, 3, 0), 4);
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(Clique(6).graph), 1);
  EXPECT_EQ(diameter(Line(10).graph), 9);
  EXPECT_EQ(diameter(Grid(4, 4).graph), 6);
  EXPECT_EQ(diameter(triangle_with_tail()), 4);
}

TEST(Diameter, RequiresConnected) {
  GraphBuilder b(2);
  EXPECT_THROW(diameter(b.build()), Error);
}

TEST(ShortestPathTree, PathToSelfIsTrivial) {
  const Graph g = triangle_with_tail();
  const auto t = dijkstra(g, 1);
  EXPECT_EQ(t.path_to(1), (std::vector<NodeId>{1}));
}

}  // namespace
}  // namespace dtm
