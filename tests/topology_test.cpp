// Structural tests for every topology builder, including parameterized
// checks that the closed-form distance helpers agree with graph search.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "graph/metric.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/topologies/block_grid.hpp"
#include "graph/topologies/block_tree.hpp"
#include "graph/topologies/butterfly.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "graph/topologies/topology.hpp"
#include "test_util.hpp"

namespace dtm {
namespace {

using test::materialized_count;

TEST(TopologyKind, Names) {
  EXPECT_STREQ(to_string(TopologyKind::kClique), "clique");
  EXPECT_STREQ(to_string(TopologyKind::kBlockTree), "block_tree");
  EXPECT_STREQ(to_string(TopologyKind::kButterfly), "butterfly");
}

// --------------------------------------------------------------- clique

TEST(CliqueTopo, EdgeCountAndDegrees) {
  const Clique c(7);
  EXPECT_EQ(c.graph.num_nodes(), 7u);
  EXPECT_EQ(c.graph.num_edges(), 21u);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(c.graph.degree(v), 6u);
  EXPECT_EQ(diameter(c.graph), 1);
}

TEST(CliqueTopo, SingleNode) {
  const Clique c(1);
  EXPECT_EQ(c.graph.num_nodes(), 1u);
  EXPECT_EQ(c.graph.num_edges(), 0u);
}

// ----------------------------------------------------------------- line

TEST(LineTopo, PathStructure) {
  const Line l(12);
  EXPECT_EQ(l.graph.num_edges(), 11u);
  EXPECT_EQ(l.graph.degree(0), 1u);
  EXPECT_EQ(l.graph.degree(5), 2u);
  EXPECT_EQ(l.graph.degree(11), 1u);
}

TEST(LineTopo, ClosedFormDistance) {
  const Line l(20);
  const DenseMetric m(l.graph);
  for (NodeId u = 0; u < 20; u += 3) {
    for (NodeId v = 0; v < 20; v += 4) {
      EXPECT_EQ(Line::line_distance(u, v), m.distance(u, v));
    }
  }
}

// ----------------------------------------------------------------- grid

TEST(GridTopo, CoordinatesRoundTrip) {
  const Grid g(4, 6);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      const NodeId v = g.node_at(r, c);
      EXPECT_EQ(g.row_of(v), r);
      EXPECT_EQ(g.col_of(v), c);
    }
  }
}

TEST(GridTopo, DegreesAndEdges) {
  const Grid g(3, 3);
  EXPECT_EQ(g.graph.num_edges(), 12u);
  EXPECT_EQ(g.graph.degree(g.node_at(0, 0)), 2u);  // corner
  EXPECT_EQ(g.graph.degree(g.node_at(0, 1)), 3u);  // border
  EXPECT_EQ(g.graph.degree(g.node_at(1, 1)), 4u);  // interior
}

TEST(GridTopo, ManhattanDistanceMatchesGraph) {
  const Grid g(5, 7);
  const DenseMetric m(g.graph);
  for (NodeId u = 0; u < g.graph.num_nodes(); u += 4) {
    for (NodeId v = 0; v < g.graph.num_nodes(); v += 5) {
      EXPECT_EQ(g.grid_distance(u, v), m.distance(u, v));
    }
  }
}

// -------------------------------------------------------------- cluster

TEST(ClusterTopo, StructureAndBridges) {
  const ClusterGraph cg(4, 5, 9);
  EXPECT_EQ(cg.graph.num_nodes(), 20u);
  // Each cluster: C(5,2)=10 edges; bridges: C(4,2)=6.
  EXPECT_EQ(cg.graph.num_edges(), 4 * 10 + 6u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(cg.is_bridge(cg.bridge_of(c)));
    EXPECT_EQ(cg.cluster_of(cg.bridge_of(c)), c);
  }
}

TEST(ClusterTopo, ClosedFormDistanceMatchesGraph) {
  const ClusterGraph cg(3, 4, 6);
  const DenseMetric m(cg.graph);
  for (NodeId u = 0; u < cg.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < cg.graph.num_nodes(); ++v) {
      EXPECT_EQ(cg.cluster_distance(u, v), m.distance(u, v))
          << "pair " << u << "," << v;
    }
  }
}

TEST(ClusterTopo, SingleNodeClusters) {
  const ClusterGraph cg(3, 1, 2);
  EXPECT_EQ(cg.graph.num_nodes(), 3u);
  EXPECT_EQ(cg.graph.num_edges(), 3u);  // bridge triangle only
  EXPECT_EQ(cg.cluster_distance(0, 1), 2);
}

// ------------------------------------------------------------ hypercube

TEST(HypercubeTopo, StructureAndDistance) {
  const Hypercube h(4);
  EXPECT_EQ(h.graph.num_nodes(), 16u);
  EXPECT_EQ(h.graph.num_edges(), 32u);  // n*d/2
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(h.graph.degree(v), 4u);
  const DenseMetric m(h.graph);
  for (NodeId u = 0; u < 16; ++u) {
    for (NodeId v = 0; v < 16; ++v) {
      EXPECT_EQ(Hypercube::cube_distance(u, v), m.distance(u, v));
    }
  }
  EXPECT_EQ(diameter(h.graph), 4);
}

// ------------------------------------------------------------ butterfly

TEST(ButterflyTopo, Structure) {
  const Butterfly b(3);
  EXPECT_EQ(b.num_nodes(), 4u * 8u);
  EXPECT_EQ(b.graph.num_nodes(), 32u);
  EXPECT_EQ(b.graph.num_edges(), 3u * 8u * 2u);
  // End levels have degree 2; middle levels degree 4.
  EXPECT_EQ(b.graph.degree(b.node_at(0, 0)), 2u);
  EXPECT_EQ(b.graph.degree(b.node_at(1, 0)), 4u);
  EXPECT_EQ(b.graph.degree(b.node_at(3, 5)), 2u);
}

TEST(ButterflyTopo, DiameterIsThetaLogN) {
  const Butterfly b(3);
  EXPECT_TRUE(b.graph.connected());
  const Weight d = diameter(b.graph);
  EXPECT_GE(d, 3);
  EXPECT_LE(d, 2 * 3);
}

TEST(ButterflyTopo, CoordinateRoundTrip) {
  const Butterfly b(4);
  for (std::size_t l = 0; l < b.levels(); ++l) {
    for (std::size_t r = 0; r < b.rows(); r += 3) {
      const NodeId v = b.node_at(l, r);
      EXPECT_EQ(b.level_of(v), l);
      EXPECT_EQ(b.row_of(v), r);
    }
  }
}

// ----------------------------------------------------------------- star

TEST(StarTopo, StructureAndDistance) {
  const Star s(6, 5);
  EXPECT_EQ(s.num_nodes(), 31u);
  EXPECT_EQ(s.graph.num_edges(), 30u);  // a tree
  EXPECT_TRUE(s.graph.connected());
  const DenseMetric m(s.graph);
  for (NodeId u = 0; u < s.num_nodes(); ++u) {
    for (NodeId v = 0; v < s.num_nodes(); ++v) {
      EXPECT_EQ(s.star_distance(u, v), m.distance(u, v));
    }
  }
}

TEST(StarTopo, SegmentsCoverPositionsExactlyOnce) {
  for (std::size_t beta : {1u, 2u, 5u, 8u, 13u}) {
    const Star s(3, beta);
    std::vector<int> covered(beta + 1, 0);
    for (std::size_t seg = 1; seg <= s.num_segments(); ++seg) {
      const auto [first, last] = s.segment_range(seg);
      for (std::size_t p = first; p <= last; ++p) {
        ASSERT_LE(p, beta);
        covered[p]++;
        EXPECT_EQ(s.segment_of_pos(p), seg);
      }
    }
    for (std::size_t p = 1; p <= beta; ++p) {
      EXPECT_EQ(covered[p], 1) << "beta=" << beta << " pos=" << p;
    }
  }
}

TEST(StarTopo, SegmentLengthsGrowExponentially) {
  const Star s(2, 16);
  EXPECT_EQ(s.num_segments(), 4u);
  EXPECT_EQ(s.segment_range(1), (std::pair<std::size_t, std::size_t>{1, 1}));
  EXPECT_EQ(s.segment_range(2), (std::pair<std::size_t, std::size_t>{2, 3}));
  EXPECT_EQ(s.segment_range(3), (std::pair<std::size_t, std::size_t>{4, 7}));
  // The final segment absorbs the tail up to β (here one extra node).
  EXPECT_EQ(s.segment_range(4), (std::pair<std::size_t, std::size_t>{8, 16}));
}

// ----------------------------------------------------------- block grid

TEST(BlockGridTopo, LayoutAndWeights) {
  const BlockGrid g(4);  // sqrt_s = 2, 4 rows, 8 cols
  EXPECT_EQ(g.rows, 4u);
  EXPECT_EQ(g.cols, 8u);
  EXPECT_EQ(g.num_nodes(), 32u);
  EXPECT_EQ(g.block_of(g.node_at(0, 1)), 0u);
  EXPECT_EQ(g.block_of(g.node_at(0, 2)), 1u);
  // Boundary horizontal edges weigh s; interior ones weigh 1.
  Weight cross = 0, inner = 0;
  for (const Arc& a : g.graph.neighbors(g.node_at(2, 1))) {
    if (a.to == g.node_at(2, 2)) cross = a.weight;
    if (a.to == g.node_at(2, 0)) inner = a.weight;
  }
  EXPECT_EQ(cross, 4);
  EXPECT_EQ(inner, 1);
}

TEST(BlockGridTopo, InterBlockDistanceAtLeastS) {
  const BlockGrid g(4);
  const DenseMetric m(g.graph);
  for (NodeId u : g.block_nodes(0)) {
    for (NodeId v : g.block_nodes(1)) {
      EXPECT_GE(m.distance(u, v), 4);
    }
  }
}

TEST(BlockGridTopo, RejectsNonSquareS) {
  EXPECT_THROW(BlockGrid(5), Error);
}

TEST(BlockGridTopo, BlockNodesPartitionGraph) {
  const BlockGrid g(9);
  std::vector<int> seen(g.num_nodes(), 0);
  for (std::size_t b = 0; b < g.s; ++b) {
    for (NodeId v : g.block_nodes(b)) {
      EXPECT_EQ(g.block_of(v), b);
      seen[v]++;
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

// ----------------------------------------------------------- block tree

TEST(BlockTreeTopo, IsATree) {
  const BlockTree t(9);
  EXPECT_TRUE(t.graph.connected());
  EXPECT_EQ(t.graph.num_edges(), t.num_nodes() - 1);
}

TEST(BlockTreeTopo, InterBlockEdgesWeighS) {
  const BlockTree t(4);
  // The single inter-block edge between blocks 0 and 1 joins the topmost
  // row and has weight s = 4.
  bool found = false;
  for (const Arc& a : t.graph.neighbors(t.node_at(0, 1))) {
    if (a.to == t.node_at(0, 2)) {
      EXPECT_EQ(a.weight, 4);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // No other row crosses the block boundary.
  for (std::size_t r = 1; r < t.rows; ++r) {
    for (const Arc& a : t.graph.neighbors(t.node_at(r, 1))) {
      EXPECT_NE(a.to, t.node_at(r, 2));
    }
  }
}

TEST(BlockTreeTopo, InterBlockDistanceAtLeastS) {
  const BlockTree t(4);
  const DenseMetric m(t.graph);
  for (NodeId u : t.block_nodes(0)) {
    for (NodeId v : t.block_nodes(1)) {
      EXPECT_GE(m.distance(u, v), 4);
    }
  }
}

// ------------------------------------------------- row-built vs edge list
//
// The families below build their CSR rows directly (Graph::from_rows). The
// edge loops they used to feed GraphBuilder are kept here as references:
// each row-built graph must equal (`==`) the edge-list graph, and its arcs
// must be symmetric, which the row path does not check at runtime.

Graph reference_clique(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v, 1);
  }
  return b.build();
}

Graph reference_line(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u + 1 < n; ++u) b.add_edge(u, u + 1, 1);
  return b.build();
}

Graph reference_grid(std::size_t rows, std::size_t cols) {
  GraphBuilder b(rows * cols);
  const auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(at(r, c), at(r, c + 1), 1);
      if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c), 1);
    }
  }
  return b.build();
}

Graph reference_cluster(std::size_t alpha, std::size_t beta, Weight gamma) {
  GraphBuilder b(alpha * beta);
  const auto at = [beta](std::size_t c, std::size_t i) {
    return static_cast<NodeId>(c * beta + i);
  };
  for (std::size_t c = 0; c < alpha; ++c) {
    for (std::size_t i = 0; i < beta; ++i) {
      for (std::size_t j = i + 1; j < beta; ++j) {
        b.add_edge(at(c, i), at(c, j), 1);
      }
    }
  }
  for (std::size_t c = 0; c < alpha; ++c) {
    for (std::size_t d = c + 1; d < alpha; ++d) {
      b.add_edge(at(c, 0), at(d, 0), gamma);
    }
  }
  return b.build();
}

Graph reference_hypercube(std::size_t dim) {
  const std::size_t n = std::size_t{1} << dim;
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t bit = 0; bit < dim; ++bit) {
      const NodeId v = u ^ (NodeId{1} << bit);
      if (u < v) b.add_edge(u, v, 1);
    }
  }
  return b.build();
}

Graph reference_star(std::size_t alpha, std::size_t beta) {
  GraphBuilder b(alpha * beta + 1);
  const auto at = [beta](std::size_t ray, std::size_t pos) {
    return static_cast<NodeId>(1 + ray * beta + (pos - 1));
  };
  for (std::size_t r = 0; r < alpha; ++r) {
    b.add_edge(0, at(r, 1), 1);
    for (std::size_t p = 1; p < beta; ++p) {
      b.add_edge(at(r, p), at(r, p + 1), 1);
    }
  }
  return b.build();
}

Graph reference_block_grid(std::size_t s, std::size_t sqrt_s) {
  const std::size_t rows = s, cols = s * sqrt_s;
  GraphBuilder b(rows * cols);
  const auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c), 1);
      if (c + 1 < cols) {
        const bool crosses_blocks = (c + 1) % sqrt_s == 0;
        b.add_edge(at(r, c), at(r, c + 1),
                   crosses_blocks ? static_cast<Weight>(s) : 1);
      }
    }
  }
  return b.build();
}

Graph reference_block_tree(std::size_t s, std::size_t sqrt_s) {
  const std::size_t rows = s, cols = s * sqrt_s;
  GraphBuilder b(rows * cols);
  const auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t block = 0; block < s; ++block) {
    const std::size_t c0 = block * sqrt_s;
    for (std::size_t r = 0; r + 1 < rows; ++r) {
      b.add_edge(at(r, c0), at(r + 1, c0), 1);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = c0; c + 1 < c0 + sqrt_s; ++c) {
        b.add_edge(at(r, c), at(r, c + 1), 1);
      }
    }
    if (block + 1 < s) {
      b.add_edge(at(0, c0 + sqrt_s - 1), at(0, c0 + sqrt_s),
                 static_cast<Weight>(s));
    }
  }
  return b.build();
}

Graph reference_butterfly(std::size_t dim) {
  const std::size_t rows = std::size_t{1} << dim;
  GraphBuilder b((dim + 1) * rows);
  const auto at = [rows](std::size_t l, std::size_t r) {
    return static_cast<NodeId>(l * rows + r);
  };
  for (std::size_t l = 0; l < dim; ++l) {
    for (std::size_t r = 0; r < rows; ++r) {
      b.add_edge(at(l, r), at(l + 1, r), 1);
      b.add_edge(at(l, r), at(l + 1, r ^ (std::size_t{1} << l)), 1);
    }
  }
  return b.build();
}

// A fresh row-built graph equals its edge-list reference, and the
// comparison writes its rows exactly once (the reference is already
// written, and keys cannot settle a comparison with it).
::testing::AssertionResult equals_reference(const Graph& lazy,
                                            const Graph& reference) {
  const auto before = materialized_count();
  if (!(lazy == reference)) {
    return ::testing::AssertionFailure() << "differs from the edge list";
  }
  const auto written = materialized_count() - before;
  if (written != 1) {
    return ::testing::AssertionFailure()
           << "comparison wrote " << written << " row arrays, expected 1";
  }
  return ::testing::AssertionSuccess();
}

// Every arc u→v of weight w is matched by an arc v→u of weight w, counted
// with multiplicity (rows are sorted, so equal_range finds the matches).
::testing::AssertionResult arcs_symmetric(const Graph& g) {
  const auto by_arc = [](const Arc& a, const Arc& b) {
    return a.to != b.to ? a.to < b.to : a.weight < b.weight;
  };
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto row = g.neighbors(u);
    for (const Arc& a : row) {
      const auto forward = std::equal_range(row.begin(), row.end(), a, by_arc);
      const auto back_row = g.neighbors(a.to);
      const auto back = std::equal_range(back_row.begin(), back_row.end(),
                                         Arc{u, a.weight}, by_arc);
      if (forward.second - forward.first != back.second - back.first) {
        return ::testing::AssertionFailure()
               << "arc " << u << "->" << a.to << " (w=" << a.weight
               << ") has no matching reverse arc";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RowBuiltTopologies, CliqueMatchesEdgeList) {
  for (std::size_t n : {1, 2, 3, 7, 16}) {
    const Clique c(n);
    EXPECT_TRUE(equals_reference(c.graph, reference_clique(n)))
        << "n=" << n;
    EXPECT_TRUE(arcs_symmetric(c.graph)) << "n=" << n;
  }
}

TEST(RowBuiltTopologies, LineMatchesEdgeList) {
  for (std::size_t n : {1, 2, 3, 10, 64}) {
    const Line l(n);
    EXPECT_TRUE(equals_reference(l.graph, reference_line(n)))
        << "n=" << n;
    EXPECT_TRUE(arcs_symmetric(l.graph)) << "n=" << n;
  }
}

TEST(RowBuiltTopologies, GridMatchesEdgeList) {
  for (std::size_t rows : {1, 2, 3, 7}) {
    for (std::size_t cols : {1, 2, 5, 9}) {
      const Grid g(rows, cols);
      EXPECT_TRUE(equals_reference(g.graph, reference_grid(rows, cols)))
          << rows << "x" << cols;
      EXPECT_TRUE(arcs_symmetric(g.graph)) << rows << "x" << cols;
    }
  }
}

TEST(RowBuiltTopologies, ClusterMatchesEdgeList) {
  for (std::size_t alpha : {1, 2, 3, 6}) {
    for (std::size_t beta : {1, 2, 5, 8}) {
      for (Weight gamma : {1, 3, 9}) {
        const ClusterGraph cg(alpha, beta, gamma);
        EXPECT_TRUE(equals_reference(cg.graph,
                                     reference_cluster(alpha, beta, gamma)))
            << alpha << "x" << beta << " gamma=" << gamma;
        EXPECT_TRUE(arcs_symmetric(cg.graph))
            << alpha << "x" << beta << " gamma=" << gamma;
      }
    }
  }
}

TEST(RowBuiltTopologies, HypercubeMatchesEdgeList) {
  for (std::size_t dim : {1, 2, 3, 6}) {
    const Hypercube h(dim);
    EXPECT_TRUE(equals_reference(h.graph, reference_hypercube(dim)))
        << "dim=" << dim;
    EXPECT_TRUE(arcs_symmetric(h.graph)) << "dim=" << dim;
  }
}

TEST(RowBuiltTopologies, StarMatchesEdgeList) {
  for (std::size_t alpha : {1, 2, 5}) {
    for (std::size_t beta : {1, 2, 3, 8}) {
      const Star st(alpha, beta);
      EXPECT_TRUE(equals_reference(st.graph, reference_star(alpha, beta)))
          << alpha << "x" << beta;
      EXPECT_TRUE(arcs_symmetric(st.graph)) << alpha << "x" << beta;
    }
  }
}

TEST(RowBuiltTopologies, BlockGridMatchesEdgeList) {
  for (std::size_t t : {1, 2, 3}) {
    const BlockGrid g(t * t);
    EXPECT_TRUE(equals_reference(g.graph, reference_block_grid(t * t, t)))
        << "s=" << t * t;
    EXPECT_TRUE(arcs_symmetric(g.graph)) << "s=" << t * t;
  }
}

TEST(RowBuiltTopologies, BlockTreeMatchesEdgeList) {
  for (std::size_t t : {1, 2, 3}) {
    const BlockTree bt(t * t);
    EXPECT_TRUE(equals_reference(bt.graph, reference_block_tree(t * t, t)))
        << "s=" << t * t;
    EXPECT_TRUE(arcs_symmetric(bt.graph)) << "s=" << t * t;
  }
}

TEST(RowBuiltTopologies, ButterflyMatchesEdgeList) {
  for (std::size_t dim = 1; dim <= 6; ++dim) {
    const Butterfly bf(dim);
    EXPECT_TRUE(equals_reference(bf.graph, reference_butterfly(dim)))
        << "dim=" << dim;
    EXPECT_TRUE(arcs_symmetric(bf.graph)) << "dim=" << dim;
  }
}

// Every family that has a one-node member declares it edgeless with
// weight 0, so it equals the one-node edge-list graph. Star, hypercube and
// butterfly have no one-node member.
TEST(RowBuiltTopologies, SingleNodeFamiliesAreEdgeless) {
  const Graph single = GraphBuilder(1).build();
  const std::vector<std::pair<const char*, Graph>> cases = {
      {"line", Line(1).graph},
      {"clique", Clique(1).graph},
      {"grid", Grid(1, 1).graph},
      {"cluster", ClusterGraph(1, 1, 7).graph},
      {"block_grid", BlockGrid(1).graph},
      {"block_tree", BlockTree(1).graph},
  };
  for (const auto& [name, g] : cases) {
    EXPECT_EQ(g.max_weight(), 0) << name;
    EXPECT_EQ(g.num_nodes(), 1u) << name;
    EXPECT_EQ(g.num_edges(), 0u) << name;
    EXPECT_EQ(g.degree(0), 0u) << name;
    EXPECT_TRUE(g.neighbors(0).empty()) << name;
    EXPECT_EQ(g, single) << name;
  }
  EXPECT_THROW(Star(0, 1), Error);
  EXPECT_THROW(Hypercube(0), Error);
  EXPECT_THROW(Butterfly(0), Error);
}

// ------------------------------------------------------------ lazy rows

TEST(LazyRows, SameParametersCompareEqualWithoutRows) {
  const auto before = materialized_count();
  EXPECT_EQ(ClusterGraph(3, 4, 5).graph, ClusterGraph(3, 4, 5).graph);
  EXPECT_EQ(Grid(4, 6).graph, Grid(4, 6).graph);
  EXPECT_EQ(Butterfly(3).graph, Butterfly(3).graph);
  EXPECT_EQ(BlockTree(4).graph, BlockTree(4).graph);
  // Mismatches that node counts, degrees or weights settle read no arcs.
  EXPECT_NE(ClusterGraph(3, 4, 5).graph, ClusterGraph(3, 4, 6).graph);
  EXPECT_NE(ClusterGraph(3, 4, 5).graph, ClusterGraph(4, 3, 5).graph);
  EXPECT_NE(Grid(4, 6).graph, Grid(6, 4).graph);
  EXPECT_EQ(materialized_count(), before);
}

TEST(LazyRows, DifferentFamiliesFallBackToArcs) {
  for (std::size_t n : {1, 2, 5}) {
    const auto before = materialized_count();
    EXPECT_EQ(Grid(1, n).graph, Line(n).graph) << "n=" << n;
    EXPECT_EQ(Grid(n, 1).graph, Line(n).graph) << "n=" << n;
    EXPECT_EQ(materialized_count(), before + 4) << "n=" << n;
  }
  EXPECT_EQ(Hypercube(2).graph, Grid(2, 2).graph);
  EXPECT_EQ(ClusterGraph(1, 4, 9).graph, Clique(4).graph);
  // Both 4-cycles, numbered differently.
  EXPECT_NE(Hypercube(2).graph, Butterfly(1).graph);
}

TEST(LazyRows, FamilyCopiesOutliveTheirTopology) {
  // Both row functions capture parameters by value: each graph below is
  // copied out of a temporary topology, which is gone before the first
  // read, and still writes the right offsets and rows when `==` compares
  // it with its edge list. A capture by reference reads freed memory here,
  // which the address sanitizer reports.
  const std::vector<std::pair<Graph, Graph>> copies = {
      {Line(7).graph, reference_line(7)},
      {Clique(5).graph, reference_clique(5)},
      {Grid(3, 5).graph, reference_grid(3, 5)},
      {ClusterGraph(3, 4, 5).graph, reference_cluster(3, 4, 5)},
      {Hypercube(4).graph, reference_hypercube(4)},
      {Star(3, 4).graph, reference_star(3, 4)},
      {BlockGrid(4).graph, reference_block_grid(4, 2)},
      {BlockTree(4).graph, reference_block_tree(4, 2)},
      {Butterfly(3).graph, reference_butterfly(3)},
  };
  for (std::size_t i = 0; i < copies.size(); ++i) {
    EXPECT_TRUE(equals_reference(copies[i].first, copies[i].second)) << i;
  }
  const auto make_grid = [] { return Grid(3, 5); };
  const Grid moved = make_grid();
  EXPECT_TRUE(equals_reference(moved.graph, reference_grid(3, 5)));
}

// Concurrent first readers of one block: every thread sees the same,
// complete arcs and the rows are written once. Run under ThreadSanitizer
// in CI.
TEST(LazyRows, ConcurrentFirstReadsWriteOnce) {
  const ClusterGraph cg(12, 10, 7);
  const Graph copy = cg.graph;
  const auto before = materialized_count();
  constexpr int kThreads = 8;
  std::vector<std::vector<Arc>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Graph& g = t % 2 ? copy : cg.graph;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const auto row = g.neighbors(u);
        seen[t].insert(seen[t].end(), row.begin(), row.end());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(materialized_count(), before + 1);
  const Graph reference = reference_cluster(12, 10, 7);
  std::vector<Arc> expected;
  for (NodeId u = 0; u < reference.num_nodes(); ++u) {
    const auto row = reference.neighbors(u);
    expected.insert(expected.end(), row.begin(), row.end());
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], expected) << t;
}

// An overflowing node-count product throws dtm::Error before anything is
// allocated, instead of wrapping around or running out of memory.
TEST(RowBuiltTopologies, OverflowingSizesThrow) {
  const std::size_t huge = (std::size_t{1} << 63) + 1;
  EXPECT_THROW(ClusterGraph(huge, 2, 1), Error);
  EXPECT_THROW(ClusterGraph(2, huge, 1), Error);
  EXPECT_THROW(ClusterGraph(std::size_t{1} << 32, std::size_t{1} << 32, 1),
               Error);
  EXPECT_THROW(ClusterGraph(70000, 70000, 1), Error);  // > 2^32 nodes
  EXPECT_THROW(Grid(huge, 2), Error);
  EXPECT_THROW(Grid(std::size_t{1} << 32, std::size_t{1} << 32), Error);
  EXPECT_THROW(Grid(70000, 70000), Error);
  EXPECT_THROW(Star(huge, 2), Error);
  EXPECT_THROW(Star(70000, 70000), Error);
  EXPECT_THROW(Line{kInvalidNode}, Error);
  // s = 2^62 is a perfect square whose s·√s already overflows.
  EXPECT_THROW(BlockGrid(std::size_t{1} << 62), Error);
  EXPECT_THROW(BlockTree(std::size_t{1} << 62), Error);
  // s = 10^4: s·√s fits, but s^{5/2} = 10^10 nodes does not.
  EXPECT_THROW(BlockGrid(10000), Error);
  EXPECT_THROW(BlockTree(10000), Error);
}

// Parameterized: every topology is connected, has the right node count and
// only positive weights.
struct TopoCase {
  const char* name;
  std::size_t expected_nodes;
  Graph graph;
};

class AllTopologies : public ::testing::TestWithParam<int> {
 protected:
  static TopoCase build(int which) {
    switch (which) {
      case 0: return {"clique", 8, Clique(8).graph};
      case 1: return {"line", 15, Line(15).graph};
      case 2: return {"grid", 30, Grid(5, 6).graph};
      case 3: return {"cluster", 12, ClusterGraph(3, 4, 5).graph};
      case 4: return {"hypercube", 32, Hypercube(5).graph};
      case 5: return {"butterfly", 12, Butterfly(2).graph};
      case 6: return {"star", 13, Star(4, 3).graph};
      case 7: return {"block_grid", 32, BlockGrid(4).graph};
      default: return {"block_tree", 32, BlockTree(4).graph};
    }
  }
};

TEST_P(AllTopologies, ConnectedWithExpectedSize) {
  const TopoCase c = build(GetParam());
  EXPECT_EQ(c.graph.num_nodes(), c.expected_nodes) << c.name;
  EXPECT_TRUE(c.graph.connected()) << c.name;
  for (NodeId v = 0; v < c.graph.num_nodes(); ++v) {
    for (const Arc& a : c.graph.neighbors(v)) {
      EXPECT_GT(a.weight, 0) << c.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllTopologies, ::testing::Range(0, 9));

}  // namespace
}  // namespace dtm
