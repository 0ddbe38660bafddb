#include "graph/topologies/detect.hpp"

#include <bit>
#include <cmath>

namespace dtm {

GraphShape graph_shape(const Graph& g) {
  if (const std::optional<FamilyKey> key = g.family_key()) {
    const auto& p = key->params;
    switch (key->kind) {
      case TopologyKind::kLine:
        return {p[0] - 1, std::size_t{p[0] > 1}};
      case TopologyKind::kGrid:
        return {p[0] * (p[1] - 1) + p[1] * (p[0] - 1),
                std::size_t{p[0] > 1} + (p[1] > 1)};
      case TopologyKind::kCluster:  // node 0 is cluster 0's bridge
        return {p[0] * (p[1] * (p[1] - 1) / 2) + p[0] * (p[0] - 1) / 2,
                (p[1] - 1) + (p[0] - 1)};
      case TopologyKind::kClique:
        return {p[0] * (p[0] - 1) / 2, p[0] - 1};
      case TopologyKind::kHypercube:
        return {p[0] * (std::size_t{1} << p[0]) / 2, p[0]};
      case TopologyKind::kButterfly:  // node 0 is on level 0
        return {2 * p[0] * (std::size_t{1} << p[0]), 2};
      case TopologyKind::kStar:  // node 0 is the center
        return {p[0] * p[1], p[0]};
      case TopologyKind::kBlockGrid:
      case TopologyKind::kBlockTree: {
        // s rows of s·√s columns; the tree is spanning, and its node 0
        // sits on the spine with a right neighbor when s > 1.
        const std::size_t s = p[0];
        const auto t = static_cast<std::size_t>(std::llround(std::sqrt(s)));
        const std::size_t rows = s, cols = s * t;
        if (key->kind == TopologyKind::kBlockTree) {
          return {rows * cols - 1, s > 1 ? std::size_t{2} : 0};
        }
        return {rows * (cols - 1) + cols * (rows - 1),
                std::size_t{rows > 1} + (cols > 1)};
      }
    }
  }
  return {g.num_edges(), g.num_nodes() == 0 ? 0 : g.degree(0)};
}

namespace {

// Cheap structural pre-checks let us skip rebuilding candidates that cannot
// possibly match; the authoritative test is always `candidate.graph == g`.
// A graph that carries a family key is first compared by key, over every
// candidate; a family's own graph is then recovered without reading
// either array. Otherwise the candidate's shape (edge count and node 0's
// degree) must equal the graph's, which graph_shape() takes from a key's
// closed form: a keyed graph of another family is ruled out without
// writing its offsets, and only a graph whose shape matches (Grid(1, n) is
// a Line) reaches the full comparison.

bool plausible_unit_graph(const Graph& g, std::size_t min_nodes) {
  return g.num_nodes() >= min_nodes && g.unit_weights();
}

/// True when g carries a family key and `candidate` was built with it.
/// Reads neither graph's arrays.
bool same_key(const Graph& candidate, const Graph& g) {
  const std::optional<FamilyKey> key = g.family_key();
  return key && candidate.family_key() == key;
}

/// The shape pre-check and the full comparison; `shape` is g's.
bool same_graph(const Graph& candidate, const Graph& g,
                const GraphShape& shape) {
  return graph_shape(candidate) == shape && candidate == g;
}

/// The one-candidate test: by key, else by shape and full comparison.
bool matches(const Graph& candidate, const Graph& g) {
  return same_key(candidate, g) || same_graph(candidate, g, graph_shape(g));
}

}  // namespace

std::unique_ptr<Line> recover_line(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (!plausible_unit_graph(g, 2)) return nullptr;
  auto candidate = std::make_unique<Line>(n);
  if (matches(candidate->graph, g)) return candidate;
  return nullptr;
}

std::unique_ptr<Grid> recover_grid(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (!plausible_unit_graph(g, 4)) return nullptr;
  // rows, cols >= 2 (a 1×n mesh is a Line). Row-major numbering makes an
  // r×c grid and its c×r transpose distinct CSR layouts unless r == c, so
  // at most one divisor pair matches. Keys first, then shapes.
  const GraphShape shape = graph_shape(g);
  for (const bool by_key : {true, false}) {
    if (by_key && !g.family_key()) continue;
    for (std::size_t rows = 2; rows * 2 <= n; ++rows) {
      if (n % rows != 0) continue;
      const std::size_t cols = n / rows;
      if (cols < 2) continue;
      auto candidate = std::make_unique<Grid>(rows, cols);
      if (by_key ? same_key(candidate->graph, g)
                 : same_graph(candidate->graph, g, shape)) {
        return candidate;
      }
    }
  }
  return nullptr;
}

std::unique_ptr<ClusterGraph> recover_cluster(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n < 4) return nullptr;
  // Bridges are the only candidate non-unit edges, so γ is the heaviest
  // weight in the graph (γ = 1 degenerates to unit weights and still
  // round-trips through the exact comparison).
  const Weight gamma = g.max_weight();
  if (gamma < 1) return nullptr;
  // Keys first, then shapes.
  const GraphShape shape = graph_shape(g);
  for (const bool by_key : {true, false}) {
    if (by_key && !g.family_key()) continue;
    for (std::size_t alpha = 2; alpha * 2 <= n; ++alpha) {
      if (n % alpha != 0) continue;
      const std::size_t beta = n / alpha;
      if (beta < 2) continue;
      auto candidate = std::make_unique<ClusterGraph>(alpha, beta, gamma);
      if (by_key ? same_key(candidate->graph, g)
                 : same_graph(candidate->graph, g, shape)) {
        return candidate;
      }
    }
  }
  return nullptr;
}

std::unique_ptr<Star> recover_star(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (!plausible_unit_graph(g, 3)) return nullptr;
  const GraphShape shape = graph_shape(g);
  if (shape.edges != n - 1) return nullptr;
  // The center is node 0 and touches exactly one node per ray.
  const std::size_t alpha = shape.degree0;
  if (alpha < 2 || (n - 1) % alpha != 0) return nullptr;
  const std::size_t beta = (n - 1) / alpha;
  if (beta < 1) return nullptr;
  auto candidate = std::make_unique<Star>(alpha, beta);
  if (matches(candidate->graph, g)) return candidate;
  return nullptr;
}

std::unique_ptr<Clique> recover_clique(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (!plausible_unit_graph(g, 3)) return nullptr;
  auto candidate = std::make_unique<Clique>(n);
  if (matches(candidate->graph, g)) return candidate;
  return nullptr;
}

std::unique_ptr<Hypercube> recover_hypercube(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (!plausible_unit_graph(g, 8) || !std::has_single_bit(n)) return nullptr;
  const auto dim = static_cast<std::size_t>(std::countr_zero(n));
  if (dim < 3 || dim > 24) return nullptr;
  auto candidate = std::make_unique<Hypercube>(dim);
  if (matches(candidate->graph, g)) return candidate;
  return nullptr;
}

namespace {

// n = t⁵ for the block constructions (s = t² blocks of s rows × √s = t
// columns); 0 when no integer fifth root t ≥ 2 exists.
std::size_t fifth_root_of(std::size_t n) {
  for (std::size_t t = 2; t * t * t * t * t <= n; ++t) {
    if (t * t * t * t * t == n) return t;
  }
  return 0;
}

}  // namespace

std::unique_ptr<BlockGrid> recover_block_grid(const Graph& g) {
  const std::size_t t = fifth_root_of(g.num_nodes());
  if (t == 0) return nullptr;
  const std::size_t s = t * t;
  if (g.max_weight() != static_cast<Weight>(s)) return nullptr;
  auto candidate = std::make_unique<BlockGrid>(s);
  if (matches(candidate->graph, g)) return candidate;
  return nullptr;
}

std::unique_ptr<BlockTree> recover_block_tree(const Graph& g) {
  const std::size_t n = g.num_nodes();
  const std::size_t t = fifth_root_of(n);
  if (t == 0) return nullptr;
  const std::size_t s = t * t;
  if (g.max_weight() != static_cast<Weight>(s)) return nullptr;
  auto candidate = std::make_unique<BlockTree>(s);
  if (matches(candidate->graph, g)) return candidate;
  return nullptr;
}

std::optional<TopologyKind> detect_topology(const Graph& g) {
  if (recover_line(g)) return TopologyKind::kLine;
  if (recover_grid(g)) return TopologyKind::kGrid;
  if (recover_cluster(g)) return TopologyKind::kCluster;
  if (recover_star(g)) return TopologyKind::kStar;
  if (recover_clique(g)) return TopologyKind::kClique;
  if (recover_hypercube(g)) return TopologyKind::kHypercube;
  if (recover_block_grid(g)) return TopologyKind::kBlockGrid;
  if (recover_block_tree(g)) return TopologyKind::kBlockTree;
  return std::nullopt;
}

}  // namespace dtm
