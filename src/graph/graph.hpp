// Weighted undirected graph in CSR (compressed sparse row) form.
//
// This is the communication network `G` of the paper's model (§2.1): nodes
// host transactions, edges are links, integer edge weights are link delays
// in synchronous time steps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace dtm {

using NodeId = std::uint32_t;
/// Edge weights and distances are integer time steps (the model is fully
/// discrete); 64-bit so that makespans/communication costs never overflow.
using Weight = std::int64_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
constexpr Weight kInfiniteWeight = static_cast<Weight>(1) << 62;

/// One directed arc in the CSR adjacency (each undirected edge is stored
/// twice).
struct Arc {
  NodeId to;
  Weight weight;

  friend bool operator==(const Arc&, const Arc&) = default;
};

class Graph;

/// Incremental edge-list builder; finalize with build(). For edge-list
/// input (files, graph transforms); families whose adjacency is a closed
/// form build their rows directly with Graph::from_rows.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes);

  /// Adds an undirected edge {u, v} with positive integer weight.
  /// Parallel edges are allowed at build time; shortest-path code simply
  /// uses the lighter one.
  void add_edge(NodeId u, NodeId v, Weight weight = 1);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return edges_.size(); }

  Graph build() const;

 private:
  struct Edge {
    NodeId u, v;
    Weight weight;
  };
  std::size_t num_nodes_;
  std::vector<Edge> edges_;
};

/// Receives one node's arcs inside Graph::from_rows. Writing more arcs
/// than the row's declared degree throws dtm::Error.
class RowWriter {
 public:
  void add(NodeId to, Weight weight = 1) {
    DTM_REQUIRE(arcs_->size() < row_end_,
                "node " << node_ << " wrote more arcs than its degree");
    arcs_->push_back({to, weight});
  }

 private:
  friend class Graph;
  RowWriter(NodeId node, std::vector<Arc>* arcs, std::size_t row_end)
      : node_(node), arcs_(arcs), row_end_(row_end) {}
  NodeId node_;
  std::vector<Arc>* arcs_;
  std::size_t row_end_;
};

/// Returns a * b, throwing dtm::Error instead of multiplying when the
/// product would not be a valid node count (below kInvalidNode).
std::size_t checked_node_count(std::size_t a, std::size_t b);

/// Immutable CSR graph. Construct via GraphBuilder or from_rows.
class Graph {
 public:
  Graph() = default;

  /// Builds the CSR straight from rows, with no edge list and no sort:
  /// `degree(u)` gives node u's arc count and `fill(u, out)` writes its
  /// arcs through `out.add(to, weight)` in ascending (to, weight) order.
  /// Every arc must be in range, not a self-loop and of positive weight,
  /// and every row must be sorted and exactly `degree(u)` long; any
  /// violation throws dtm::Error. Symmetry (each arc u→v matched by v→u)
  /// is the caller's contract and is not checked. The result equals
  /// (`==`) what GraphBuilder builds from the same edges.
  template <class DegreeFn, class FillFn>
  static Graph from_rows(std::size_t num_nodes, DegreeFn&& degree,
                         FillFn&& fill);

  std::size_t num_nodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_edges() const { return arcs_.size() / 2; }

  /// Arcs leaving `u`, sorted by target id.
  std::span<const Arc> neighbors(NodeId u) const {
    DTM_ASSERT(u < num_nodes());
    return {arcs_.data() + offsets_[u], arcs_.data() + offsets_[u + 1]};
  }

  std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  /// True when every edge has weight exactly 1 (lets callers pick BFS over
  /// Dijkstra).
  bool unit_weights() const { return unit_weights_; }

  /// Largest edge weight (0 for an edgeless graph).
  Weight max_weight() const { return max_weight_; }

  /// True if there is a path between every pair of nodes.
  bool connected() const;

  /// Structural equality: same CSR layout (node count, adjacency, weights).
  /// Topology recovery (topologies/detect.hpp) uses this to certify that a
  /// rebuilt parameterized topology matches an instance's graph exactly.
  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  friend class GraphBuilder;

  // Construction steps shared by GraphBuilder and from_rows; check_row
  // validates the row from_rows just appended for node u.
  static Graph with_node_count(std::size_t num_nodes);
  void check_row(NodeId u);

  std::vector<std::size_t> offsets_;  // size num_nodes+1
  std::vector<Arc> arcs_;
  bool unit_weights_ = true;
  Weight max_weight_ = 0;
};

template <class DegreeFn, class FillFn>
Graph Graph::from_rows(std::size_t num_nodes, DegreeFn&& degree,
                       FillFn&& fill) {
  Graph g = with_node_count(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    g.offsets_[u + 1] = g.offsets_[u] + degree(u);
  }
  DTM_REQUIRE(g.offsets_.back() % 2 == 0,
              "rows hold an odd number of arcs: " << g.offsets_.back());
  g.arcs_.reserve(g.offsets_.back());
  for (NodeId u = 0; u < num_nodes; ++u) {
    RowWriter out(u, &g.arcs_, g.offsets_[u + 1]);
    fill(u, out);
    g.check_row(u);
  }
  return g;
}

}  // namespace dtm
