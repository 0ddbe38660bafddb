// Weighted undirected graph in CSR (compressed sparse row) form.
//
// This is the communication network `G` of the paper's model (§2.1): nodes
// host transactions, edges are links, integer edge weights are link delays
// in synchronous time steps.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "graph/topologies/topology.hpp"
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

/// Names the graph a family's rows build: its kind plus the parameters
/// that determine it. Row sources with equal keys build equal graphs, so
/// `==` can answer for them without writing either one's rows.
struct FamilyKey {
  TopologyKind kind;
  std::array<std::uint64_t, 3> params{};

  friend bool operator==(const FamilyKey&, const FamilyKey&) = default;
};

/// Returns a * b, throwing dtm::Error instead of multiplying when the
/// product would not be a valid node count (below kInvalidNode).
std::size_t checked_node_count(std::size_t a, std::size_t b);

/// Immutable CSR graph. Construct via GraphBuilder or from_rows.
///
/// The arcs live in one shared, once-written block: copies share it, a
/// GraphBuilder graph hands it over filled, and a from_rows graph writes it
/// on the first adjacency read (`neighbors()`, `adjacency()`, or an `==`
/// that keys cannot settle). Node count, edge count, degrees and weights
/// never write it. The first read may come from several threads at once;
/// the rows are written exactly once.
class Graph {
 public:
  Graph() = default;

  /// Declares a graph by its rows, with no edge list and no sort:
  /// `degree(u)` gives node u's arc count (called here, once per node) and
  /// `fill(u, out)` writes its arcs through `out.add(to, weight)` in
  /// ascending (to, weight) order. `fill` runs on the first adjacency read,
  /// so it must own what it reads: capture family parameters by value.
  /// `max_weight` declares the heaviest arc weight (ignored when there are
  /// no arcs); `key`, when given, lets `==` match another graph with an
  /// equal key without writing rows.
  ///
  /// Checks: the total arc count is even and the node count valid, here;
  /// when the rows are written, every arc is in range, not a self-loop and
  /// of positive weight, every row is sorted and exactly `degree(u)` long,
  /// and `max_weight` is the rows' heaviest weight. Any violation throws
  /// dtm::Error. Symmetry (each arc u→v matched by v→u) is the caller's
  /// contract and is not checked. The result equals (`==`) what
  /// GraphBuilder builds from the same edges.
  template <class DegreeFn, class FillFn>
  static Graph from_rows(std::size_t num_nodes, Weight max_weight,
                         DegreeFn&& degree, FillFn fill,
                         std::optional<FamilyKey> key = std::nullopt);

  std::size_t num_nodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t num_edges() const { return offsets_.empty() ? 0 : offsets_.back() / 2; }

  /// Read view of the whole adjacency for loops that visit many rows:
  /// Graph::adjacency() writes any unwritten rows once, so the view's
  /// neighbors() is two loads and no check of the block. Valid while the
  /// graph, or a copy of it, lives.
  class Adjacency {
   public:
    std::span<const Arc> neighbors(NodeId u) const {
      return {arcs_ + offsets_[u], arcs_ + offsets_[u + 1]};
    }

   private:
    friend class Graph;
    Adjacency(const std::size_t* offsets, const Arc* arcs)
        : offsets_(offsets), arcs_(arcs) {}
    const std::size_t* offsets_;
    const Arc* arcs_;
  };
  Adjacency adjacency() const {
    return {offsets_.data(), block_ ? arc_data() : nullptr};
  }

  /// Arcs leaving `u`, sorted by target id.
  std::span<const Arc> neighbors(NodeId u) const {
    DTM_ASSERT(u < num_nodes());
    return Adjacency(offsets_.data(), arc_data()).neighbors(u);
  }

  std::size_t degree(NodeId u) const {
    DTM_ASSERT(u < num_nodes());
    return offsets_[u + 1] - offsets_[u];
  }

  /// True when every edge has weight exactly 1 (lets callers pick BFS over
  /// Dijkstra). Weights are positive integers, so this is max_weight() <= 1.
  bool unit_weights() const { return max_weight_ <= 1; }

  /// Largest edge weight (0 for an edgeless graph).
  Weight max_weight() const { return max_weight_; }

  /// True if there is a path between every pair of nodes.
  bool connected() const;

  /// Structural equality: same CSR layout (node count, adjacency, weights).
  /// Topology recovery (topologies/detect.hpp) uses this to certify that a
  /// rebuilt parameterized topology matches an instance's graph exactly.
  /// Graphs sharing a block, or built from rows with equal family keys,
  /// are equal without reading arcs; otherwise the arcs are compared, which
  /// writes any unwritten rows (different families can build the same
  /// graph: Grid(1, n) == Line(n)).
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  friend class GraphBuilder;

  // The arc array every copy of a Graph shares (a mutex can be neither
  // copied nor moved). `ready` is set (release) once `arcs` is complete;
  // `mu` serializes the write. `fill` and `key` describe the row source of
  // a from_rows graph, and `fill` is dropped after it has run.
  struct ArcBlock {
    std::mutex mu;
    std::atomic<bool> ready{false};
    std::vector<Arc> arcs;
    std::function<void(NodeId, RowWriter&)> fill;
    std::optional<FamilyKey> key;
  };

  static Graph with_node_count(std::size_t num_nodes);
  void set_rows(Weight max_weight,
                std::function<void(NodeId, RowWriter&)> fill,
                std::optional<FamilyKey> key);

  const Arc* arc_data() const {
    if (!block_->ready.load(std::memory_order_acquire)) materialize();
    return block_->arcs.data();
  }
  // Writes the rows of a from_rows graph, once per block. Not
  // std::call_once: libstdc++ builds it on pthread_once, which does not
  // reset when the callable throws under every runtime (ThreadSanitizer's
  // interceptor leaves it held), and a bad row source must throw on every
  // read.
  void materialize() const;
  // Checks the row just appended for node u; returns its heaviest weight.
  Weight check_row(NodeId u, const std::vector<Arc>& arcs) const;

  std::vector<std::size_t> offsets_;  // size num_nodes+1
  std::shared_ptr<ArcBlock> block_;
  Weight max_weight_ = 0;
};

template <class DegreeFn, class FillFn>
Graph Graph::from_rows(std::size_t num_nodes, Weight max_weight,
                       DegreeFn&& degree, FillFn fill,
                       std::optional<FamilyKey> key) {
  Graph g = with_node_count(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    g.offsets_[u + 1] = g.offsets_[u] + degree(u);
  }
  g.set_rows(max_weight, std::move(fill), key);
  return g;
}

}  // namespace dtm
