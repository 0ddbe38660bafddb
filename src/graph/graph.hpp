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
/// The offsets and arcs live in one shared block: copies share it, and a
/// GraphBuilder graph hands it over written. A from_rows graph writes each
/// array once, when first needed: the offsets on the first count read
/// (`num_edges()`, `degree()`, or an `==` that keys, node counts and
/// weights cannot settle) and the arcs on the first adjacency read
/// (`neighbors()`, `adjacency()`, or such an `==`). The node count and
/// weights are held by value and write neither. The first read may come
/// from several threads at once; each array is written exactly once.
class Graph {
 public:
  Graph() = default;

  /// Declares a graph by its rows, with no edge list and no sort:
  /// `degree(u)` gives node u's arc count and `fill(u, out)` writes its
  /// arcs through `out.add(to, weight)` in ascending (to, weight) order.
  /// `degree` runs on the first count read and `fill` on the first
  /// adjacency read, so both must own what they read: capture family
  /// parameters by value. `max_weight` declares the heaviest arc weight (0
  /// when there are no arcs); `key`, when given, lets `==` match another
  /// graph with an equal key without writing either array.
  ///
  /// Checks: the node count is valid and `max_weight` is not negative,
  /// here; when the offsets are written, the total arc count is even and
  /// `max_weight` is positive exactly when there are arcs; when the rows
  /// are written, every arc is in range, not a self-loop and of positive
  /// weight, every row is sorted and exactly `degree(u)` long, and
  /// `max_weight` is the rows' heaviest weight. Any violation throws
  /// dtm::Error, and a later read runs the check again. Symmetry (each arc
  /// u→v matched by v→u) is the caller's contract and is not checked. The
  /// result equals (`==`) what GraphBuilder builds from the same edges.
  static Graph from_rows(std::size_t num_nodes, Weight max_weight,
                         std::function<std::size_t(NodeId)> degree,
                         std::function<void(NodeId, RowWriter&)> fill,
                         std::optional<FamilyKey> key = std::nullopt);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const {
    return block_ ? offset_data()[num_nodes_] / 2 : 0;
  }

  /// Read view of the whole adjacency for loops that visit many rows:
  /// Graph::adjacency() writes any unwritten arrays once, so the view's
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
    if (!block_) return {nullptr, nullptr};
    return {offset_data(), arc_data()};
  }

  /// Arcs leaving `u`, sorted by target id.
  std::span<const Arc> neighbors(NodeId u) const {
    DTM_ASSERT(u < num_nodes());
    return Adjacency(offset_data(), arc_data()).neighbors(u);
  }

  std::size_t degree(NodeId u) const {
    DTM_ASSERT(u < num_nodes());
    const std::size_t* off = offset_data();
    return off[u + 1] - off[u];
  }

  /// True when every edge has weight exactly 1 (lets callers pick BFS over
  /// Dijkstra). Weights are positive integers, so this is max_weight() <= 1.
  bool unit_weights() const { return max_weight_ <= 1; }

  /// Largest edge weight (0 for an edgeless graph).
  Weight max_weight() const { return max_weight_; }

  /// The family key a from_rows graph was declared with, if any (copies
  /// share it). Reads neither array.
  std::optional<FamilyKey> family_key() const {
    return block_ ? block_->key : std::nullopt;
  }

  /// True if there is a path between every pair of nodes.
  bool connected() const;

  /// Structural equality: same CSR layout (node count, adjacency, weights).
  /// Topology recovery (topologies/detect.hpp) uses this to certify that a
  /// rebuilt parameterized topology matches an instance's graph exactly.
  /// Graphs sharing a block, or built from rows with equal family keys,
  /// are equal, and graphs whose node counts or weights differ unequal,
  /// without reading either array. Otherwise the offsets, then the arcs,
  /// are compared, which writes any unwritten ones (different families can
  /// build the same graph: Grid(1, n) == Line(n)).
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  friend class GraphBuilder;

  // The arrays every copy of a Graph shares (a mutex can be neither copied
  // nor moved). `offsets_ready` is set (release) once `offsets` (size
  // num_nodes+1) is complete, `arcs_ready` once `arcs` is; `mu` serializes
  // both writes. `degree`, `fill` and `key` describe the row source of a
  // from_rows graph; `degree` and `fill` are dropped after they have run.
  struct ArcBlock {
    std::mutex mu;
    std::atomic<bool> offsets_ready{false};
    std::atomic<bool> arcs_ready{false};
    std::vector<std::size_t> offsets;
    std::vector<Arc> arcs;
    std::function<std::size_t(NodeId)> degree;
    std::function<void(NodeId, RowWriter&)> fill;
    std::optional<FamilyKey> key;
  };

  static Graph with_node_count(std::size_t num_nodes);

  const std::size_t* offset_data() const {
    if (!block_->offsets_ready.load(std::memory_order_acquire)) {
      write_offsets();
    }
    return block_->offsets.data();
  }
  const Arc* arc_data() const {
    if (!block_->arcs_ready.load(std::memory_order_acquire)) materialize();
    return block_->arcs.data();
  }
  // Write a from_rows graph's offsets, and its rows, once per block. Not
  // std::call_once: libstdc++ builds it on pthread_once, which does not
  // reset when the callable throws under every runtime (ThreadSanitizer's
  // interceptor leaves it held), and a bad row source must throw on every
  // read.
  void write_offsets() const;
  void materialize() const;
  // Checks the row just appended for node u; returns its heaviest weight.
  Weight check_row(NodeId u, const std::size_t* offsets,
                   const std::vector<Arc>& arcs) const;

  std::size_t num_nodes_ = 0;
  Weight max_weight_ = 0;
  std::shared_ptr<ArcBlock> block_;
};

}  // namespace dtm
