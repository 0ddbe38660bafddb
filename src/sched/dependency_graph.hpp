// Transaction dependency (conflict) graph H (§2.3): one node per
// transaction, an edge between transactions sharing at least one object,
// edge weight = distance in G between their home nodes.
//
// H is stored in CSR form (offsets + flat edge array), built by a two-pass
// count-then-fill assembler shared with the read/write-conflict variant
// (sched/rw_greedy.cpp): pass one counts arcs per node, pass two scatters
// targets into the flat array, then each node's range is deduplicated in
// place and the distance weights are filled in one batched metric query
// per node (so DenseMetric streams whole matrix rows).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "graph/metric.hpp"
#include "util/metrics.hpp"

namespace dtm {

struct DependencyEdge {
  /// LOCAL index of the conflicting transaction (position in
  /// DependencyGraph::txns, not a global TxnId).
  TxnId neighbor;
  Weight weight;
};

/// H restricted to a transaction subset (the Grid/Cluster/Star schedulers
/// build H per subgrid / per cluster / per segment).
struct DependencyGraph {
  /// The transactions covered, ascending. neighbors(i) belongs to txns[i].
  std::vector<TxnId> txns;
  /// CSR: edges of local node i live at [offsets[i], offsets[i+1]).
  std::vector<std::uint32_t> offsets;
  std::vector<DependencyEdge> edges;
  /// h_max: heaviest edge (0 when conflict-free).
  Weight max_edge_weight = 0;
  /// Δ: max neighbor count.
  std::size_t max_degree = 0;

  std::span<const DependencyEdge> neighbors(std::size_t i) const {
    DTM_ASSERT(i + 1 < offsets.size());
    return {edges.data() + offsets[i], edges.data() + offsets[i + 1]};
  }

  std::size_t degree(std::size_t i) const {
    DTM_ASSERT(i + 1 < offsets.size());
    return offsets[i + 1] - offsets[i];
  }

  /// Γ = h_max · Δ (the paper's weighted degree; greedy uses Γ+1 colors).
  Weight weighted_degree() const {
    return max_edge_weight * static_cast<Weight>(max_degree);
  }

  std::size_t size() const { return txns.size(); }
};

/// Builds H over `txns` (pass all transactions for the global graph).
/// Distances come from `metric`. Runs in O(sum over objects of the squared
/// requester count within the subset), the natural conflict-graph size.
DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric,
                                       std::span<const TxnId> txns);

/// Convenience overload over all transactions.
DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric);

/// H maintained under transaction *arrival* (sim/runtime.hpp's streaming
/// ingest). Each add_txn() inserts only the delta — edges from the new
/// transaction to the still-live (uncommitted) requesters of its objects —
/// into one arc pool; nothing is ever rebuilt. Arcs are appended at the
/// chain *tail*: partners are inserted in ascending id order and later
/// arrivals always carry larger ids, so every chain stays ascending by
/// neighbor id and window extraction needs no sort (and no allocation
/// beyond the exact-sized output). retire() removes a committed
/// transaction from the live requester sets so future arrivals stop
/// conflicting with it. subgraph() exports any subset of the unplaced
/// transactions — in practice a scheduling window's batch — as the
/// standard CSR DependencyGraph that greedy_color() consumes, filtering
/// pool arcs to subset members.
///
/// Placed transactions form an id prefix [0, frontier): the runtime admits
/// FIFO, so no later window can contain them. release_through() advances
/// the frontier and recycles the released chains through a free list that
/// push_arc() reuses, and add_txn() stores an arc only when both ends are
/// at or above the frontier (edges to placed partners are still counted
/// and weighed). So the pool, the per-transaction chain slots (a ring over
/// [frontier, num_txns)) and the live requester lists are all sized by the
/// unplaced, uncommitted work, not by the stream length. With a
/// `max_window` bound (a fixed admission quota: no window holds two ids
/// that far apart) arcs between ids at least that far apart are counted
/// but not stored either, so an overloaded backlog holds O(backlog ·
/// max_window) arcs instead of O(backlog²).
class IncrementalConflictGraph {
 public:
  /// `max_window` = 0: windows may span any number of ids.
  IncrementalConflictGraph(const Metric& metric, std::size_t num_objects,
                           std::size_t max_window = 0);

  /// Registers transaction `t` (ids must arrive dense, in order: the next
  /// expected id is num_txns()) homed at `home` touching `objects`
  /// (strictly ascending, in range). Inserts the delta edges. Every
  /// argument is checked before any state changes, so a rejected call
  /// throws dtm::Error and leaves the graph as it was.
  void add_txn(TxnId t, NodeId home, std::span<const ObjectId> objects);

  /// Marks `t` committed: it leaves the live requester sets of its
  /// `objects` (which must be the set it was added with).
  void retire(TxnId t, std::span<const ObjectId> objects);

  /// Declares every id below `frontier` placed: their chains return to the
  /// free list and later subgraph() calls may no longer name them.
  /// Monotone; `frontier` may not pass num_txns().
  void release_through(TxnId frontier);

  /// CSR view over `txns` (ascending ids already added and not released);
  /// only edges with both endpoints in the subset are included. Local
  /// indices follow the subset's order, matching build_dependency_graph's
  /// convention.
  DependencyGraph subgraph(std::span<const TxnId> txns) const;

  std::size_t num_txns() const { return num_txns_; }
  /// Undirected edges counted so far: retired ones, and those to placed
  /// partners that were never stored, included.
  std::size_t num_edges() const { return num_edges_; }
  /// Heaviest edge ever counted.
  Weight max_edge_weight() const { return max_w_; }
  /// Live (added, not retired) transactions.
  std::size_t live() const { return live_; }
  /// First id not yet released.
  TxnId frontier() const { return frontier_; }
  /// Arc slots the pool ever held at once (its high-water mark: released
  /// slots are reused before the pool grows).
  std::size_t arc_slots() const { return arcs_.size(); }
  /// Chain slots in the ring (its high-water size; it never shrinks).
  std::size_t ring_slots() const { return chains_.size(); }
  /// Bytes held by the arc pool and the chain ring, at their high-water
  /// marks (telemetry: stream.arc_pool_bytes).
  std::size_t arc_pool_bytes() const;

 private:
  struct Arc {
    TxnId to;
    Weight weight;
    // The owner's next (larger-id) arc, or the next free slot while on the
    // free list; -1 at the end.
    std::int32_t next;
  };
  /// One transaction's arc chain, -1/-1 while it has no stored arcs.
  struct Chain {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };
  /// A live requester of an object, with its home so add_txn can weigh the
  /// new edges without a per-transaction home table.
  struct Requester {
    TxnId txn;
    NodeId home;
  };

  void push_arc(TxnId owner, TxnId to, Weight w);
  /// Ring slot of an unreleased id; the ring size is a power of two no
  /// smaller than num_txns - frontier, so live ids never collide.
  Chain& chain(TxnId t) { return chains_[t & (chains_.size() - 1)]; }
  const Chain& chain(TxnId t) const {
    return chains_[t & (chains_.size() - 1)];
  }

  const Metric* metric_;
  /// The arc pool; freed chains are threaded through Arc::next from free_.
  std::vector<Arc> arcs_;
  std::int32_t free_ = -1;
  /// Chain ring over [frontier_, num_txns_); grows on first use.
  std::vector<Chain> chains_;
  /// Per object: live requesters, ascending (insertion is in id order and
  /// retire preserves order).
  std::vector<std::vector<Requester>> live_req_;
  std::size_t max_window_;
  std::size_t num_txns_ = 0;
  TxnId frontier_ = 0;
  std::size_t num_edges_ = 0;
  Weight max_w_ = 0;
  std::size_t live_ = 0;
  /// Reused add_txn scratch: partners, their homes and distances.
  std::vector<Requester> partner_scratch_;
  std::vector<NodeId> target_scratch_;
  std::vector<Weight> dist_scratch_;
};

namespace detail {

/// Two-pass CSR assembly shared by the object-conflict and read/write-
/// conflict builders. `emit_pairs(emit)` must call emit(a, b) with local
/// indices a != b once per conflicting pair occurrence; parallel pairs
/// from multiple shared objects are deduplicated here. It runs twice —
/// once to count, once to fill — so it must be deterministic.
template <typename EmitPairs>
DependencyGraph assemble_dependency_csr(const Instance& inst,
                                        const Metric& metric,
                                        std::vector<TxnId> txns,
                                        const EmitPairs& emit_pairs) {
  DependencyGraph h;
  h.txns = std::move(txns);
  const std::size_t n = h.txns.size();

  // Pass 1: arc counts (parallel pairs still included), prefix-summed into
  // provisional offsets.
  std::vector<std::uint32_t> raw_offsets(n + 1, 0);
  emit_pairs([&](TxnId a, TxnId b) {
    ++raw_offsets[a + 1];
    ++raw_offsets[b + 1];
  });
  for (std::size_t i = 0; i < n; ++i) raw_offsets[i + 1] += raw_offsets[i];

  // Pass 2: scatter raw targets.
  std::vector<TxnId> raw(raw_offsets[n]);
  std::vector<std::uint32_t> cursor(raw_offsets.begin(), raw_offsets.end() - 1);
  emit_pairs([&](TxnId a, TxnId b) {
    raw[cursor[a]++] = b;
    raw[cursor[b]++] = a;
  });

  // Dedup each node's range in place; the compaction cursor never
  // overtakes the range it reads from.
  h.offsets.assign(n + 1, 0);
  std::size_t write = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = raw_offsets[i], hi = raw_offsets[i + 1];
    std::sort(raw.begin() + lo, raw.begin() + hi);
    const std::size_t deg =
        static_cast<std::size_t>(std::unique(raw.begin() + lo,
                                             raw.begin() + hi) -
                                 (raw.begin() + lo));
    for (std::size_t k = 0; k < deg; ++k) raw[write + k] = raw[lo + k];
    write += deg;
    h.offsets[i + 1] = static_cast<std::uint32_t>(write);
    h.max_degree = std::max(h.max_degree, deg);
  }

  // Distance fill, one batched query per node: targets are the neighbors'
  // home nodes, so a DenseMetric walks its matrix row sequentially and a
  // LazyMetric resolves the source tree once.
  std::vector<NodeId> homes(n);
  for (std::size_t i = 0; i < n; ++i) homes[i] = inst.txn(h.txns[i]).home;
  h.edges.resize(write);
  std::vector<NodeId> targets;
  std::vector<Weight> dist;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = h.offsets[i];
    const std::size_t deg = h.offsets[i + 1] - lo;
    if (deg == 0) continue;
    targets.resize(deg);
    dist.resize(deg);
    for (std::size_t k = 0; k < deg; ++k) targets[k] = homes[raw[lo + k]];
    metric.distances(homes[i], targets, dist.data());
    for (std::size_t k = 0; k < deg; ++k) {
      h.edges[lo + k] = {raw[lo + k], dist[k]};
      h.max_edge_weight = std::max(h.max_edge_weight, dist[k]);
    }
  }
  static MetricCounter& csr_edges = metrics::counter("dep.csr_edges");
  csr_edges.add(h.edges.size() / 2);
  return h;
}

}  // namespace detail

}  // namespace dtm
