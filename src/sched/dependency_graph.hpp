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
#include "util/telemetry.hpp"

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
/// conflicting with it (its historical arcs stay in the pool, which keeps
/// retire O(k)). subgraph() exports any subset — in practice a scheduling
/// window's batch — as the standard CSR DependencyGraph that
/// greedy_color() consumes, filtering pool arcs to subset members.
class IncrementalConflictGraph {
 public:
  IncrementalConflictGraph(const Metric& metric, std::size_t num_objects);

  /// Registers transaction `t` (ids must arrive dense, in order: the next
  /// expected id is num_txns()) homed at `home` touching `objects`
  /// (sorted, duplicate-free). Inserts the delta edges.
  void add_txn(TxnId t, NodeId home, std::span<const ObjectId> objects);

  /// Marks `t` committed: it leaves the live requester sets of its
  /// `objects` (which must be the set it was added with).
  void retire(TxnId t, std::span<const ObjectId> objects);

  /// CSR view over `txns` (ascending ids already added); only edges with
  /// both endpoints in the subset are included. Local indices follow the
  /// subset's order, matching build_dependency_graph's convention.
  DependencyGraph subgraph(std::span<const TxnId> txns) const;

  std::size_t num_txns() const { return num_txns_; }
  /// Undirected edges inserted so far (retired arcs included).
  std::size_t num_edges() const { return arcs_.size() / 2; }
  /// Heaviest edge ever inserted.
  Weight max_edge_weight() const { return max_w_; }
  /// Live (added, not retired) transactions.
  std::size_t live() const { return live_; }
  /// Bytes held by the arc pool and its per-txn chain indices
  /// (telemetry: stream.arc_pool_bytes).
  std::size_t arc_pool_bytes() const;

 private:
  struct Arc {
    TxnId to;
    Weight weight;
    std::int32_t next;  // index of the owner's next (larger-id) arc, -1 at end
  };

  void push_arc(TxnId owner, TxnId to, Weight w);
  std::int32_t chain_head(TxnId t) const {
    return t < head_.size() ? head_[t] : -1;
  }

  const Metric* metric_;
  /// The arc pool; head_/tail_ are per owning txn, lazily grown (a txn
  /// with no conflicts yet costs nothing here).
  std::vector<Arc> arcs_;
  std::vector<std::int32_t> head_;
  std::vector<std::int32_t> tail_;
  std::vector<NodeId> home_;
  /// Per object: live requesters, ascending (insertion is in id order and
  /// retire preserves order).
  std::vector<std::vector<TxnId>> live_req_;
  std::size_t num_txns_ = 0;
  Weight max_w_ = 0;
  std::size_t live_ = 0;
  /// Reused add_txn scratch: partner ids, their homes and distances.
  std::vector<TxnId> partner_scratch_;
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
  telemetry::count("dep.csr_edges", h.edges.size() / 2);
  return h;
}

}  // namespace detail

}  // namespace dtm
