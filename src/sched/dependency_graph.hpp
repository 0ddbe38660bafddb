// Transaction dependency (conflict) graph H (§2.3): one node per
// transaction, an edge between transactions sharing at least one object,
// edge weight = distance in G between their home nodes, at least 1
// (hop_steps: an object serves one commit per step, so requesters sharing
// a node are still a step apart).
//
// H is stored in CSR form (offsets + flat arc array) of 8-byte arcs: a
// 32-bit local neighbor index and a 32-bit weight. A hop weight above
// 2^32 - 1 throws dtm::Error, as does a build whose raw arc count (each
// conflicting pair once per shared object, both directions) exceeds
// 2^32 - 1. A two-pass count-then-fill assembler, shared with the
// read/write-conflict variant (sched/rw_greedy.cpp), builds it in place:
// pass one counts arcs per node, pass two scatters neighbor ids straight
// into the arc array, then each node's range is sorted, deduplicated and
// compacted in place, and the weights are filled in one batched metric
// query per node (so DenseMetric streams whole matrix rows). The build
// holds 8 bytes per raw arc and no second per-arc array.
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
  /// hop_steps of the home distance; the build throws if it needs more
  /// than 32 bits.
  std::uint32_t weight;
};
static_assert(sizeof(DependencyEdge) == 8);

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

/// How a build's distance fill weighs an edge.
enum class EdgeWeighing {
  /// One batched query per node over all its neighbors, so each edge is
  /// queried from both ends. The batch schedulers' builds keep this: their
  /// recorded query counts are baseline cells.
  kFromBothEnds,
  /// Each edge is queried once, from its lower end, and the upper end
  /// copies the weight. Window builds use this, so a stream queries each
  /// edge of its window graphs once (see window_step, sched/online.hpp).
  kOnce,
};

namespace detail {

/// Throw dtm::Error unless `raw_arcs` arcs fit the CSR's 32-bit offsets,
/// and unless `max_weight` fits an arc's 32-bit weight. Defined out of
/// line, so the assembler's instantiations carry no message formatting.
void require_arc_count(std::uint64_t raw_arcs);
void require_arc_weight(Weight max_weight);

/// Two-pass CSR assembly shared by the object-conflict and read/write-
/// conflict builders. `txns` are the covered transactions, ascending, and
/// `home(t)` is transaction t's node. `emit_pairs(emit)` must call
/// emit(a, b) with local indices a != b once per conflicting pair
/// occurrence; parallel pairs from multiple shared objects are
/// deduplicated here. It runs twice — once to count, once to fill — so it
/// must be deterministic. The assembler takes it over: it is destroyed,
/// with any scratch it owns, before the distance fill.
template <typename HomeOf, typename EmitPairs>
DependencyGraph assemble_dependency_csr(const Metric& metric,
                                        std::vector<TxnId> txns,
                                        const HomeOf& home,
                                        EdgeWeighing weighing,
                                        EmitPairs emit_pairs) {
  DependencyGraph h;
  h.txns = std::move(txns);
  const std::size_t n = h.txns.size();
  h.offsets.assign(n + 1, 0);
  {
    const EmitPairs emit_all = std::move(emit_pairs);
    // Pass 1: arc counts (parallel pairs still included), prefix-summed so
    // offsets[i + 1] ends node i's raw range. The 64-bit total is checked
    // before any arc is stored; no per-node count can wrap below it.
    std::uint64_t raw_arcs = 0;
    emit_all([&](TxnId a, TxnId b) {
      ++h.offsets[a + 1];
      ++h.offsets[b + 1];
      raw_arcs += 2;
    });
    require_arc_count(raw_arcs);
    for (std::size_t i = 0; i < n; ++i) h.offsets[i + 1] += h.offsets[i];

    // Pass 2: scatter neighbor ids into the arcs, filling each range from
    // its end, so offsets[i + 1] comes to hold node i's raw start.
    h.edges.resize(raw_arcs);
    emit_all([&](TxnId a, TxnId b) {
      h.edges[--h.offsets[a + 1]].neighbor = b;
      h.edges[--h.offsets[b + 1]].neighbor = a;
    });

    // Sort and dedup each node's range, then compact it down; the write
    // cursor never overtakes the range it reads from, and offsets[i + 1]
    // is rewritten only after node i's raw range is read.
    DependencyEdge* const arcs = h.edges.data();
    std::size_t write = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = h.offsets[i + 1];
      const std::size_t hi = i + 1 < n ? h.offsets[i + 2] : h.edges.size();
      DependencyEdge* const first = arcs + lo;
      std::ranges::sort(first, arcs + hi, {}, &DependencyEdge::neighbor);
      const auto rest =
          std::ranges::unique(first, arcs + hi, {}, &DependencyEdge::neighbor);
      const auto deg = static_cast<std::size_t>(rest.begin() - first);
      for (std::size_t k = 0; k < deg; ++k) arcs[write + k] = arcs[lo + k];
      write += deg;
      h.offsets[i + 1] = static_cast<std::uint32_t>(write);
      h.max_degree = std::max(h.max_degree, deg);
    }
    h.edges.resize(write);
  }

  // Distance fill, one batched query per node: targets are the neighbors'
  // home nodes, so a DenseMetric walks its matrix row sequentially and a
  // LazyMetric resolves the source tree once. Weighing kOnce, a node
  // queries only its upper neighbors and copies the rest: each lower
  // neighbor j was filled first, and j's sorted range holds the arc.
  std::vector<NodeId> homes(n);
  for (std::size_t i = 0; i < n; ++i) homes[i] = home(h.txns[i]);
  std::vector<NodeId> targets;
  std::vector<Weight> dist;
  DependencyEdge* const arcs = h.edges.data();
  // The first arc of j's range whose neighbor is not below v.
  const auto first_at_least = [&](TxnId j, TxnId v) {
    return std::ranges::lower_bound(arcs + h.offsets[j],
                                    arcs + h.offsets[j + 1], v, {},
                                    &DependencyEdge::neighbor);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto self = static_cast<TxnId>(i);
    DependencyEdge* const lo = arcs + h.offsets[i];
    DependencyEdge* const hi = arcs + h.offsets[i + 1];
    DependencyEdge* const mid =
        weighing == EdgeWeighing::kFromBothEnds ? lo
                                                : first_at_least(self, self);
    for (DependencyEdge* e = lo; e < mid; ++e) {
      e->weight = first_at_least(e->neighbor, self)->weight;
    }
    const auto up = static_cast<std::size_t>(hi - mid);
    if (up == 0) continue;
    targets.resize(up);
    dist.resize(up);
    for (std::size_t k = 0; k < up; ++k) targets[k] = homes[mid[k].neighbor];
    metric.distances(homes[i], targets, dist.data());
    for (std::size_t k = 0; k < up; ++k) {
      const Weight w = hop_steps(dist[k]);
      mid[k].weight = static_cast<std::uint32_t>(w);
      h.max_edge_weight = std::max(h.max_edge_weight, w);
    }
  }
  // A truncated weight may have been stored, but the graph never leaves.
  require_arc_weight(h.max_edge_weight);
  static MetricCounter& csr_edges = metrics::counter("dep.csr_edges");
  csr_edges.add(h.edges.size() / 2);
  return h;
}

}  // namespace detail

/// Builds H over the transactions `txns` (any order, no duplicates):
/// `home(t)` is transaction t's node and `objects(t)` its object set
/// (distinct ids). The members are grouped by the objects they touch, so
/// the cost is O(m + o) for the m object-set entries of the subset and its
/// largest object id o, plus the conflict pairs it holds.
template <class HomeOf, class ObjectsOf>
DependencyGraph build_dependency_graph(const Metric& metric,
                                       std::span<const TxnId> txns,
                                       const HomeOf& home,
                                       const ObjectsOf& objects,
                                       EdgeWeighing weighing) {
  std::vector<TxnId> sorted(txns.begin(), txns.end());
  std::sort(sorted.begin(), sorted.end());
  DTM_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end(),
              "dependency graph: duplicate transaction in subset");

  // Group the members by object, counting-sort style over the objects
  // they touch: `end[o]` first counts o's members, then holds the end of
  // o's run in `members`. Runs follow `touched` order and ascend by local
  // index.
  ObjectId max_object = 0;
  std::size_t entries = 0;
  for (TxnId t : sorted) {
    for (ObjectId o : objects(t)) max_object = std::max(max_object, o);
    entries += objects(t).size();
  }
  std::vector<std::uint32_t> end(entries == 0 ? 0 : max_object + 1, 0);
  std::vector<ObjectId> touched;
  for (TxnId t : sorted) {
    for (ObjectId o : objects(t)) {
      if (end[o]++ == 0) touched.push_back(o);
    }
  }
  // Each object's r members give r(r - 1) raw arcs: check their sum
  // before any pair is emitted.
  std::uint32_t at = 0;
  std::uint64_t raw_arcs = 0;
  for (ObjectId o : touched) {
    const std::uint32_t count = end[o];
    end[o] = at;  // the run's start; the scatter advances it to the end
    at += count;
    raw_arcs += std::uint64_t{count} * (count - 1);
  }
  detail::require_arc_count(raw_arcs);
  std::vector<TxnId> members(entries);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    for (ObjectId o : objects(sorted[i])) {
      members[end[o]++] = static_cast<TxnId>(i);
    }
  }

  // For every touched object, connect all pairs of its members.
  return detail::assemble_dependency_csr(
      metric, std::move(sorted), home, weighing,
      [members = std::move(members), touched = std::move(touched),
       end = std::move(end)](const auto& emit) {
        std::size_t lo = 0;
        for (ObjectId o : touched) {
          const std::size_t hi = end[o];
          for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t j = i + 1; j < hi; ++j) {
              emit(members[i], members[j]);
            }
          }
          lo = hi;
        }
      });
}

/// H over `txns` of `inst`, distances from `metric`, each edge queried
/// from both ends.
DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric,
                                       std::span<const TxnId> txns);

/// Convenience overload over all transactions.
DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric);

}  // namespace dtm
