#include "sched/dependency_graph.hpp"

#include <algorithm>
#include <limits>

namespace dtm {

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric,
                                       std::span<const TxnId> txns) {
  std::vector<TxnId> sorted(txns.begin(), txns.end());
  std::sort(sorted.begin(), sorted.end());
  DTM_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end(),
              "dependency graph: duplicate transaction in subset");

  // Map global TxnId -> local index (kInvalidTxn marks "not in subset").
  std::vector<TxnId> local(inst.num_transactions(), kInvalidTxn);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    local[sorted[i]] = static_cast<TxnId>(i);
  }

  // For every object, connect all pairs of its in-subset requesters.
  return detail::assemble_dependency_csr(
      inst, metric, std::move(sorted), [&](const auto& emit) {
        std::vector<TxnId> members;  // reused across objects
        for (ObjectId o = 0; o < inst.num_objects(); ++o) {
          members.clear();
          for (TxnId t : inst.requesters(o)) {
            if (local[t] != kInvalidTxn) members.push_back(local[t]);
          }
          for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
              emit(members[i], members[j]);
            }
          }
        }
      });
}

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric) {
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  return build_dependency_graph(inst, metric, all);
}

// --- incremental graph -------------------------------------------------

IncrementalConflictGraph::IncrementalConflictGraph(const Metric& metric,
                                                   std::size_t num_objects,
                                                   std::size_t max_window)
    : metric_(&metric), live_req_(num_objects), max_window_(max_window) {}

void IncrementalConflictGraph::push_arc(TxnId owner, TxnId to, Weight w) {
  std::int32_t idx = free_;
  if (idx != -1) {
    free_ = arcs_[idx].next;
    arcs_[idx] = {to, w, -1};
  } else {
    // Chain links are int32_t: past 2^31 - 1 arcs the index would wrap
    // negative and the chain walk would read out of bounds.
    DTM_REQUIRE(arcs_.size() <
                    static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()),
                "incremental graph: arc pool exceeds 2^31 - 1 arcs");
    idx = static_cast<std::int32_t>(arcs_.size());
    arcs_.push_back({to, w, -1});
  }
  Chain& c = chain(owner);
  if (c.tail == -1) {
    c.head = idx;
  } else {
    arcs_[c.tail].next = idx;
  }
  c.tail = idx;
}

void IncrementalConflictGraph::add_txn(TxnId t, NodeId home,
                                       std::span<const ObjectId> objects) {
  DTM_REQUIRE(t == num_txns_,
              "incremental graph: ids must arrive dense and in order "
              "(expected T"
                  << num_txns_ << ", got T" << t << ")");
  for (std::size_t i = 0; i < objects.size(); ++i) {
    DTM_REQUIRE(objects[i] < live_req_.size(),
                "incremental graph: object id " << objects[i]
                                                << " out of range");
    DTM_REQUIRE(i == 0 || objects[i - 1] < objects[i],
                "incremental graph: T" << t
                                       << " objects must be strictly "
                                          "ascending");
  }

  // Grow the ring so [frontier_, t] fits, re-seating the unreleased slots
  // at their indices under the wider mask.
  const std::size_t unreleased = num_txns_ - frontier_;
  if (unreleased + 1 > chains_.size()) {
    std::vector<Chain> grown(std::max<std::size_t>(16, 2 * chains_.size()));
    for (std::size_t id = frontier_; id < num_txns_; ++id) {
      grown[id & (grown.size() - 1)] = chain(static_cast<TxnId>(id));
    }
    chains_ = std::move(grown);
  }
  chain(t) = Chain{};
  ++num_txns_;
  ++live_;

  // Partners over all shared objects; a pair sharing several objects is
  // deduplicated (the CSR builder dedups too).
  auto& partners = partner_scratch_;
  partners.clear();
  for (ObjectId o : objects) {
    partners.insert(partners.end(), live_req_[o].begin(), live_req_[o].end());
    live_req_[o].push_back({t, home});
  }
  std::sort(partners.begin(), partners.end(),
            [](const Requester& a, const Requester& b) { return a.txn < b.txn; });
  partners.erase(std::unique(partners.begin(), partners.end(),
                             [](const Requester& a, const Requester& b) {
                               return a.txn == b.txn;
                             }),
                 partners.end());
  if (partners.empty()) return;

  // One batched distance query for the delta, matching the builder's
  // access pattern (DenseMetric streams a matrix row).
  target_scratch_.resize(partners.size());
  dist_scratch_.resize(partners.size());
  for (std::size_t i = 0; i < partners.size(); ++i) {
    target_scratch_[i] = partners[i].home;
  }
  metric_->distances(home, target_scratch_, dist_scratch_.data());
  for (std::size_t i = 0; i < partners.size(); ++i) {
    const TxnId p = partners[i].txn;
    // Streams revisit homes, so two conflicting transactions can share a
    // node (distance 0). The single-copy object still serves one commit
    // per step — exactly what the stepwise engine enforces — so conflict
    // edges are at least 1 here, where the batch builder (one txn per
    // node) never sees a zero.
    const Weight w = std::max<Weight>(dist_scratch_[i], 1);
    max_w_ = std::max(max_w_, w);
    // A placed partner, or one too far back to fit in a window with t,
    // can share no window with t: count the edge, store nothing.
    if (p < frontier_ || (max_window_ != 0 && t - p >= max_window_)) {
      continue;
    }
    // Tail-appended in ascending partner order; p's chain gains t, the
    // largest id so far — both chains stay ascending by neighbor.
    push_arc(t, p, w);
    push_arc(p, t, w);
  }
  num_edges_ += partners.size();
  telemetry::count("stream.dep_edges", partners.size());
}

void IncrementalConflictGraph::retire(TxnId t,
                                      std::span<const ObjectId> objects) {
  DTM_REQUIRE(t < num_txns_, "incremental graph: retiring unknown txn");
  for (ObjectId o : objects) {
    auto& req = live_req_[o];
    auto it = std::find_if(req.begin(), req.end(),
                           [t](const Requester& r) { return r.txn == t; });
    DTM_REQUIRE(it != req.end(),
                "incremental graph: T" << t << " not live on o" << o);
    req.erase(it);
  }
  DTM_ASSERT(live_ > 0);
  --live_;
}

void IncrementalConflictGraph::release_through(TxnId frontier) {
  DTM_REQUIRE(frontier >= frontier_ && frontier <= num_txns_,
              "incremental graph: release frontier "
                  << frontier << " outside [" << frontier_ << ", "
                  << num_txns_ << "]");
  // Splice each released chain onto the free list whole: O(1) per id.
  for (TxnId t = frontier_; t < frontier; ++t) {
    const Chain c = chain(t);
    if (c.head == -1) continue;
    arcs_[c.tail].next = free_;
    free_ = c.head;
  }
  frontier_ = frontier;
}

std::size_t IncrementalConflictGraph::arc_pool_bytes() const {
  return arcs_.size() * sizeof(Arc) + chains_.size() * sizeof(Chain);
}

DependencyGraph IncrementalConflictGraph::subgraph(
    std::span<const TxnId> txns) const {
  DependencyGraph h;
  h.txns.assign(txns.begin(), txns.end());
  const std::size_t n = h.txns.size();
  DTM_REQUIRE(std::is_sorted(h.txns.begin(), h.txns.end()) &&
                  std::adjacent_find(h.txns.begin(), h.txns.end()) ==
                      h.txns.end(),
              "incremental subgraph: subset must be ascending and "
              "duplicate-free");
  if (n > 0) {
    DTM_REQUIRE(h.txns.front() >= frontier_,
                "incremental subgraph: T" << h.txns.front()
                                          << " was already released");
    DTM_REQUIRE(h.txns.back() < num_txns_,
                "incremental subgraph: T" << h.txns.back() << " never added");
  }

  // Global id -> local index for the subset (binary search keeps this
  // allocation-light; windows are small relative to the stream). Chains
  // may still name partners released since the arc was stored; they are
  // never subset members, so the filter drops them.
  auto local_of = [&](TxnId g) -> TxnId {
    auto it = std::lower_bound(h.txns.begin(), h.txns.end(), g);
    return it != h.txns.end() && *it == g
               ? static_cast<TxnId>(it - h.txns.begin())
               : kInvalidTxn;
  };

  // Pass 1: exact degrees (chains filtered to subset members).
  h.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t deg = 0;
    for (std::int32_t a = chain(h.txns[i]).head; a != -1; a = arcs_[a].next) {
      if (local_of(arcs_[a].to) != kInvalidTxn) ++deg;
    }
    h.offsets[i + 1] = h.offsets[i] + static_cast<std::uint32_t>(deg);
    h.max_degree = std::max(h.max_degree, deg);
  }

  // Pass 2: fill. Every chain is ascending by neighbor id (tail
  // insertion, see add_txn), which is the batch builder's
  // ascending-local-index order, so no sort is needed.
  h.edges.resize(h.offsets[n]);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t e = h.offsets[i];
    for (std::int32_t a = chain(h.txns[i]).head; a != -1; a = arcs_[a].next) {
      const TxnId l = local_of(arcs_[a].to);
      if (l == kInvalidTxn) continue;
      h.edges[e++] = {l, arcs_[a].weight};
      h.max_edge_weight = std::max(h.max_edge_weight, arcs_[a].weight);
    }
  }
  return h;
}

}  // namespace dtm
