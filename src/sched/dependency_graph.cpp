#include "sched/dependency_graph.hpp"

#include <algorithm>

namespace dtm {

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric,
                                       std::span<const TxnId> txns) {
  return build_dependency_graph(
      metric, txns, [&](TxnId t) { return inst.home(t); },
      [&](TxnId t) { return inst.objects(t); }, EdgeWeighing::kFromBothEnds);
}

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric) {
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  return build_dependency_graph(inst, metric, all);
}

// --- conflict tally ----------------------------------------------------

IncrementalConflictGraph::IncrementalConflictGraph(const Metric& metric,
                                                   std::size_t num_objects)
    : metric_(&metric), live_req_(num_objects) {}

void IncrementalConflictGraph::add_txn(TxnId t, NodeId home,
                                       std::span<const ObjectId> objects) {
  DTM_REQUIRE(t == num_txns_,
              "conflict tally: ids must arrive dense and in order "
              "(expected T"
                  << num_txns_ << ", got T" << t << ")");
  for (std::size_t i = 0; i < objects.size(); ++i) {
    DTM_REQUIRE(objects[i] < live_req_.size(),
                "conflict tally: object id " << objects[i]
                                                << " out of range");
    DTM_REQUIRE(i == 0 || objects[i - 1] < objects[i],
                "conflict tally: T" << t
                                       << " objects must be strictly "
                                          "ascending");
  }
  ++num_txns_;
  ++live_;

  partner_scratch_.clear();
  for (ObjectId o : objects) {
    partner_scratch_.insert(partner_scratch_.end(), live_req_[o].begin(),
                            live_req_[o].end());
    live_req_[o].push_back({t, home});
  }
  dedup_partners();
  num_edges_ += partner_scratch_.size();
  static MetricCounter& dep_edges = metrics::counter("stream.dep_edges");
  dep_edges.add(partner_scratch_.size());
  // Placed partners are an id prefix; the edges to the unplaced rest are
  // weighed when the earlier end's window is placed.
  const auto unplaced = std::partition_point(
      partner_scratch_.begin(), partner_scratch_.end(),
      [&](const Requester& r) { return r.txn < placed_; });
  partner_scratch_.erase(unplaced, partner_scratch_.end());
  weigh_partners(home);
}

void IncrementalConflictGraph::dedup_partners() {
  auto& partners = partner_scratch_;
  std::sort(partners.begin(), partners.end(),
            [](const Requester& a, const Requester& b) { return a.txn < b.txn; });
  partners.erase(std::unique(partners.begin(), partners.end(),
                             [](const Requester& a, const Requester& b) {
                               return a.txn == b.txn;
                             }),
                 partners.end());
}

void IncrementalConflictGraph::weigh_partners(NodeId from) {
  const std::size_t n = partner_scratch_.size();
  if (n == 0) return;
  target_scratch_.resize(n);
  dist_scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    target_scratch_[i] = partner_scratch_[i].home;
  }
  metric_->distances(from, target_scratch_, dist_scratch_.data());
  for (std::size_t i = 0; i < n; ++i) {
    max_w_ = std::max(max_w_, hop_steps(dist_scratch_[i]));
  }
}

void IncrementalConflictGraph::retire(TxnId t,
                                      std::span<const ObjectId> objects) {
  DTM_REQUIRE(t < num_txns_, "conflict tally: retiring unknown txn");
  for (ObjectId o : objects) {
    auto& req = live_req_[o];
    auto it = std::find_if(req.begin(), req.end(),
                           [t](const Requester& r) { return r.txn == t; });
    DTM_REQUIRE(it != req.end(),
                "conflict tally: T" << t << " not live on o" << o);
    req.erase(it);
  }
  DTM_ASSERT(live_ > 0);
  --live_;
}

std::size_t IncrementalConflictGraph::requester_bytes() const {
  std::size_t slots = 0;
  for (const auto& req : live_req_) slots += req.capacity();
  return slots * sizeof(Requester);
}

}  // namespace dtm
