#include "sched/baseline.hpp"

#include <algorithm>
#include <numeric>

#include "core/precedence.hpp"

namespace dtm {

namespace {

/// Per-object visit orders induced by a global transaction order.
std::vector<std::vector<TxnId>> orders_from_permutation(
    const Instance& inst, const std::vector<TxnId>& perm) {
  std::vector<std::size_t> rank(inst.num_transactions());
  for (std::size_t i = 0; i < perm.size(); ++i) rank[perm[i]] = i;
  std::vector<std::vector<TxnId>> orders(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const std::span<const TxnId> req = inst.requesters(o);
    orders[o].assign(req.begin(), req.end());
    std::sort(orders[o].begin(), orders[o].end(),
              [&](TxnId a, TxnId b) { return rank[a] < rank[b]; });
  }
  return orders;
}

}  // namespace

OrderScheduler::OrderScheduler(OrderOptions opts)
    : opts_(opts), rng_(opts.seed) {}

std::string OrderScheduler::name() const {
  std::string n = opts_.randomize ? "random-order" : "id-order";
  if (opts_.strict_sequential) n += "-serial";
  return n;
}

Schedule OrderScheduler::run(const Instance& inst, const Metric& metric) {
  std::vector<TxnId> perm(inst.num_transactions());
  std::iota(perm.begin(), perm.end(), 0);
  if (opts_.randomize) rng_.shuffle(perm);

  auto orders = orders_from_permutation(inst, perm);
  if (!opts_.strict_sequential) {
    return schedule_from_orders(inst, metric, std::move(orders));
  }

  // Strictly serial: each transaction waits for the previous one AND for
  // its objects to arrive from their previous holders.
  std::vector<Time> commit(inst.num_transactions(), 0);
  std::vector<NodeId> obj_pos(inst.num_objects());
  std::vector<Time> obj_free(inst.num_objects(), 0);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    obj_pos[o] = inst.object_home(o);
  }
  Time clock = 0;
  for (TxnId t : perm) {
    Time ready = clock + 1;
    for (ObjectId o : inst.objects(t)) {
      ready = std::max(ready,
                       obj_free[o] + metric.distance(obj_pos[o],
                                                     inst.home(t)));
    }
    ready = std::max<Time>(ready, 1);
    commit[t] = ready;
    clock = ready;
    for (ObjectId o : inst.objects(t)) {
      obj_pos[o] = inst.home(t);
      obj_free[o] = ready;
    }
  }
  Schedule s;
  s.commit_time = std::move(commit);
  s.object_order = std::move(orders);
  return s;
}

ExactScheduler::ExactScheduler(std::size_t max_transactions)
    : max_transactions_(max_transactions) {
  DTM_REQUIRE(max_transactions_ <= 10,
              "ExactScheduler cap above 10 transactions is impractical");
}

Schedule ExactScheduler::run(const Instance& inst, const Metric& metric) {
  const std::size_t n = inst.num_transactions();
  DTM_REQUIRE(n <= max_transactions_,
              "ExactScheduler: " << n << " transactions exceeds cap "
                                 << max_transactions_);
  std::vector<TxnId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Schedule best;
  best_makespan_ = kInfiniteWeight;
  do {
    auto orders = orders_from_permutation(inst, perm);
    Schedule cand = schedule_from_orders(inst, metric, std::move(orders));
    const Time mk = cand.makespan();
    if (mk < best_makespan_) {
      best_makespan_ = mk;
      best = std::move(cand);
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace dtm
