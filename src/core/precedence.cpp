#include "core/precedence.hpp"

#include <algorithm>
#include <queue>

namespace dtm {

std::vector<Time> earliest_commit_times(
    const Instance& inst, const Metric& metric,
    const std::vector<std::vector<TxnId>>& object_order) {
  const std::size_t n = inst.num_transactions();
  DTM_REQUIRE(object_order.size() == inst.num_objects(),
              "earliest_commit_times: order list size mismatch");

  // Per-transaction successor lists and in-degrees in the precedence DAG.
  struct Succ {
    TxnId next;
    Weight dist;
  };
  std::vector<std::vector<Succ>> succ(n);
  std::vector<std::size_t> indegree(n, 0);
  // Earliest time lower bound: 1, raised by object source constraints.
  std::vector<Time> time(n, 1);

  RequesterPermutationCheck is_permutation(inst);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const auto& order = object_order[o];
    DTM_REQUIRE(is_permutation(o, order),
                "object_order[" << o
                                << "] is not a permutation of requesters");
    if (order.empty()) continue;
    const NodeId home = inst.object_home(o);
    const TxnId first = order.front();
    time[first] = std::max(
        time[first], hop_steps(metric.distance(home, inst.home(first))));
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      const TxnId a = order[i], b = order[i + 1];
      succ[a].push_back(
          {b, hop_steps(metric.distance(inst.home(a), inst.home(b)))});
      ++indegree[b];
    }
  }

  // Kahn's algorithm with longest-path relaxation.
  std::queue<TxnId> ready;
  for (TxnId t = 0; t < n; ++t) {
    if (indegree[t] == 0) ready.push(t);
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const TxnId t = ready.front();
    ready.pop();
    ++processed;
    for (const Succ& s : succ[t]) {
      time[s.next] = std::max(time[s.next], time[t] + s.dist);
      if (--indegree[s.next] == 0) ready.push(s.next);
    }
  }
  DTM_REQUIRE(processed == n,
              "object orders induce a precedence cycle ("
                  << (n - processed) << " transactions unreachable)");
  return time;
}

Schedule schedule_from_orders(const Instance& inst, const Metric& metric,
                              std::vector<std::vector<TxnId>> object_order) {
  Schedule s;
  s.commit_time = earliest_commit_times(inst, metric, object_order);
  s.object_order = std::move(object_order);
  return s;
}

Schedule compact(const Instance& inst, const Metric& metric,
                 const Schedule& schedule) {
  return schedule_from_orders(inst, metric, schedule.object_order);
}

}  // namespace dtm
