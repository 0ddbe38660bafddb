#include "core/precedence.hpp"

#include <algorithm>

namespace dtm {

std::vector<Time> longest_path_times(std::vector<Time> time,
                                     std::span<const PrecedenceArc> arcs,
                                     std::string_view what) {
  const std::size_t n = time.size();
  // Group the arcs by tail with one counting sort: the arcs leaving t are
  // arcs[by_tail[k]] for k in [start[t], start[t + 1]).
  std::vector<std::size_t> start(n + 1, 0);
  std::vector<std::size_t> indegree(n, 0);
  for (const PrecedenceArc& a : arcs) {
    DTM_ASSERT(a.from < n && a.to < n);
    ++start[a.from];
    ++indegree[a.to];
  }
  for (std::size_t t = 1; t <= n; ++t) start[t] += start[t - 1];
  std::vector<std::size_t> by_tail(arcs.size());
  for (std::size_t k = arcs.size(); k-- > 0;) {
    by_tail[--start[arcs[k].from]] = k;
  }

  // Kahn's algorithm with longest-path relaxation; `ready` is the FIFO.
  std::vector<TxnId> ready;
  ready.reserve(n);
  for (TxnId t = 0; t < n; ++t) {
    if (indegree[t] == 0) ready.push_back(t);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const TxnId t = ready[head];
    for (std::size_t k = start[t]; k < start[t + 1]; ++k) {
      const PrecedenceArc& a = arcs[by_tail[k]];
      time[a.to] = std::max(time[a.to], time[t] + a.weight);
      if (--indegree[a.to] == 0) ready.push_back(a.to);
    }
  }
  DTM_REQUIRE(ready.size() == n,
              what << ": precedence cycle (" << (n - ready.size())
                   << " transactions unreachable)");
  return time;
}

void append_chain_arcs(const Instance& inst, const Metric& metric,
                       std::span<const TxnId> chain,
                       std::vector<PrecedenceArc>& arcs) {
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const TxnId a = chain[i], b = chain[i + 1];
    arcs.push_back(
        {a, b, hop_steps(metric.distance(inst.home(a), inst.home(b)))});
  }
}

std::vector<Time> earliest_commit_times(
    const Instance& inst, const Metric& metric,
    const std::vector<std::vector<TxnId>>& object_order) {
  DTM_REQUIRE(object_order.size() == inst.num_objects(),
              "earliest_commit_times: order list size mismatch");
  // Earliest time lower bound: 1, raised by object source constraints.
  std::vector<Time> floor(inst.num_transactions(), 1);
  std::vector<PrecedenceArc> arcs;
  RequesterPermutationCheck is_permutation(inst);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const auto& order = object_order[o];
    DTM_REQUIRE(is_permutation(o, order),
                "object_order[" << o
                                << "] is not a permutation of requesters");
    if (order.empty()) continue;
    const TxnId first = order.front();
    floor[first] = std::max(
        floor[first],
        hop_steps(metric.distance(inst.object_home(o), inst.home(first))));
    append_chain_arcs(inst, metric, order, arcs);
  }
  return longest_path_times(std::move(floor), arcs, "earliest_commit_times");
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
