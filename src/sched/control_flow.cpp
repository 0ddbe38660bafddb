#include "sched/control_flow.hpp"

#include <algorithm>
#include <sstream>

#include "core/precedence.hpp"

namespace dtm {

Time ControlFlowResult::makespan() const {
  Time best = 0;
  for (Time t : commit_time) best = std::max(best, t);
  return best;
}

ControlFlowResult schedule_control_flow(const Instance& inst,
                                        const Metric& metric,
                                        ControlFlowOrder order) {
  const std::size_t n = inst.num_transactions();
  ControlFlowResult out;
  out.object_order.resize(inst.num_objects());

  // A global priority keeps the per-object orders jointly acyclic (any
  // per-object mix of local orders can deadlock the precedence system).
  // kNearestFirst uses total round-trip work as the key — the SPT rule
  // applied globally.
  std::vector<Weight> work(n, 0);
  if (order == ControlFlowOrder::kNearestFirst) {
    for (const TxnRef t : inst.transactions()) {
      for (ObjectId o : t.objects) {
        work[t.id] += 2 * metric.distance(inst.object_home(o), t.home);
      }
    }
  }
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    auto& service = out.object_order[o];
    const std::span<const TxnId> req = inst.requesters(o);
    service.assign(req.begin(), req.end());
    if (order == ControlFlowOrder::kNearestFirst) {
      std::stable_sort(service.begin(), service.end(), [&](TxnId a, TxnId b) {
        return work[a] != work[b] ? work[a] < work[b] : a < b;
      });
    }
  }

  // Longest path over the service-order DAG with round-trip arc weights
  // 2·dist(home(o), node(next)).
  std::vector<Time> floor(n, 1);
  std::vector<PrecedenceArc> arcs;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const NodeId home = inst.object_home(o);
    const auto& service = out.object_order[o];
    for (std::size_t i = 0; i < service.size(); ++i) {
      const Weight rt = 2 * metric.distance(home, inst.home(service[i]));
      out.communication += rt;
      if (i == 0) {
        // First access only waits for its own round trip.
        floor[service[0]] = std::max(floor[service[0]], rt);
      } else {
        arcs.push_back({service[i - 1], service[i], rt});
      }
    }
  }
  out.commit_time =
      longest_path_times(std::move(floor), arcs, "schedule_control_flow");
  return out;
}

std::string check_control_flow(const Instance& inst, const Metric& metric,
                               const ControlFlowResult& r) {
  if (r.commit_time.size() != inst.num_transactions()) {
    return "commit_time size mismatch";
  }
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    if (r.commit_time[t] < 1) {
      std::ostringstream os;
      os << "T" << t << " commits before step 1";
      return os.str();
    }
  }
  RequesterPermutationCheck is_permutation(inst);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    if (!is_permutation(o, r.object_order[o])) {
      std::ostringstream os;
      os << "o" << o << " service order is not a permutation";
      return os.str();
    }
    const NodeId home = inst.object_home(o);
    Time prev = 0;
    for (TxnId t : r.object_order[o]) {
      const Weight rt = 2 * metric.distance(home, inst.home(t));
      if (r.commit_time[t] < prev + rt) {
        std::ostringstream os;
        os << "o" << o << ": T" << t << " commits at " << r.commit_time[t]
           << " < previous release " << prev << " + round trip " << rt;
        return os.str();
      }
      prev = r.commit_time[t];
    }
  }
  return "";
}

}  // namespace dtm
