#include "sched/dependency_graph.hpp"

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

}  // namespace dtm
