#include "sched/dependency_graph.hpp"

#include <limits>

namespace dtm {

namespace detail {

void require_arc_count(std::uint64_t raw_arcs) {
  DTM_REQUIRE(raw_arcs <= std::numeric_limits<std::uint32_t>::max(),
              "dependency graph: " << raw_arcs
                                   << " raw arcs exceed 2^32 - 1");
}

void require_arc_weight(Weight max_weight) {
  DTM_REQUIRE(max_weight <= std::numeric_limits<std::uint32_t>::max(),
              "dependency graph: hop weight " << max_weight
                                              << " exceeds 2^32 - 1");
}

}  // namespace detail

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
