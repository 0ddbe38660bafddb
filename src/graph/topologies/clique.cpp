#include "graph/topologies/clique.hpp"

namespace dtm {

Clique::Clique(std::size_t n_in) : n(n_in) {
  DTM_REQUIRE(n >= 1, "clique needs at least 1 node");
  graph = Graph::from_rows(
      n, n > 1 ? 1 : 0, [n = n](NodeId) { return n - 1; },
      [n = n](NodeId u, RowWriter& out) {
        for (NodeId v = 0; v < n; ++v) {
          if (v != u) out.add(v, 1);
        }
      },
      FamilyKey{TopologyKind::kClique, {n}});
}

}  // namespace dtm
