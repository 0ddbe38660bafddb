#include "graph/topologies/line.hpp"

namespace dtm {

Line::Line(std::size_t n_in) : n(n_in) {
  DTM_REQUIRE(n >= 1, "line needs at least 1 node");
  graph = Graph::from_rows(
      n, n > 1 ? 1 : 0,
      [n = n](NodeId u) { return std::size_t{u > 0} + (u + 1 < n); },
      [n = n](NodeId u, RowWriter& out) {
        if (u > 0) out.add(u - 1, 1);
        if (u + 1 < n) out.add(u + 1, 1);
      },
      FamilyKey{TopologyKind::kLine, {n}});
}

}  // namespace dtm
