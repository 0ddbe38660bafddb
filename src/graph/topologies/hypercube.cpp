#include "graph/topologies/hypercube.hpp"

namespace dtm {

Hypercube::Hypercube(std::size_t dim_in) : dim(dim_in) {
  DTM_REQUIRE(dim >= 1 && dim <= 24, "hypercube dimension out of [1,24]");
  // Flipping a set bit lowers the id, flipping a clear one raises it: set
  // bits from the highest down, then clear bits from the lowest up, give
  // the row in ascending id order.
  graph = Graph::from_rows(
      num_nodes(), 1, [dim = dim](NodeId) { return dim; },
      [dim = dim](NodeId u, RowWriter& out) {
        for (std::size_t bit = dim; bit-- > 0;) {
          const NodeId mask = NodeId{1} << bit;
          if (u & mask) out.add(u ^ mask, 1);
        }
        for (std::size_t bit = 0; bit < dim; ++bit) {
          const NodeId mask = NodeId{1} << bit;
          if (!(u & mask)) out.add(u ^ mask, 1);
        }
      },
      FamilyKey{TopologyKind::kHypercube, {dim}});
}

}  // namespace dtm
