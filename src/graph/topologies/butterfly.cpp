#include "graph/topologies/butterfly.hpp"

#include <algorithm>

namespace dtm {

Butterfly::Butterfly(std::size_t dim_in) : dim(dim_in) {
  DTM_REQUIRE(dim >= 1 && dim <= 16, "butterfly dimension out of [1,16]");
  // Node (l, r) meets level l − 1 at rows r and r ^ 2^(l−1) and level
  // l + 1 at rows r and r ^ 2^l; the row lists each pair in ascending order.
  graph = Graph::from_rows(
      num_nodes(), 1,
      [dim = dim](NodeId v) {
        const std::size_t l = Butterfly::level_of(dim, v);
        return 2 * (std::size_t{l > 0} + (l < dim));
      },
      [dim = dim](NodeId v, RowWriter& out) {
        const std::size_t l = Butterfly::level_of(dim, v);
        const std::size_t r = Butterfly::row_of(dim, v);
        const auto add_pair = [&](std::size_t level, std::size_t bit) {
          const std::size_t flipped = r ^ (std::size_t{1} << bit);
          out.add(Butterfly::node_at(dim, level, std::min(r, flipped)), 1);
          out.add(Butterfly::node_at(dim, level, std::max(r, flipped)), 1);
        };
        if (l > 0) add_pair(l - 1, l - 1);
        if (l < dim) add_pair(l + 1, l);
      },
      FamilyKey{TopologyKind::kButterfly, {dim}});
}

}  // namespace dtm
