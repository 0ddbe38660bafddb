#include "graph/topologies/star.hpp"

#include <algorithm>
#include <bit>

namespace dtm {

Star::Star(std::size_t alpha_in, std::size_t beta_in)
    : alpha(alpha_in), beta(beta_in) {
  DTM_REQUIRE(alpha >= 1, "star needs at least one ray");
  DTM_REQUIRE(beta >= 1, "rays need at least one node");
  // The center's row is the first node of every ray; a ray node's row is
  // its inner neighbor (the center at position 1), then its outer one.
  graph = Graph::from_rows(
      checked_node_count(alpha, beta) + 1, 1,
      [alpha = alpha, beta = beta](NodeId v) -> std::size_t {
        return v == 0 ? alpha : 1 + (Star::pos_of(beta, v) < beta);
      },
      [alpha = alpha, beta = beta](NodeId v, RowWriter& out) {
        if (v == 0) {
          for (std::size_t r = 0; r < alpha; ++r) {
            out.add(Star::node_at(beta, r, 1), 1);
          }
          return;
        }
        const std::size_t ray = Star::ray_of(beta, v);
        const std::size_t pos = Star::pos_of(beta, v);
        out.add(pos == 1 ? 0 : Star::node_at(beta, ray, pos - 1), 1);
        if (pos < beta) out.add(Star::node_at(beta, ray, pos + 1), 1);
      },
      FamilyKey{TopologyKind::kStar, {alpha, beta}});
}

std::size_t Star::num_segments() const {
  // ⌈log2 β⌉ with the convention that β = 1 still forms one segment.
  return std::max<std::size_t>(1, std::bit_width(beta - 1));
}

std::size_t Star::segment_of_pos(std::size_t pos) const {
  DTM_ASSERT(pos >= 1 && pos <= beta);
  // pos in [2^{i-1}, 2^i - 1] => i; the final segment absorbs everything up
  // to β (the paper: "the last segment may be truncated"/extended, holding
  // no more than β/2 + 1 nodes).
  return std::min(static_cast<std::size_t>(std::bit_width(pos)),
                  num_segments());
}

std::pair<std::size_t, std::size_t> Star::segment_range(
    std::size_t segment) const {
  DTM_ASSERT(segment >= 1 && segment <= num_segments());
  const std::size_t first = std::size_t{1} << (segment - 1);
  const std::size_t last = segment == num_segments()
                               ? beta
                               : (std::size_t{1} << segment) - 1;
  DTM_ASSERT(last <= beta);
  return {first, last};
}

Weight Star::distance_for(std::size_t beta, NodeId u, NodeId v) {
  if (u == v) return 0;
  const auto pos = [beta](NodeId x) {
    return static_cast<Weight>(pos_of(beta, x));
  };
  if (u == 0) return pos(v);
  if (v == 0) return pos(u);
  if (ray_of(beta, u) == ray_of(beta, v)) {
    const Weight pu = pos(u), pv = pos(v);
    return pu > pv ? pu - pv : pv - pu;
  }
  return pos(u) + pos(v);
}

}  // namespace dtm
