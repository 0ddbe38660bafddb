#include "graph/topologies/block_grid.hpp"

#include <cmath>

namespace dtm {

namespace {
std::size_t integer_sqrt(std::size_t s) {
  auto r = static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(s))));
  DTM_REQUIRE(r * r == s, "block grid requires a perfect-square s, got " << s);
  return r;
}
}  // namespace

BlockGrid::BlockGrid(std::size_t s_in)
    : s(s_in),
      sqrt_s(integer_sqrt(s_in)),
      rows(s_in),
      cols(checked_node_count(s_in, sqrt_s)) {
  DTM_REQUIRE(s >= 1, "block grid needs s >= 1");
  // Row of (r, c) in ascending id order: up, left, right, down. s = 1 is
  // a single node with no edges.
  graph = Graph::from_rows(
      checked_node_count(rows, cols), s > 1 ? static_cast<Weight>(s) : 0,
      [rows = rows, cols = cols](NodeId v) {
        const std::size_t r = BlockGrid::row_of(cols, v);
        const std::size_t c = BlockGrid::col_of(cols, v);
        return std::size_t{r > 0} + (c > 0) + (c + 1 < cols) +
               (r + 1 < rows);
      },
      [s = s, sqrt_s = sqrt_s, rows = rows, cols = cols](NodeId v,
                                                         RowWriter& out) {
        // A horizontal edge {c, c+1} weighs s when it crosses a block
        // boundary.
        const auto right_weight = [&](std::size_t c) {
          return (c + 1) % sqrt_s == 0 ? static_cast<Weight>(s) : 1;
        };
        const std::size_t r = BlockGrid::row_of(cols, v);
        const std::size_t c = BlockGrid::col_of(cols, v);
        if (r > 0) out.add(BlockGrid::node_at(cols, r - 1, c), 1);
        if (c > 0) {
          out.add(BlockGrid::node_at(cols, r, c - 1), right_weight(c - 1));
        }
        if (c + 1 < cols) {
          out.add(BlockGrid::node_at(cols, r, c + 1), right_weight(c));
        }
        if (r + 1 < rows) out.add(BlockGrid::node_at(cols, r + 1, c), 1);
      },
      FamilyKey{TopologyKind::kBlockGrid, {s}});
}

std::vector<NodeId> BlockGrid::block_nodes(std::size_t block) const {
  DTM_ASSERT(block < s);
  std::vector<NodeId> out;
  out.reserve(rows * sqrt_s);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = block * sqrt_s; c < (block + 1) * sqrt_s; ++c) {
      out.push_back(node_at(r, c));
    }
  }
  return out;
}

}  // namespace dtm
