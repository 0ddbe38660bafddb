#include "graph/topologies/block_tree.hpp"

#include <cmath>
#include <utility>

namespace dtm {

namespace {
std::size_t integer_sqrt(std::size_t s) {
  auto r = static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(s))));
  DTM_REQUIRE(r * r == s, "block tree requires a perfect-square s, got " << s);
  return r;
}
}  // namespace

BlockTree::BlockTree(std::size_t s_in)
    : s(s_in),
      sqrt_s(integer_sqrt(s_in)),
      rows(s_in),
      cols(checked_node_count(s_in, sqrt_s)) {
  DTM_REQUIRE(s >= 1, "block tree needs s >= 1");
  // Inside a block, rows are paths and the leftmost column is the spine.
  // The weight-s edges join a block's top-right node to the next block's
  // top-left one. Row of (r, c) in ascending id order: spine up, left,
  // right, spine down.
  // The helpers capture by value: the row source outlives this object.
  const auto on_spine = [w = sqrt_s](std::size_t c) { return c % w == 0; };
  const auto on_right_edge = [w = sqrt_s](std::size_t c) {
    return (c + 1) % w == 0;
  };
  const auto has_left = [on_spine](std::size_t r, std::size_t c) {
    return !on_spine(c) || (r == 0 && c > 0);
  };
  const auto has_right = [on_right_edge, cols = cols](std::size_t r,
                                                      std::size_t c) {
    return !on_right_edge(c) || (r == 0 && c + 1 < cols);
  };
  const auto weight_s = static_cast<Weight>(s);
  // s = 1 is a single node with no edges.
  graph = Graph::from_rows(
      checked_node_count(rows, cols), s > 1 ? weight_s : 0,
      [on_spine, has_left, has_right, rows = rows, cols = cols](NodeId v) {
        const std::size_t r = BlockTree::row_of(cols, v);
        const std::size_t c = BlockTree::col_of(cols, v);
        return std::size_t{on_spine(c) && r > 0} + has_left(r, c) +
               has_right(r, c) + (on_spine(c) && r + 1 < rows);
      },
      [on_spine, on_right_edge, has_left, has_right, weight_s, rows = rows,
       cols = cols](NodeId v, RowWriter& out) {
        const std::size_t r = BlockTree::row_of(cols, v);
        const std::size_t c = BlockTree::col_of(cols, v);
        const auto at = [cols](std::size_t row, std::size_t col) {
          return BlockTree::node_at(cols, row, col);
        };
        if (on_spine(c) && r > 0) out.add(at(r - 1, c), 1);
        if (has_left(r, c)) out.add(at(r, c - 1), on_spine(c) ? weight_s : 1);
        if (has_right(r, c)) {
          out.add(at(r, c + 1), on_right_edge(c) ? weight_s : 1);
        }
        if (on_spine(c) && r + 1 < rows) out.add(at(r + 1, c), 1);
      },
      FamilyKey{TopologyKind::kBlockTree, {s}});
}

Weight BlockTree::distance_for(std::size_t s, std::size_t sqrt_s,
                               std::size_t cols, NodeId u, NodeId v) {
  std::size_t r1 = u / cols, c1 = u % cols;
  std::size_t r2 = v / cols, c2 = v % cols;
  std::size_t b1 = c1 / sqrt_s, b2 = c2 / sqrt_s;
  if (b1 == b2) {
    if (r1 == r2) return static_cast<Weight>(c1 > c2 ? c1 - c2 : c2 - c1);
    // Through the spine: along each row to the block's leftmost column,
    // then down the spine.
    const std::size_t c0 = b1 * sqrt_s;
    return static_cast<Weight>((c1 - c0) + (c2 - c0) +
                               (r1 > r2 ? r1 - r2 : r2 - r1));
  }
  if (b1 > b2) {
    std::swap(r1, r2);
    std::swap(c1, c2);
    std::swap(b1, b2);
  }
  // Exit block b1 at its top-right node (0, c0 + √s − 1): row-0 nodes walk
  // the top row, everyone else backtracks to the spine and climbs first.
  const std::size_t exit_col = b1 * sqrt_s + sqrt_s - 1;
  const Weight to_exit =
      r1 == 0 ? static_cast<Weight>(exit_col - c1)
              : static_cast<Weight>((c1 - b1 * sqrt_s) + r1 + (sqrt_s - 1));
  // Enter block b2 at its spine top (0, b2·√s), then descend and walk row r2.
  const Weight from_entry = static_cast<Weight>(r2 + (c2 - b2 * sqrt_s));
  const auto hops = static_cast<Weight>(b2 - b1);
  return to_exit + from_entry + hops * static_cast<Weight>(s) +
         (hops - 1) * static_cast<Weight>(sqrt_s - 1);
}

std::vector<NodeId> BlockTree::block_nodes(std::size_t block) const {
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
