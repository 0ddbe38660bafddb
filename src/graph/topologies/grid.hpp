// 2-D mesh (grid) with unit weights (§5, Fig. 2). Models NoCs / systems on
// chips (XMOS, Xeon Phi). Coordinates are (row, col) with (0,0) at the top
// left, matching the paper's orientation.
#pragma once

#include <cstdlib>

#include "graph/graph.hpp"

namespace dtm {

struct Grid {
  Grid(std::size_t rows, std::size_t cols);

  /// Square n×n grid as in §5.
  explicit Grid(std::size_t n) : Grid(n, n) {}

  std::size_t rows, cols;
  Graph graph;

  NodeId node_at(std::size_t r, std::size_t c) const {
    DTM_ASSERT(r < rows && c < cols);
    return node_at(cols, r, c);
  }
  std::size_t row_of(NodeId v) const { return row_of(cols, v); }
  std::size_t col_of(NodeId v) const { return col_of(cols, v); }

  // The layout as functions of the family parameters alone, for code that
  // outlives this object (the graph's row source).
  static NodeId node_at(std::size_t cols, std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  }
  static std::size_t row_of(std::size_t cols, NodeId v) { return v / cols; }
  static std::size_t col_of(std::size_t cols, NodeId v) { return v % cols; }

  /// Manhattan distance (closed form; equals graph shortest distance).
  static Weight distance_for(std::size_t cols, NodeId u, NodeId v) {
    const auto dr = static_cast<std::int64_t>(u / cols) -
                    static_cast<std::int64_t>(v / cols);
    const auto dc = static_cast<std::int64_t>(u % cols) -
                    static_cast<std::int64_t>(v % cols);
    return std::abs(dr) + std::abs(dc);
  }
  Weight grid_distance(NodeId u, NodeId v) const {
    return distance_for(cols, u, v);
  }
};

}  // namespace dtm
