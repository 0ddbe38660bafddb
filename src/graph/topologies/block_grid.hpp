// Lower-bound grid construction (§8.1, Fig. 5): an s × s√s grid of nodes
// (s rows, s·√s columns) divided into s blocks H_1..H_s of s rows × √s
// columns each. Edges inside a block are the usual unit-weight mesh edges;
// adjacent blocks are joined row-wise by horizontal edges of weight s.
//
// Requires s to be a perfect square (so √s is an integer), per the paper's
// simplifying assumption. Total nodes n = s^{5/2}.
//
// Design note (DESIGN.md §4.8): the paper says adjacent blocks are
// "connected ... through horizontal edges of weight s between two neighbor
// nodes"; we join *every* row's boundary pair, which matches Fig. 5 and
// only shortens inter-block distances to exactly s, preserving the
// lower-bound argument (it needs inter-block distance ≥ s).
#pragma once

#include "graph/graph.hpp"

namespace dtm {

struct BlockGrid {
  explicit BlockGrid(std::size_t s);

  std::size_t s;        // number of blocks; also rows per block
  std::size_t sqrt_s;   // block width
  std::size_t rows;     // = s
  std::size_t cols;     // = s * sqrt_s
  Graph graph;

  std::size_t num_nodes() const { return rows * cols; }

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

  /// 0-based block index of a node (paper's H_{i+1}).
  std::size_t block_of(NodeId v) const { return col_of(v) / sqrt_s; }
  /// Top-left node of block i (paper's initial location of objects in A
  /// when i == 0).
  NodeId block_top_left(std::size_t block) const {
    DTM_ASSERT(block < s);
    return node_at(0, block * sqrt_s);
  }
  /// All nodes of block i, row-major.
  std::vector<NodeId> block_nodes(std::size_t block) const;

  /// Closed-form shortest distance: Manhattan distance plus an extra s − 1
  /// per block boundary crossed. Vertical steps cost 1 in every column and
  /// a horizontal step costs 1 except across a boundary (weight s), so a
  /// monotone path crossing each boundary exactly once is optimal.
  static Weight distance_for(std::size_t s, std::size_t sqrt_s,
                             std::size_t cols, NodeId u, NodeId v) {
    const auto diff = [](std::size_t a, std::size_t b) {
      return static_cast<Weight>(a > b ? a - b : b - a);
    };
    const std::size_t cu = u % cols, cv = v % cols;
    return diff(u / cols, v / cols) + diff(cu, cv) +
           static_cast<Weight>(s - 1) * diff(cu / sqrt_s, cv / sqrt_s);
  }
  Weight block_grid_distance(NodeId u, NodeId v) const {
    return distance_for(s, sqrt_s, cols, u, v);
  }
};

}  // namespace dtm
