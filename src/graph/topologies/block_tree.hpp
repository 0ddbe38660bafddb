// Lower-bound tree construction (§8.2, Fig. 6): same node layout as
// BlockGrid (s blocks of s rows × √s columns), but each block is a tree —
// its leftmost column is a connected spine and each row is a path attached
// to that spine. Adjacent blocks are joined by a single weight-s edge
// between their topmost-row boundary nodes, so the whole graph is a tree.
#pragma once

#include "graph/graph.hpp"

namespace dtm {

struct BlockTree {
  explicit BlockTree(std::size_t s);

  std::size_t s;
  std::size_t sqrt_s;
  std::size_t rows;
  std::size_t cols;
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
  std::size_t block_of(NodeId v) const { return col_of(v) / sqrt_s; }
  NodeId block_top_left(std::size_t block) const {
    DTM_ASSERT(block < s);
    return node_at(0, block * sqrt_s);
  }
  std::vector<NodeId> block_nodes(std::size_t block) const;

  /// Closed-form shortest distance along the unique tree path. In-block:
  /// same-row nodes walk the row; different rows route through the spine
  /// (leftmost column). Cross-block: exit through the top-right node, pay
  /// the weight-s inter-block edge per boundary plus the top-row traversal
  /// (√s − 1) of every intermediate block, and descend from the next
  /// block's spine top.
  static Weight distance_for(std::size_t s, std::size_t sqrt_s,
                             std::size_t cols, NodeId u, NodeId v);
  Weight block_tree_distance(NodeId u, NodeId v) const {
    return distance_for(s, sqrt_s, cols, u, v);
  }
};

}  // namespace dtm
