// (d+1)-level butterfly network with unit weights (§3.1): nodes are
// (level, row) with level in [0, d] and row in [0, 2^d); node (l, r) is
// joined to (l+1, r) (straight edge) and (l+1, r ^ 2^l) (cross edge).
// Diameter Θ(d) = Θ(log n).
#pragma once

#include "graph/graph.hpp"

namespace dtm {

struct Butterfly {
  explicit Butterfly(std::size_t dim);

  std::size_t dim;
  Graph graph;

  std::size_t rows() const { return rows(dim); }
  std::size_t levels() const { return dim + 1; }
  std::size_t num_nodes() const { return levels() * rows(); }

  NodeId node_at(std::size_t level, std::size_t row) const {
    DTM_ASSERT(level < levels() && row < rows());
    return node_at(dim, level, row);
  }
  std::size_t level_of(NodeId v) const { return level_of(dim, v); }
  std::size_t row_of(NodeId v) const { return row_of(dim, v); }

  // The layout as functions of the family parameters alone, for code that
  // outlives this object (the graph's row source).
  static std::size_t rows(std::size_t dim) { return std::size_t{1} << dim; }
  static NodeId node_at(std::size_t dim, std::size_t level, std::size_t row) {
    return static_cast<NodeId>(level * rows(dim) + row);
  }
  static std::size_t level_of(std::size_t dim, NodeId v) {
    return v / rows(dim);
  }
  static std::size_t row_of(std::size_t dim, NodeId v) { return v % rows(dim); }
};

}  // namespace dtm
