// Star graph (§7, Fig. 4): a center node s plus α rays, each ray a line of
// β nodes whose tip is adjacent to s. Unit weights. Models hubs,
// multiplexers, concentrators, switches.
//
// A node on a ray is addressed by (ray, pos) with pos in [1, β] equal to
// its distance from the center. The paper partitions positions into
// η = ⌈log2 β⌉ segments; segment i (1-based) holds positions
// [2^{i-1}, 2^i − 1] (the last segment truncated at β).
#pragma once

#include <utility>

#include "graph/graph.hpp"

namespace dtm {

struct Star {
  Star(std::size_t alpha, std::size_t beta);

  std::size_t alpha;  // number of rays
  std::size_t beta;   // nodes per ray
  Graph graph;

  std::size_t num_nodes() const { return alpha * beta + 1; }
  NodeId center() const { return 0; }

  NodeId node_at(std::size_t ray, std::size_t pos) const {
    DTM_ASSERT(ray < alpha && pos >= 1 && pos <= beta);
    return node_at(beta, ray, pos);
  }
  bool is_center(NodeId v) const { return v == 0; }
  std::size_t ray_of(NodeId v) const {
    DTM_ASSERT(v != 0);
    return ray_of(beta, v);
  }
  /// Distance from the center, in [1, β].
  std::size_t pos_of(NodeId v) const {
    DTM_ASSERT(v != 0);
    return pos_of(beta, v);
  }

  // The layout as functions of the family parameters alone, for code that
  // outlives this object (the graph's row source).
  static NodeId node_at(std::size_t beta, std::size_t ray, std::size_t pos) {
    return static_cast<NodeId>(1 + ray * beta + (pos - 1));
  }
  static std::size_t ray_of(std::size_t beta, NodeId v) {
    return (v - 1) / beta;
  }
  static std::size_t pos_of(std::size_t beta, NodeId v) {
    return (v - 1) % beta + 1;
  }

  /// Number of segments η = ⌈log2 β⌉ (at least 1).
  std::size_t num_segments() const;
  /// 1-based segment index of a ray position.
  std::size_t segment_of_pos(std::size_t pos) const;
  /// Position range [first, last] of segment i (1-based), truncated at β.
  std::pair<std::size_t, std::size_t> segment_range(std::size_t segment) const;

  /// Closed-form shortest distance (along rays, through the center).
  static Weight distance_for(std::size_t beta, NodeId u, NodeId v);
  Weight star_distance(NodeId u, NodeId v) const {
    return distance_for(beta, u, v);
  }
};

}  // namespace dtm
