// Cluster graph (§6, Fig. 3): α cliques ("clusters") of β nodes each, unit
// weights inside a cluster. Each cluster designates node 0 as its bridge;
// every pair of bridges is joined by an edge of weight γ. The paper's
// analysis assumes γ ≥ β ("clusters far apart"); the builder allows any
// γ ≥ 1 and exposes the parameters so schedulers can check the assumption.
#pragma once

#include "graph/graph.hpp"

namespace dtm {

struct ClusterGraph {
  ClusterGraph(std::size_t alpha, std::size_t beta, Weight gamma);

  std::size_t alpha;  // number of clusters
  std::size_t beta;   // nodes per cluster
  Weight gamma;       // bridge-edge weight
  Graph graph;

  std::size_t num_nodes() const { return alpha * beta; }

  NodeId node_at(std::size_t cluster, std::size_t i) const {
    DTM_ASSERT(cluster < alpha && i < beta);
    return node_at(beta, cluster, i);
  }
  std::size_t cluster_of(NodeId v) const { return cluster_of(beta, v); }
  NodeId bridge_of(std::size_t cluster) const { return node_at(cluster, 0); }
  bool is_bridge(NodeId v) const { return is_bridge(beta, v); }

  // The layout as functions of the family parameters alone, for code that
  // outlives this object (the graph's row source).
  static NodeId node_at(std::size_t beta, std::size_t cluster, std::size_t i) {
    return static_cast<NodeId>(cluster * beta + i);
  }
  static std::size_t cluster_of(std::size_t beta, NodeId v) { return v / beta; }
  static NodeId bridge_of(std::size_t beta, std::size_t cluster) {
    return node_at(beta, cluster, 0);
  }
  static bool is_bridge(std::size_t beta, NodeId v) { return v % beta == 0; }

  /// Closed-form shortest distance (1 inside a cluster; through the two
  /// bridges otherwise).
  static Weight distance_for(std::size_t beta, Weight gamma, NodeId u,
                             NodeId v) {
    if (u == v) return 0;
    if (u / beta == v / beta) return 1;
    Weight d = gamma;
    if (u % beta != 0) d += 1;
    if (v % beta != 0) d += 1;
    return d;
  }
  Weight cluster_distance(NodeId u, NodeId v) const {
    return distance_for(beta, gamma, u, v);
  }
};

}  // namespace dtm
