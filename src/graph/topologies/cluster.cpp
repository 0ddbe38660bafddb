#include "graph/topologies/cluster.hpp"

namespace dtm {

ClusterGraph::ClusterGraph(std::size_t alpha_in, std::size_t beta_in,
                           Weight gamma_in)
    : alpha(alpha_in), beta(beta_in), gamma(gamma_in) {
  DTM_REQUIRE(alpha >= 1, "cluster graph needs at least one cluster");
  DTM_REQUIRE(beta >= 1, "clusters need at least one node");
  DTM_REQUIRE(gamma >= 1, "bridge weight must be positive");
  // Row of node v in cluster c: the bridges of clusters before c (weight
  // γ, bridges only), the rest of cluster c (weight 1), then the bridges
  // of clusters after c — already in ascending id order.
  graph = Graph::from_rows(
      checked_node_count(alpha, beta),
      alpha > 1 ? gamma : static_cast<Weight>(beta > 1),
      [alpha = alpha, beta = beta](NodeId v) {
        return (beta - 1) +
               (ClusterGraph::is_bridge(beta, v) ? alpha - 1 : 0);
      },
      [alpha = alpha, beta = beta, gamma = gamma](NodeId v, RowWriter& out) {
        const std::size_t c = ClusterGraph::cluster_of(beta, v);
        const bool bridge = ClusterGraph::is_bridge(beta, v);
        if (bridge) {
          for (std::size_t d = 0; d < c; ++d) {
            out.add(ClusterGraph::bridge_of(beta, d), gamma);
          }
        }
        for (std::size_t i = 0; i < beta; ++i) {
          const NodeId w = ClusterGraph::node_at(beta, c, i);
          if (w != v) out.add(w, 1);
        }
        if (bridge) {
          for (std::size_t d = c + 1; d < alpha; ++d) {
            out.add(ClusterGraph::bridge_of(beta, d), gamma);
          }
        }
      },
      FamilyKey{TopologyKind::kCluster,
                {alpha, beta, static_cast<std::uint64_t>(gamma)}});
}

}  // namespace dtm
