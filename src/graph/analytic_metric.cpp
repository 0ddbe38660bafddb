#include "graph/analytic_metric.hpp"

#include "graph/topologies/detect.hpp"
#include "util/metrics.hpp"

namespace dtm {

namespace {

MetricCounter& distance_queries() {
  static MetricCounter& c = metrics::counter("metric.distance_queries");
  return c;
}

MetricCounter& path_queries() {
  static MetricCounter& c = metrics::counter("metric.path_queries");
  return c;
}

}  // namespace

Weight AnalyticMetric::closed_form(NodeId u, NodeId v) const {
  DTM_ASSERT(u < num_nodes() && v < num_nodes());
  switch (kind_) {
    case TopologyKind::kLine:
      return Line::line_distance(u, v);
    case TopologyKind::kGrid:
      return Grid::distance_for(a_, u, v);
    case TopologyKind::kCluster:
      return ClusterGraph::distance_for(a_, w_, u, v);
    case TopologyKind::kStar:
      return Star::distance_for(a_, u, v);
    case TopologyKind::kClique:
      return u == v ? 0 : 1;
    case TopologyKind::kHypercube:
      return Hypercube::cube_distance(u, v);
    case TopologyKind::kBlockGrid:
      return BlockGrid::distance_for(a_, b_, a_ * b_, u, v);
    case TopologyKind::kBlockTree:
      return BlockTree::distance_for(a_, b_, a_ * b_, u, v);
    default:
      DTM_REQUIRE(false, "no closed form for topology kind "
                             << to_string(kind_));
  }
}

Weight AnalyticMetric::distance(NodeId u, NodeId v) const {
  distance_queries().add();
  return closed_form(u, v);
}

void AnalyticMetric::distances(NodeId from, std::span<const NodeId> targets,
                               Weight* out) const {
  distance_queries().add(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i] = closed_form(from, targets[i]);
  }
}

std::vector<NodeId> AnalyticMetric::path(NodeId u, NodeId v) const {
  path_queries().add();
  // The same greedy descent as DenseMetric::path — first neighbor in CSR
  // order whose remaining distance plus the arc weight matches — so the two
  // metrics return byte-identical paths on the same graph.
  std::vector<NodeId> out = {u};
  NodeId cur = u;
  while (cur != v) {
    const Weight remaining = closed_form(cur, v);
    NodeId next = kInvalidNode;
    for (const Arc& a : graph().neighbors(cur)) {
      if (closed_form(a.to, v) + a.weight == remaining) {
        next = a.to;
        break;
      }
    }
    DTM_ASSERT_MSG(next != kInvalidNode,
                   "no descent neighbor from " << cur << " toward " << v);
    out.push_back(next);
    cur = next;
  }
  return out;
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const Line& t) {
  return std::unique_ptr<AnalyticMetric>(
      new AnalyticMetric(t.graph, TopologyKind::kLine));
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const Grid& t) {
  return std::unique_ptr<AnalyticMetric>(
      new AnalyticMetric(t.graph, TopologyKind::kGrid, t.cols));
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const ClusterGraph& t) {
  return std::unique_ptr<AnalyticMetric>(new AnalyticMetric(
      t.graph, TopologyKind::kCluster, t.beta, 0, t.gamma));
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const Star& t) {
  return std::unique_ptr<AnalyticMetric>(
      new AnalyticMetric(t.graph, TopologyKind::kStar, t.beta));
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const Clique& t) {
  return std::unique_ptr<AnalyticMetric>(
      new AnalyticMetric(t.graph, TopologyKind::kClique));
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const Hypercube& t) {
  return std::unique_ptr<AnalyticMetric>(
      new AnalyticMetric(t.graph, TopologyKind::kHypercube));
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const BlockGrid& t) {
  return std::unique_ptr<AnalyticMetric>(
      new AnalyticMetric(t.graph, TopologyKind::kBlockGrid, t.s, t.sqrt_s));
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const BlockTree& t) {
  return std::unique_ptr<AnalyticMetric>(
      new AnalyticMetric(t.graph, TopologyKind::kBlockTree, t.s, t.sqrt_s));
}

std::unique_ptr<AnalyticMetric> make_analytic_metric(const Graph& g) {
  // Same canonical order as detect_topology. The recovered candidate owns a
  // rebuilt copy of the graph; the metric aliases the caller's `g` (equal by
  // the recovery certificate), so the candidate is free to die here.
  if (recover_line(g)) {
    return std::unique_ptr<AnalyticMetric>(
        new AnalyticMetric(g, TopologyKind::kLine));
  }
  if (const auto t = recover_grid(g)) {
    return std::unique_ptr<AnalyticMetric>(
        new AnalyticMetric(g, TopologyKind::kGrid, t->cols));
  }
  if (const auto t = recover_cluster(g)) {
    return std::unique_ptr<AnalyticMetric>(new AnalyticMetric(
        g, TopologyKind::kCluster, t->beta, 0, t->gamma));
  }
  if (const auto t = recover_star(g)) {
    return std::unique_ptr<AnalyticMetric>(
        new AnalyticMetric(g, TopologyKind::kStar, t->beta));
  }
  if (recover_clique(g)) {
    return std::unique_ptr<AnalyticMetric>(
        new AnalyticMetric(g, TopologyKind::kClique));
  }
  if (recover_hypercube(g)) {
    return std::unique_ptr<AnalyticMetric>(
        new AnalyticMetric(g, TopologyKind::kHypercube));
  }
  if (const auto t = recover_block_grid(g)) {
    return std::unique_ptr<AnalyticMetric>(
        new AnalyticMetric(g, TopologyKind::kBlockGrid, t->s, t->sqrt_s));
  }
  if (const auto t = recover_block_tree(g)) {
    return std::unique_ptr<AnalyticMetric>(
        new AnalyticMetric(g, TopologyKind::kBlockTree, t->s, t->sqrt_s));
  }
  return nullptr;
}

std::unique_ptr<Metric> make_auto_metric(const Graph& g) {
  if (auto analytic = make_analytic_metric(g)) return analytic;
  return std::make_unique<LazyMetric>(g);
}

}  // namespace dtm
