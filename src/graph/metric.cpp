#include "graph/metric.hpp"

#include <algorithm>
#include <mutex>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace dtm {

namespace {

// Handles are resolved once; add() is a single relaxed atomic (metrics.hpp).
MetricCounter& distance_queries() {
  static MetricCounter& c = metrics::counter("metric.distance_queries");
  return c;
}

MetricCounter& path_queries() {
  static MetricCounter& c = metrics::counter("metric.path_queries");
  return c;
}

}  // namespace

void Metric::distances(NodeId from, std::span<const NodeId> targets,
                       Weight* out) const {
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i] = distance(from, targets[i]);
  }
}

namespace {

// The OOM guard runs before compute_apsp in the member-init list, so the
// refusal happens before any part of the matrix is allocated.
const Graph& check_dense_budget(const Graph& g, std::size_t byte_cap) {
  const std::size_t n = g.num_nodes();
  const std::size_t projected = n * n * sizeof(Weight);
  metrics::counter("metric.dense_bytes").add(projected);
  DTM_REQUIRE(projected <= byte_cap,
              "DenseMetric refused: " << n << "-node matrix needs "
                                      << projected << " bytes > cap "
                                      << byte_cap
                                      << " (use make_auto_metric / "
                                         "LazyMetric for graphs this size)");
  return g;
}

}  // namespace

DenseMetric::DenseMetric(const Graph& g, ThreadPool* pool,
                         std::size_t byte_cap)
    : Metric(check_dense_budget(g, byte_cap)),
      matrix_(compute_apsp(g, pool != nullptr ? pool : &shared_pool())) {}

Weight DenseMetric::distance(NodeId u, NodeId v) const {
  distance_queries().add();
  return matrix_.at(u, v);
}

void DenseMetric::distances(NodeId from, std::span<const NodeId> targets,
                            Weight* out) const {
  distance_queries().add(targets.size());
  const Weight* row = matrix_.row(from);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    DTM_ASSERT(targets[i] < num_nodes());
    out[i] = row[targets[i]];
  }
}

std::vector<NodeId> DenseMetric::path(NodeId u, NodeId v) const {
  path_queries().add();
  DTM_REQUIRE(matrix_.at(u, v) < kInfiniteWeight,
              "path: " << v << " unreachable from " << u);
  // Walk from u to v: repeatedly step to a neighbor w of the current node c
  // with dist(w, v) + weight(c, w) == dist(c, v). Such a neighbor always
  // exists on a shortest path.
  std::vector<NodeId> out = {u};
  NodeId cur = u;
  while (cur != v) {
    const Weight remaining = matrix_.at(cur, v);
    NodeId next = kInvalidNode;
    for (const Arc& a : graph().neighbors(cur)) {
      if (matrix_.at(a.to, v) + a.weight == remaining) {
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

const ShortestPathTree& LazyMetric::tree(NodeId source) const {
  {
    std::shared_lock lock(mu_);
    const auto it = cache_.find(source);
    if (it != cache_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  // Double-check: another thread may have filled this source while we
  // waited for the exclusive lock. The winner runs the search; everyone
  // else reuses its tree, so the sssp-run counter stays deterministic.
  auto it = cache_.find(source);
  if (it == cache_.end()) {
    metrics::count("metric.lazy_sssp_runs");
    it = cache_.emplace(source, single_source(graph(), source)).first;
  }
  return it->second;
}

Weight LazyMetric::distance(NodeId u, NodeId v) const {
  distance_queries().add();
  if (u == v) return 0;
  {
    // Prefer whichever endpoint is already cached to keep the cache small.
    std::shared_lock lock(mu_);
    const auto iu = cache_.find(u);
    if (iu != cache_.end()) return iu->second.dist[v];
    const auto iv = cache_.find(v);
    if (iv != cache_.end()) return iv->second.dist[u];
  }
  return tree(u).dist[v];
}

void LazyMetric::distances(NodeId from, std::span<const NodeId> targets,
                           Weight* out) const {
  distance_queries().add(targets.size());
  const ShortestPathTree& t = tree(from);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i] = t.dist[targets[i]];
  }
}

std::vector<NodeId> LazyMetric::path(NodeId u, NodeId v) const {
  path_queries().add();
  {
    std::shared_lock lock(mu_);
    const auto iu = cache_.find(u);
    if (iu != cache_.end()) return iu->second.path_to(v);
    const auto iv = cache_.find(v);
    if (iv != cache_.end()) {
      auto p = iv->second.path_to(u);
      std::reverse(p.begin(), p.end());
      return p;
    }
  }
  return tree(u).path_to(v);
}

std::size_t LazyMetric::cached_sources() const {
  std::shared_lock lock(mu_);
  return cache_.size();
}

std::unique_ptr<Metric> make_metric(const Graph& g,
                                    std::size_t dense_node_limit,
                                    ThreadPool* pool) {
  if (g.num_nodes() <= dense_node_limit) {
    return std::make_unique<DenseMetric>(g, pool);
  }
  return std::make_unique<LazyMetric>(g);
}

}  // namespace dtm
