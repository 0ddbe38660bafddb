#include "graph/shortest_paths.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <mutex>
#include <optional>

#include "util/parallel_for.hpp"
#include "util/thread_pool.hpp"

namespace dtm {

namespace {

constexpr std::uint32_t kNoHeapPos = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kUnreachable32 =
    std::numeric_limits<std::uint32_t>::max();

}  // namespace

std::vector<NodeId> ShortestPathTree::path_to(NodeId target) const {
  DTM_REQUIRE(target < dist.size(), "path_to: target out of range");
  DTM_REQUIRE(dist[target] < kInfiniteWeight,
              "path_to: target " << target << " unreachable from " << source);
  std::vector<NodeId> path;
  for (NodeId v = target; v != kInvalidNode; v = parent[v]) {
    path.push_back(v);
    DTM_ASSERT(path.size() <= dist.size());  // parent chain must be acyclic
  }
  std::reverse(path.begin(), path.end());
  DTM_ASSERT(path.front() == source);
  return path;
}

// ---------------------------------------------------------------------------
// PackedGraph

bool PackedGraph::fits(const Graph& g) {
  const std::size_t arcs = 2 * g.num_edges();
  if (arcs >= kNoHeapPos) return false;
  // n * max_weight bounds every finite distance plus one further relaxation,
  // so 32-bit additions in the kernel cannot wrap and every finite value
  // stays below the kUnreachable32 sentinel.
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  const auto w = static_cast<std::uint64_t>(std::max<Weight>(g.max_weight(), 1));
  return n * w < kUnreachable32;
}

PackedGraph::PackedGraph(const Graph& g) {
  DTM_REQUIRE(fits(g), "PackedGraph: distances may overflow the 32-bit kernel");
  const std::size_t n = g.num_nodes();
  const auto node_bits = static_cast<std::uint32_t>(
      std::bit_width(static_cast<std::uint32_t>(n - 1)));
  const auto weight_bits = static_cast<std::uint32_t>(
      std::bit_width(static_cast<std::uint64_t>(g.max_weight())));
  if (g.unit_weights()) {
    layout_ = Layout::kUnit;
  } else if (node_bits + weight_bits <= 32) {
    layout_ = Layout::kFused;
    shift_ = node_bits;
  } else {
    layout_ = Layout::kSplit;
  }
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  std::size_t arcs = 0;
  for (NodeId u = 0; u < n; ++u) {
    arcs += g.degree(u);
    offsets_[u + 1] = static_cast<std::uint32_t>(arcs);
  }
  arcs_.resize(arcs);
  if (layout_ == Layout::kSplit) weights_.resize(arcs);
  const Graph::Adjacency adj = g.adjacency();
  std::size_t idx = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const Arc& a : adj.neighbors(u)) {
      const auto w = static_cast<std::uint32_t>(a.weight);
      switch (layout_) {
        case Layout::kUnit:
          arcs_[idx] = a.to;
          break;
        case Layout::kFused:
          arcs_[idx] = (w << shift_) | a.to;
          break;
        case Layout::kSplit:
          arcs_[idx] = a.to;
          weights_[idx] = w;
          break;
      }
      ++idx;
    }
  }
}

// ---------------------------------------------------------------------------
// DijkstraWorkspace: indexed 4-ary heap

void DijkstraWorkspace::heap_reset(std::size_t n) {
  heap_.resize(n);
  pos_.assign(n, kNoHeapPos);
  heap_size_ = 0;
}

template <typename Key>
void DijkstraWorkspace::heap_sift_up(std::size_t i, const Key* key) {
  const NodeId v = heap_[i];
  const Key kv = key[v];
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    const NodeId pv = heap_[p];
    if (key[pv] <= kv) break;
    heap_[i] = pv;
    pos_[pv] = static_cast<std::uint32_t>(i);
    i = p;
  }
  heap_[i] = v;
  pos_[v] = static_cast<std::uint32_t>(i);
}

template <typename Key>
void DijkstraWorkspace::heap_sift_down(const Key* key) {
  const NodeId v = heap_[0];
  const Key kv = key[v];
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= heap_size_) break;
    const std::size_t last = std::min(first + 4, heap_size_);
    std::size_t best = first;
    Key bk = key[heap_[first]];
    for (std::size_t j = first + 1; j < last; ++j) {
      const Key k = key[heap_[j]];
      if (k < bk) {
        bk = k;
        best = j;
      }
    }
    if (bk >= kv) break;
    heap_[i] = heap_[best];
    pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = v;
  pos_[v] = static_cast<std::uint32_t>(i);
}

template <typename Key>
void DijkstraWorkspace::heap_push(NodeId v, const Key* key) {
  heap_[heap_size_] = v;
  pos_[v] = static_cast<std::uint32_t>(heap_size_);
  heap_sift_up(heap_size_++, key);
}

template <typename Key>
NodeId DijkstraWorkspace::heap_pop(const Key* key) {
  const NodeId top = heap_[0];
  pos_[top] = kNoHeapPos;
  --heap_size_;
  if (heap_size_ > 0) {
    heap_[0] = heap_[heap_size_];
    heap_sift_down(key);
  }
  return top;
}

// ---------------------------------------------------------------------------
// Search kernels

void DijkstraWorkspace::run_dijkstra(const Graph& g, NodeId source,
                                     Weight* dist, NodeId* parent) {
  const std::size_t n = g.num_nodes();
  DTM_REQUIRE(source < n, "dijkstra: source out of range");
  const Graph::Adjacency adj = g.adjacency();
  std::fill_n(dist, n, kInfiniteWeight);
  if (parent != nullptr) std::fill_n(parent, n, kInvalidNode);
  heap_reset(n);
  dist[source] = 0;
  heap_push(source, dist);
  while (heap_size_ > 0) {
    const NodeId u = heap_pop(dist);
    const Weight du = dist[u];
    for (const Arc& a : adj.neighbors(u)) {
      const Weight nd = du + a.weight;
      if (nd < dist[a.to]) {
        dist[a.to] = nd;
        if (parent != nullptr) parent[a.to] = u;
        if (pos_[a.to] == kNoHeapPos) {
          heap_push(a.to, dist);
        } else {
          heap_sift_up(pos_[a.to], dist);
        }
      }
    }
  }
}

void DijkstraWorkspace::run_bfs(const Graph& g, NodeId source, Weight* dist,
                                NodeId* parent) {
  const std::size_t n = g.num_nodes();
  DTM_REQUIRE(source < n, "bfs: source out of range");
  DTM_REQUIRE(g.unit_weights(), "bfs requires unit edge weights");
  const Graph::Adjacency adj = g.adjacency();
  std::fill_n(dist, n, kInfiniteWeight);
  if (parent != nullptr) std::fill_n(parent, n, kInvalidNode);
  fifo_.clear();
  fifo_.push_back(source);
  dist[source] = 0;
  for (std::size_t head = 0; head < fifo_.size(); ++head) {
    const NodeId u = fifo_[head];
    for (const Arc& a : adj.neighbors(u)) {
      if (dist[a.to] == kInfiniteWeight) {
        dist[a.to] = dist[u] + 1;
        if (parent != nullptr) parent[a.to] = u;
        fifo_.push_back(a.to);
      }
    }
  }
}

void DijkstraWorkspace::run(const Graph& g, NodeId source, Weight* dist,
                            NodeId* parent) {
  if (g.unit_weights()) {
    run_bfs(g, source, dist, parent);
  } else {
    run_dijkstra(g, source, dist, parent);
  }
}

void DijkstraWorkspace::run(const PackedGraph& g, NodeId source, Weight* dist) {
  const std::size_t n = g.num_nodes();
  DTM_REQUIRE(source < n, "dijkstra: source out of range");
  dist32_.assign(n, kUnreachable32);
  std::uint32_t* d = dist32_.data();
  const std::uint32_t* arcs = g.arcs_.data();
  const std::uint32_t* off = g.offsets_.data();
  d[source] = 0;
  if (g.layout_ == PackedGraph::Layout::kUnit) {
    fifo_.clear();
    fifo_.push_back(source);
    for (std::size_t head = 0; head < fifo_.size(); ++head) {
      const NodeId u = fifo_[head];
      const std::uint32_t nd = d[u] + 1;
      for (std::uint32_t k = off[u]; k < off[u + 1]; ++k) {
        const NodeId to = arcs[k];
        if (d[to] == kUnreachable32) {
          d[to] = nd;
          fifo_.push_back(to);
        }
      }
    }
  } else {
    heap_reset(n);
    heap_push(source, d);
    // One heap loop, two arc decoders: fused arcs carry the weight in the
    // same word as the target, split arcs read a parallel weight array.
    const auto run_heap = [&](const auto& arc_to, const auto& arc_weight) {
      while (heap_size_ > 0) {
        const NodeId u = heap_pop(d);
        const std::uint32_t du = d[u];
        for (std::uint32_t k = off[u]; k < off[u + 1]; ++k) {
          const NodeId to = arc_to(k);
          const std::uint32_t nd = du + arc_weight(k);
          if (nd < d[to]) {
            d[to] = nd;
            if (pos_[to] == kNoHeapPos) {
              heap_push(to, d);
            } else {
              heap_sift_up(pos_[to], d);
            }
          }
        }
      }
    };
    if (g.layout_ == PackedGraph::Layout::kFused) {
      const std::uint32_t shift = g.shift_;
      const std::uint32_t mask = (std::uint32_t{1} << shift) - 1;
      run_heap([&](std::uint32_t k) { return arcs[k] & mask; },
               [&](std::uint32_t k) { return arcs[k] >> shift; });
    } else {
      const std::uint32_t* wt = g.weights_.data();
      run_heap([&](std::uint32_t k) { return arcs[k]; },
               [&](std::uint32_t k) { return wt[k]; });
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    dist[i] = d[i] == kUnreachable32 ? kInfiniteWeight
                                     : static_cast<Weight>(d[i]);
  }
}

// ---------------------------------------------------------------------------
// Free functions

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  const std::size_t n = g.num_nodes();
  DTM_REQUIRE(source < n, "dijkstra: source out of range");
  ShortestPathTree t;
  t.source = source;
  t.dist.resize(n);
  t.parent.resize(n);
  DijkstraWorkspace ws;
  ws.run_dijkstra(g, source, t.dist.data(), t.parent.data());
  return t;
}

ShortestPathTree bfs(const Graph& g, NodeId source) {
  const std::size_t n = g.num_nodes();
  DTM_REQUIRE(source < n, "bfs: source out of range");
  ShortestPathTree t;
  t.source = source;
  t.dist.resize(n);
  t.parent.resize(n);
  DijkstraWorkspace ws;
  ws.run_bfs(g, source, t.dist.data(), t.parent.data());
  return t;
}

ShortestPathTree single_source(const Graph& g, NodeId source) {
  return g.unit_weights() ? bfs(g, source) : dijkstra(g, source);
}

Weight distance(const Graph& g, NodeId u, NodeId v) {
  DTM_REQUIRE(u < g.num_nodes() && v < g.num_nodes(),
              "distance: node out of range");
  if (u == v) return 0;
  return single_source(g, u).dist[v];
}

Weight diameter(const Graph& g) {
  DTM_REQUIRE(g.connected(), "diameter requires a connected graph");
  const std::size_t n = g.num_nodes();
  std::optional<PackedGraph> packed;
  if (PackedGraph::fits(g)) packed.emplace(g);
  std::mutex mu;
  Weight best = 0;
  parallel_for_blocks(shared_pool(), n, [&](std::size_t begin,
                                            std::size_t end) {
    DijkstraWorkspace ws;
    std::vector<Weight> dist(n);
    Weight local = 0;
    for (std::size_t u = begin; u < end; ++u) {
      if (packed) {
        ws.run(*packed, static_cast<NodeId>(u), dist.data());
      } else {
        ws.run(g, static_cast<NodeId>(u), dist.data());
      }
      for (Weight d : dist) local = std::max(local, d);
    }
    std::lock_guard lock(mu);
    best = std::max(best, local);
  });
  return best;
}

}  // namespace dtm
