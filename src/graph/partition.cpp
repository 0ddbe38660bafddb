#include "graph/partition.hpp"

#include <algorithm>
#include <span>

#include "graph/topologies/detect.hpp"

namespace dtm {

std::vector<std::vector<NodeId>> ShardMap::members() const {
  std::vector<std::vector<NodeId>> out(num_shards);
  for (NodeId v = 0; v < node_shard.size(); ++v) {
    out[node_shard[v]].push_back(v);
  }
  return out;
}

namespace {

/// Contiguous node-id ranges: node v -> v*S/n. Balanced within one node and
/// order-preserving, so block-built topologies keep their blocks together.
ShardMap range_map(std::size_t n, std::size_t s) {
  ShardMap m;
  m.num_shards = s;
  m.scheme = "range";
  m.node_shard.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    m.node_shard[v] = static_cast<std::uint32_t>(v * s / n);
  }
  return m;
}

/// tr x tc tile arrangement of S shards over a rows x cols mesh: tr is the
/// divisor of S whose tile aspect best matches the mesh aspect, so tiles
/// stay near-square (minimal cross-tile boundary).
ShardMap grid_map(const Grid& grid, std::size_t s) {
  std::size_t best_tr = 1;
  double best_err = -1;
  for (std::size_t tr = 1; tr <= s; ++tr) {
    if (s % tr != 0) continue;
    const std::size_t tc = s / tr;
    if (tr > grid.rows || tc > grid.cols) continue;
    // Squareness score: |rows/tr - cols/tc| (tile side mismatch).
    const double err =
        std::abs(static_cast<double>(grid.rows) / static_cast<double>(tr) -
                 static_cast<double>(grid.cols) / static_cast<double>(tc));
    if (best_err < 0 || err < best_err) {
      best_err = err;
      best_tr = tr;
    }
  }
  if (best_err < 0) {
    // Mesh too thin for any tr x tc factorization; contiguous row-major
    // ranges are still row bands here.
    return range_map(grid.rows * grid.cols, s);
  }
  const std::size_t tr = best_tr, tc = s / best_tr;
  ShardMap m;
  m.num_shards = s;
  m.scheme = "grid";
  m.node_shard.resize(grid.rows * grid.cols);
  for (std::size_t r = 0; r < grid.rows; ++r) {
    for (std::size_t c = 0; c < grid.cols; ++c) {
      const std::size_t tile = (r * tr / grid.rows) * tc + (c * tc / grid.cols);
      m.node_shard[grid.node_at(r, c)] = static_cast<std::uint32_t>(tile);
    }
  }
  return m;
}

/// Whole clusters in contiguous blocks: cluster c -> shard c*S/alpha. A
/// cluster's nodes are the id range [c*beta, (c+1)*beta), filled at once.
ShardMap cluster_map(const ClusterGraph& cg, std::size_t s) {
  ShardMap m;
  m.num_shards = s;
  m.scheme = "cluster";
  m.node_shard.resize(cg.num_nodes());
  const auto first = m.node_shard.begin();
  for (std::size_t c = 0; c < cg.alpha; ++c) {
    const auto lo = static_cast<std::ptrdiff_t>(cg.node_at(c, 0));
    std::fill(first + lo, first + lo + static_cast<std::ptrdiff_t>(cg.beta),
              static_cast<std::uint32_t>(c * s / cg.alpha));
  }
  return m;
}

}  // namespace

ShardMap make_shard_map(const Graph& g, std::size_t num_shards) {
  const std::size_t n = g.num_nodes();
  DTM_REQUIRE(n > 0, "shard map over an empty graph");
  const std::size_t s = std::clamp<std::size_t>(num_shards, 1, n);
  if (s == 1) {
    ShardMap m;
    m.num_shards = 1;
    m.scheme = "range";
    m.node_shard.assign(n, 0);
    return m;
  }
  if (const auto cluster = recover_cluster(g); cluster && cluster->alpha >= s) {
    return cluster_map(*cluster, s);
  }
  if (const auto grid = recover_grid(g)) {
    return grid_map(*grid, s);
  }
  return range_map(n, s);
}

std::vector<NodeId> shard_aligned_homes(const ShardMap& map,
                                        std::size_t num_objects) {
  // Shard s takes objects s, s + S, s + 2S, ..., round robin over its
  // pool: object o lands at pool index (o / S) mod |pool|. Each pool that
  // receives an object is checked once, before its objects are filled.
  // The pools are members() laid out flat by one counting sort: shard s's
  // nodes, ascending, end at pool_end[s].
  const std::size_t S = map.num_shards;
  std::vector<std::uint32_t> pool_end(S, 0);
  for (std::uint32_t s : map.node_shard) ++pool_end[s];
  std::uint32_t at = 0;
  for (std::uint32_t& e : pool_end) {
    const std::uint32_t count = e;
    e = at;  // the pool's start; the scatter advances it to the end
    at += count;
  }
  std::vector<NodeId> pools(map.node_shard.size());
  for (NodeId v = 0; v < map.node_shard.size(); ++v) {
    pools[pool_end[map.node_shard[v]]++] = v;
  }
  std::vector<NodeId> homes(num_objects);
  for (std::size_t s = 0; s < std::min(S, num_objects); ++s) {
    const std::span<const NodeId> pool(
        pools.data() + (s == 0 ? 0 : pool_end[s - 1]),
        pools.data() + pool_end[s]);
    DTM_REQUIRE(!pool.empty(),
                "shard " << s << " has no nodes to home objects");
    std::size_t next = 0;
    for (std::size_t o = s; o < num_objects; o += S) {
      homes[o] = pool[next];
      if (++next == pool.size()) next = 0;
    }
  }
  return homes;
}

}  // namespace dtm
