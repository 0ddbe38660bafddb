// Shard partition of the substrate graph: a deterministic node -> shard
// assignment that groups nodes by locality, so per-shard accounting (the
// streaming runtime's ShardLoadStats, sim/runtime.hpp) maps onto the
// topology's natural blocks instead of hashing nodes arbitrarily.
//
// make_shard_map() reuses topology recovery (topologies/detect):
//  * ClusterGraph — whole clusters are assigned to shards in contiguous
//    blocks (cluster c -> shard c*S/alpha). Objects homed in one cluster
//    then conflict inside one shard, the regime the paper's Theorem 4
//    locality analysis (and the blockchain-sharding follow-up in PAPERS.md)
//    partitions by.
//  * Grid — rectangular tiles: the S shards form a tr x tc tile grid
//    (tr*tc == S, tr chosen nearest the aspect ratio), each tile a
//    contiguous block of rows x columns.
//  * anything else — contiguous node-id ranges (node v -> v*S/n), which on
//    row-major meshes and block-built topologies still follows locality.
//
// The assignment is a pure function of (graph, num_shards): every component
// that derives per-shard state from the same inputs agrees on the
// partition without coordination.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace dtm {

struct ShardMap {
  std::size_t num_shards = 1;
  /// Which rule produced the map: "cluster" | "grid" | "range".
  std::string scheme = "range";
  /// Per node: owning shard in [0, num_shards).
  std::vector<std::uint32_t> node_shard;

  std::uint32_t shard_of(NodeId v) const {
    DTM_ASSERT(v < node_shard.size());
    return node_shard[v];
  }

  /// Node lists per shard, ascending within each shard.
  std::vector<std::vector<NodeId>> members() const;
};

/// Deterministic locality partition of `g` into `num_shards` shards (see
/// file comment for the per-topology rules). `num_shards` is clamped to
/// [1, num_nodes]; every shard is non-empty after clamping.
ShardMap make_shard_map(const Graph& g, std::size_t num_shards);

/// Shard-aligned object placement: object o is homed inside shard
/// (o mod num_shards), round-robin over that shard's nodes. The workload
/// analog of StreamingRuntime::spread_homes for sharded runs — an arrival
/// source drawing objects group-locally (ArrivalStreamOptions::groups with
/// groups == num_shards) then produces transactions whose conflicts stay
/// inside one shard.
std::vector<NodeId> shard_aligned_homes(const ShardMap& map,
                                        std::size_t num_objects);

}  // namespace dtm
