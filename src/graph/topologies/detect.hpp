// Topology recovery: given a bare Graph, reconstruct the parameterized
// topology (Line / Grid / ClusterGraph / Star / Clique / Hypercube /
// BlockGrid / BlockTree) that generated it, if any.
//
// The specialized schedulers (§4–§7) need the topology's parameters (n,
// rows×cols, α/β/γ) — information an Instance does not carry, since it only
// references a Graph. Recovery closes that gap: each recover_* candidate
// enumerates the family's parameterizations consistent with the node count,
// rebuilds the candidate topology, and accepts it only when the rebuilt
// CSR is *identical* to the input graph (Graph::operator==). That makes
// recovery sound by construction: a successful recovery is a proof that
// the graph is that topology.
//
// Degenerate shapes that coincide with a simpler family (a 1×n grid is a
// line, a 1-cluster graph is a clique, a 1-ray star is a path) are
// deliberately rejected — detection is canonical, so `detect_topology`
// returns at most one specialized family per graph in practice.
#pragma once

#include <memory>
#include <optional>

#include "graph/graph.hpp"
#include "graph/topologies/block_grid.hpp"
#include "graph/topologies/block_tree.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "graph/topologies/topology.hpp"

namespace dtm {

/// A graph's edge count and node 0's degree (0 for an empty graph): the
/// pre-check every recovery runs before a full comparison. A graph built
/// with a family key gets both from the key's closed form and writes
/// nothing; any other graph reads its offsets.
struct GraphShape {
  std::size_t edges = 0;
  std::size_t degree0 = 0;
  friend bool operator==(const GraphShape&, const GraphShape&) = default;
};
GraphShape graph_shape(const Graph& g);

/// Line v_0 — ... — v_{n-1}, unit weights, n >= 2. Null if `g` is not one.
std::unique_ptr<Line> recover_line(const Graph& g);

/// rows×cols mesh with rows, cols >= 2 (a 1×n mesh is a Line). Null if `g`
/// is not one. Row-major node numbering disambiguates rows from cols.
std::unique_ptr<Grid> recover_grid(const Graph& g);

/// α ≥ 2 cliques of β ≥ 2 nodes with weight-γ bridge edges. γ is read off
/// the heaviest edge (bridges are the only non-unit edges). Null otherwise.
std::unique_ptr<ClusterGraph> recover_cluster(const Graph& g);

/// Center plus α ≥ 2 rays of β ≥ 1 nodes, unit weights. Null otherwise.
std::unique_ptr<Star> recover_star(const Graph& g);

/// Complete graph on n ≥ 3 nodes, unit weights (K_2 is a Line). Null
/// otherwise.
std::unique_ptr<Clique> recover_clique(const Graph& g);

/// d-dimensional binary hypercube with d ≥ 3 (d = 1 is a Line, d = 2 the
/// 2×2 Grid — the same CSR layouts, rejected to keep recoveries disjoint).
std::unique_ptr<Hypercube> recover_hypercube(const Graph& g);

/// §8.1 lower-bound grid of s = t² blocks (n = t⁵ nodes, t ≥ 2); the
/// weight-s boundary columns distinguish it from a plain Grid. Null
/// otherwise.
std::unique_ptr<BlockGrid> recover_block_grid(const Graph& g);

/// §8.2 lower-bound tree of s = t² blocks (n = t⁵ nodes, t ≥ 2, n − 1
/// edges). Null otherwise.
std::unique_ptr<BlockTree> recover_block_tree(const Graph& g);

/// First specialized family (checked in the order line, grid, cluster,
/// star, clique, hypercube, block grid, block tree) whose recovery
/// succeeds; nullopt for generic graphs.
std::optional<TopologyKind> detect_topology(const Graph& g);

}  // namespace dtm
