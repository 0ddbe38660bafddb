#include "graph/twins.hpp"

#include <cstdint>
#include <unordered_map>

namespace dtm {

namespace {

// splitmix64 finalizer: cheap, well-mixed per-id/per-weight contributions
// for the commutative neighborhood signatures below.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Exact check of the true-twin condition: r and v adjacent, and their
/// sorted adjacencies match elementwise once the r-v arcs themselves are
/// skipped (their weight is unconstrained; all other weights must agree).
bool true_twins(const Graph& g, NodeId r, NodeId v) {
  const auto nr = g.neighbors(r);
  const auto nv = g.neighbors(v);
  if (nr.size() != nv.size()) return false;
  std::size_t i = 0, j = 0;
  bool adjacent = false;
  while (i < nr.size() || j < nv.size()) {
    if (i < nr.size() && nr[i].to == v) {
      ++i;
      adjacent = true;
      continue;
    }
    if (j < nv.size() && nv[j].to == r) {
      ++j;
      continue;
    }
    if (i >= nr.size() || j >= nv.size()) return false;
    if (nr[i].to != nv[j].to || nr[i].weight != nv[j].weight) return false;
    ++i;
    ++j;
  }
  return adjacent;
}

/// Exact check of the false-twin condition: identical sorted adjacencies
/// (ids and weights). Adjacent nodes can never pass — each list would have
/// to contain the other endpoint, which the other list cannot mirror.
bool false_twins(const Graph& g, NodeId r, NodeId v) {
  const auto nr = g.neighbors(r);
  const auto nv = g.neighbors(v);
  if (nr.size() != nv.size()) return false;
  for (std::size_t i = 0; i < nr.size(); ++i) {
    if (nr[i] != nv[i]) return false;
  }
  return true;
}

}  // namespace

TwinClasses compute_twin_classes(const Graph& g) {
  const std::size_t n = g.num_nodes();
  TwinClasses tc;
  tc.rep.resize(n);
  for (NodeId v = 0; v < n; ++v) tc.rep[v] = v;

  // Commutative signatures: the neighbor-id sum over N[u] is invariant
  // across true twins (their closed neighborhoods coincide), the sum over
  // N(u) across false twins, and the weight multiset is shared by both
  // (the unconstrained r-v weight appears once on each side). Signatures
  // only group candidates — membership is verified exactly, so a
  // collision can cost time but never merge non-twins.
  std::vector<std::uint64_t> sig_true(n), sig_false(n);
  const Graph::Adjacency adj = g.adjacency();
  for (NodeId u = 0; u < n; ++u) {
    std::uint64_t ids = 0, weights = 0;
    for (const Arc& a : adj.neighbors(u)) {
      ids += mix(a.to);
      weights += mix(0x517cc1b727220a95ull ^ static_cast<std::uint64_t>(a.weight));
    }
    const std::uint64_t w = weights * 0x2545f4914f6cdd1dull;
    sig_true[u] = (ids + mix(u)) ^ w;
    sig_false[u] = ids ^ w;
  }

  // A node joins the first verified sub-representative of its signature
  // bucket; nodes are bucketed in increasing id, so classes (and the
  // choice of representative) are deterministic.
  std::vector<char> grouped(n, 0);
  const auto run_pass = [&](const std::vector<std::uint64_t>& sig,
                            const auto& verify) {
    std::unordered_map<std::uint64_t, std::vector<NodeId>> buckets;
    for (NodeId u = 0; u < n; ++u) {
      if (!grouped[u]) buckets[sig[u]].push_back(u);
    }
    for (auto& [key, nodes] : buckets) {
      if (nodes.size() < 2) continue;
      std::vector<NodeId> subreps;
      for (NodeId v : nodes) {
        bool joined = false;
        for (NodeId r : subreps) {
          if (verify(g, r, v)) {
            tc.rep[v] = r;
            grouped[v] = 1;
            grouped[r] = 1;
            joined = true;
            break;
          }
        }
        if (!joined) subreps.push_back(v);
      }
    }
  };
  run_pass(sig_true, true_twins);
  run_pass(sig_false, false_twins);

  for (NodeId v = 0; v < n; ++v) {
    if (tc.rep[v] == v) tc.reps.push_back(v);
  }
  return tc;
}

}  // namespace dtm
