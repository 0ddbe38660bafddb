#include "graph/apsp.hpp"

#include <algorithm>
#include <optional>

#include "graph/shortest_paths.hpp"
#include "graph/twins.hpp"
#include "util/parallel_for.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace dtm {

DistanceMatrix::DistanceMatrix(std::size_t n, std::vector<Weight> flat)
    : n_(n), flat_(std::move(flat)) {
  DTM_REQUIRE(flat_.size() == n * n, "DistanceMatrix: wrong buffer size");
}

Weight DistanceMatrix::max_finite() const {
  Weight best = 0;
  for (Weight d : flat_) {
    if (d < kInfiniteWeight) best = std::max(best, d);
  }
  return best;
}

DistanceMatrix compute_apsp(const Graph& g, ThreadPool* pool) {
  const std::size_t n = g.num_nodes();
  ScopedPhaseTimer timer("phase.apsp");
  // Twin classes (graph/twins.hpp): structurally equivalent nodes share a
  // distance row, so only one search per class runs. Clique/cluster
  // topologies collapse to a handful of classes; twin-free graphs pay one
  // O(m) detection scan.
  const TwinClasses twins = compute_twin_classes(g);
  metrics::count("apsp.dijkstra_runs", twins.num_classes());
  metrics::count("apsp.rows_written", n);
  std::vector<Weight> flat(n * n);
  std::optional<PackedGraph> packed;
  if (PackedGraph::fits(g)) packed.emplace(g);
  // One workspace per block: scratch is reused across that block's sources
  // and each source's distances land directly in its matrix row — no
  // per-source allocation, no tree copy, no parent array.
  const auto run_rows = [&](std::size_t begin, std::size_t end) {
    DijkstraWorkspace ws;
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId u = twins.reps[i];
      Weight* row = flat.data() + static_cast<std::size_t>(u) * n;
      if (packed) {
        ws.run(*packed, u, row);
      } else {
        ws.run(g, u, row);
      }
    }
  };
  // Twin rows are the representative's row with two patched entries:
  // d(v, v) = 0 and d(v, rep) = d(rep, v).
  const auto fill_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      const NodeId r = twins.rep[v];
      if (r == v) continue;
      const Weight* src = flat.data() + static_cast<std::size_t>(r) * n;
      Weight* row = flat.data() + v * n;
      std::copy(src, src + n, row);
      row[v] = 0;
      row[r] = src[v];
    }
  };
  if (pool != nullptr) {
    parallel_for_blocks(*pool, twins.num_classes(), run_rows);
    parallel_for_blocks(*pool, n, fill_rows);
  } else {
    run_rows(0, twins.num_classes());
    fill_rows(0, n);
  }
  return DistanceMatrix(n, std::move(flat));
}

}  // namespace dtm
