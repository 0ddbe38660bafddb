#include "sched/grid.hpp"

#include <algorithm>
#include <cmath>

#include "util/metrics.hpp"

namespace dtm {

GridScheduler::GridScheduler(const Grid& grid, GridSchedulerOptions opts)
    : grid_(&grid), opts_(opts) {
  DTM_REQUIRE(grid.rows == grid.cols,
              "GridScheduler expects a square grid (got "
                  << grid.rows << "x" << grid.cols << ")");
}

Schedule GridScheduler::run(const Instance& inst, const Metric& metric) {
  DTM_REQUIRE(&inst.graph() == &grid_->graph || inst.graph() == grid_->graph,
              "GridScheduler: instance is not on this grid");
  ScopedPhaseTimer timer("phase.sched.grid");
  metrics::count("sched.runs");
  const std::size_t n = grid_->rows;
  const std::size_t w = inst.num_objects();
  const std::size_t k = std::max<std::size_t>(1, inst.max_objects_per_txn());

  // ξ = 27 w ln m / k; subgrid side = ceil(√ξ) clamped to [1, n].
  std::size_t side = opts_.forced_subgrid_side;
  if (side == 0) {
    const double m = static_cast<double>(std::max(n, w));
    const double ln_m = std::max(1.0, std::log(m));
    const double xi =
        27.0 * static_cast<double>(w) * ln_m / static_cast<double>(k);
    side = static_cast<std::size_t>(std::ceil(std::sqrt(xi)));
  }
  side = std::clamp<std::size_t>(side, 1, n);
  last_side_ = side;

  // Column-major boustrophedon order over subgrid coordinates (si, sj).
  const std::size_t per_dim = (n + side - 1) / side;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(per_dim * per_dim);
  for (std::size_t sj = 0; sj < per_dim; ++sj) {
    for (std::size_t step = 0; step < per_dim; ++step) {
      const std::size_t si = (sj % 2 == 0) ? step : per_dim - 1 - step;
      order.emplace_back(si, sj);
    }
  }

  std::vector<Time> commit(inst.num_transactions(), 1);
  std::vector<NodeId> obj_pos(w);
  for (ObjectId o = 0; o < w; ++o) obj_pos[o] = inst.object_home(o);

  Time clock = 0;
  for (const auto& [si, sj] : order) {
    // Transactions living inside this subgrid.
    std::vector<TxnId> members;
    for (std::size_t r = si * side; r < std::min((si + 1) * side, n); ++r) {
      for (std::size_t c = sj * side; c < std::min((sj + 1) * side, n); ++c) {
        const TxnId t = inst.txn_at(grid_->node_at(r, c));
        if (t != kInvalidTxn) members.push_back(t);
      }
    }
    if (members.empty()) continue;

    // Internal greedy schedule of the subgrid.
    const ColoredSubset colored =
        greedy_color(inst, metric, members, opts_.rule);

    // Transition: every object requested here moves from wherever it rests
    // to its earliest requester in the internal schedule.
    Weight transition = 0;
    std::vector<Time> first_t(w, kInfiniteWeight), last_t(w, 0);
    std::vector<NodeId> first_v(w, kInvalidNode), last_v(w, kInvalidNode);
    for (std::size_t i = 0; i < colored.txns.size(); ++i) {
      const Transaction& t = inst.txn(colored.txns[i]);
      for (ObjectId o : t.objects) {
        if (colored.local_time[i] < first_t[o]) {
          first_t[o] = colored.local_time[i];
          first_v[o] = t.home;
        }
        if (colored.local_time[i] >= last_t[o]) {
          last_t[o] = colored.local_time[i];
          last_v[o] = t.home;
        }
      }
    }
    for (ObjectId o = 0; o < w; ++o) {
      if (first_v[o] == kInvalidNode) continue;
      transition =
          std::max(transition, metric.distance(obj_pos[o], first_v[o]));
    }

    // Commit, then advance the clock and park each used object at its last
    // requester of this subgrid.
    for (std::size_t i = 0; i < colored.txns.size(); ++i) {
      commit[colored.txns[i]] = clock + transition + colored.local_time[i];
    }
    for (ObjectId o = 0; o < w; ++o) {
      if (last_v[o] != kInvalidNode) obj_pos[o] = last_v[o];
    }
    clock += transition + colored.duration;
  }

  return Schedule::from_commit_times(inst, std::move(commit));
}

}  // namespace dtm
