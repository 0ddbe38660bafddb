// The paper's basic greedy schedule (§2.3): color the dependency graph H so
// that adjacent transactions receive colors differing by at least their
// edge weight; colors are commit steps.
//
// Two coloring rules:
//  * kPaperPigeonhole — colors of the form k_u·h_max + 1 with k_u in
//    [0, Δ]; the pigeonhole guarantee of the paper, at most Γ+1 = h_max·Δ+1
//    colors. Used when checking the proven bounds.
//  * kFirstFit — smallest step t >= 1 with |t − t_v| >= w(u,v) for every
//    colored neighbor v; never worse than the pigeonhole rule and usually
//    much tighter in practice (ablation E9 quantifies the gap).
//
// greedy_color() is the reusable subroutine (the Grid §5, Cluster §6 and
// Star §7 schedulers call it per subgrid/cluster/segment); GreedyScheduler
// wraps it into a whole-instance algorithm, prepending the initial object
// positioning offset that the §2.3 analysis assumes away.
#pragma once

#include <optional>
#include <span>

#include "sched/dependency_graph.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace dtm {

enum class ColoringRule { kPaperPigeonhole, kFirstFit };

/// Order in which transactions are colored (E9 ablation).
enum class ColoringOrder { kById, kByDegreeDesc, kRandom };

struct ColoredSubset {
  /// Covered transactions, ascending TxnId (same as the DependencyGraph's).
  std::vector<TxnId> txns;
  /// local_time[i] in [1, duration] is txns[i]'s commit step relative to
  /// the start of this batch.
  std::vector<Time> local_time;
  /// Max assigned step (0 for an empty subset).
  Time duration = 0;
};

/// Colors the subset; `rng` is only consulted for ColoringOrder::kRandom.
ColoredSubset greedy_color(const Instance& inst, const Metric& metric,
                           std::span<const TxnId> txns, ColoringRule rule,
                           ColoringOrder order = ColoringOrder::kById,
                           Rng* rng = nullptr);

/// Colors an already-built dependency graph (the window step in
/// sched/online.hpp builds it first, since the runtime's shard accounting
/// reads it too). Same rules and result as above.
ColoredSubset greedy_color(const DependencyGraph& h, ColoringRule rule,
                           ColoringOrder order = ColoringOrder::kById,
                           Rng* rng = nullptr);

struct GreedyOptions {
  ColoringRule rule = ColoringRule::kPaperPigeonhole;
  ColoringOrder order = ColoringOrder::kById;
  /// After coloring, recompute earliest commit times for the color-induced
  /// object orders (core/precedence.hpp). Keeps the O(k·ℓ·h_max) structure
  /// but removes slack; never increases makespan.
  bool compact = false;
  std::uint64_t seed = 1;
};

/// Whole-instance greedy scheduler (§2.3; used as-is for the Clique §3,
/// Hypercube and Butterfly §3.1, and Cluster Approach 1 §6).
class GreedyScheduler final : public Scheduler {
 public:
  explicit GreedyScheduler(GreedyOptions opts = {});

  std::string name() const override;
  Schedule run(const Instance& inst, const Metric& metric) override;

 private:
  GreedyOptions opts_;
  Rng rng_;
};

}  // namespace dtm
