// Greedy scheduling for read/write workloads (§1.2's replicated /
// multi-versioned model variants; see core/rw.hpp for the model).
//
// The §2.3 machinery carries over with one change: the dependency graph
// only connects transactions whose shared object is WRITTEN by at least
// one of them (read-read pairs commute — copies serve them in parallel).
// Coloring that sparser graph gives commit times; writer chains and reader
// version sources fall out of the color order. With many readers the
// weighted degree Δ shrinks by the read fraction, which is exactly why
// replication helps — bench E17 quantifies it.
#pragma once

#include "core/rw.hpp"
#include "sched/greedy.hpp"

namespace dtm {

struct RwGreedyOptions {
  ColoringRule rule = ColoringRule::kFirstFit;
  RwPolicy policy = RwPolicy::kMultiVersion;
  /// Recompute earliest commit times for the derived chains/sources
  /// (never hurts; the multi-version win mostly comes from this).
  bool compact = true;
};

/// Colors the read/write conflict graph and assembles a feasible
/// RwSchedule for the chosen policy.
RwSchedule schedule_rw_greedy(const Instance& inst, const WriteSets& writes,
                              const Metric& metric,
                              const RwGreedyOptions& opts = {});

/// Earliest commit times for fixed writer chains and reader sources under
/// `policy` (longest path over the version-dependency DAG; consecutive
/// writers are hop_steps apart). Throws on cyclic inputs.
std::vector<Time> rw_earliest_times(
    const Instance& inst, const Metric& metric,
    const std::vector<std::vector<TxnId>>& writer_order,
    const std::vector<std::vector<std::pair<TxnId, TxnId>>>& reader_source,
    RwPolicy policy);

}  // namespace dtm
