// Earliest-commit-time solver.
//
// Fixing a visit order per object induces a precedence DAG on transactions
// (an arc between consecutive requesters of each object, plus a source
// constraint from each object's initial location). The earliest feasible
// commit times are the longest paths in that DAG, and longest_path_times
// is the one solver that computes them. Four callers build the DAG:
//  * earliest_commit_times below — "compaction" (retime any scheduler's
//    object orders, never increasing makespan) and the exact baseline's
//    per-order solve (sched/exact.hpp);
//  * retime_suffix (sched/reschedule.cpp) — the uncommitted suffix of
//    spliced orders, anchored at a partial execution's snapshot;
//  * rw_earliest_times (sched/rw_greedy.cpp) — writer chains, reader
//    copies and revocations of a read/write schedule;
//  * schedule_control_flow (sched/control_flow.cpp) — round trips to
//    immobile objects.
// The hop rule (an object serves one commit per step, core/types.hpp)
// lives in the visit-chain arcs (append_chain_arcs), not in the source
// anchors: each caller floors its own first requesters.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "graph/metric.hpp"

namespace dtm {

/// Precedence constraint t(to) >= t(from) + weight.
struct PrecedenceArc {
  TxnId from;
  TxnId to;
  Weight weight;
};

/// Longest paths over a precedence DAG: the least times t >= floor with
/// t(to) >= t(from) + weight for every arc. floor.size() is the number of
/// transactions. Throws dtm::Error naming `what` when the arcs contain a
/// cycle. The result does not depend on the order of `arcs`.
std::vector<Time> longest_path_times(std::vector<Time> floor,
                                     std::span<const PrecedenceArc> arcs,
                                     std::string_view what);

/// Appends the visit-chain arcs of `chain`: consecutive requesters a, b
/// get weight hop_steps(dist(home(a), home(b))).
void append_chain_arcs(const Instance& inst, const Metric& metric,
                       std::span<const TxnId> chain,
                       std::vector<PrecedenceArc>& arcs);

/// Earliest commit times for the given per-object orders.
/// Requires: each object_order[o] is a permutation of inst.requesters(o),
/// and the induced precedence relation is acyclic (throws dtm::Error
/// otherwise — a cycle means the orders are jointly infeasible).
std::vector<Time> earliest_commit_times(
    const Instance& inst, const Metric& metric,
    const std::vector<std::vector<TxnId>>& object_order);

/// Convenience: builds the full (order, earliest-times) schedule.
Schedule schedule_from_orders(const Instance& inst, const Metric& metric,
                              std::vector<std::vector<TxnId>> object_order);

/// Recomputes commit times for an existing schedule's orders ("compaction").
/// The result is feasible and its makespan is <= the input's.
Schedule compact(const Instance& inst, const Metric& metric,
                 const Schedule& schedule);

}  // namespace dtm
