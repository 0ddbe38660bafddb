// Control-flow execution model (§1.2 related work, [31]/[27]): objects are
// IMMOBILE at their home nodes; a transaction accesses each object it
// needs by remote procedure call (request travels to the object's home,
// the response travels back — a 2·dist round trip), and objects serve
// their requesters one at a time.
//
// Formally, with a visit order per object, the earliest commit times obey
//
//   t(T) >= 1,
//   t(T) >= t(prev requester of o) + max(2·dist(home(o), node(T)), 1)
//                                                                 ∀ o ∈ T,
//
// i.e. the data-flow precedence system with the inter-transaction distance
// replaced by the requester's round trip to the object's fixed home. The
// round trip counts at least one step (the hop rule, core/types.hpp
// hop_steps): a requester on the object's home still commits a step after
// the previous one.
// Bench E16 compares this against the paper's data-flow schedules: moving
// the object once beats repeated round trips as soon as objects are shared
// by many far-away transactions, which is the quantitative version of the
// data-flow-vs-control-flow discussion in [27].
#pragma once

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "graph/metric.hpp"

namespace dtm {

/// How objects order their requesters. Both rules derive from a single
/// global transaction priority, which keeps the per-object service orders
/// jointly acyclic.
enum class ControlFlowOrder {
  kById,          // ascending TxnId (arrival order analog)
  kNearestFirst,  // ascending total round-trip work (global SPT rule)
};

struct ControlFlowResult {
  std::vector<Time> commit_time;
  /// Per-object service order used.
  std::vector<std::vector<TxnId>> object_order;
  /// Total communication: sum over accesses of the 2·dist round trip.
  Weight communication = 0;

  Time makespan() const;
};

/// Computes the earliest-commit control-flow execution for the chosen
/// service orders. Deterministic.
ControlFlowResult schedule_control_flow(
    const Instance& inst, const Metric& metric,
    ControlFlowOrder order = ControlFlowOrder::kById);

/// Checks the control-flow timing constraints above; returns a description
/// of the first violation, empty when consistent (used by tests).
std::string check_control_flow(const Instance& inst, const Metric& metric,
                               const ControlFlowResult& result);

}  // namespace dtm
