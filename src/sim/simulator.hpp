// Synchronous data-flow simulator (§2.1's operational model).
//
// Executes a schedule step-accurately: objects sit at their initial nodes
// at time 0, travel hop-by-hop along shortest paths (an edge of weight d
// takes d steps), a node can receive objects, execute its transaction, and
// forward objects within one step. A transaction commits at its scheduled
// step only if every requested object is physically present; otherwise the
// simulation reports a violation.
//
// This is an *independent* check of schedule feasibility: it tracks object
// positions operationally instead of checking the validator's inequalities,
// so a bug in one of the two is caught by the other. It also measures the
// realized makespan and per-object travel.
//
// With an active FaultModel in SimOptions, the planned schedule executes
// on the faulty substrate (sim/faults.hpp): objects route around or stall
// at down links, lost transfers are retransmitted, and late commits are
// re-issued at the first feasible step, so
// realized_makespan >= planned_makespan measures the inflation. Without
// faults the two are equal and the output is bit-identical to the reliable
// simulator.
//
// With a nonzero `capacity`, the same planned execution runs on links
// carrying at most `capacity` objects at once (sim/link_policy.hpp);
// commits stall until their objects clear the queues, and faults compose
// on top when both are set.
//
// With `earliest_commit`, only the visit orders are re-executed (the
// paper's open question on link capacity made operational): each link
// carries at most `capacity` objects (0 = unbounded), objects queue FIFO,
// and a transaction commits at the first step its objects have assembled,
// so realized_makespan measures how far the policy stretches under
// congestion. With capacity >= 1 and jointly-acyclic visit orders the
// fault-free run terminates, and
//   makespan(capacity=∞) <= makespan(C) <= makespan(C') for C >= C'.
//
// simulate() is the one entry point over the execution engine
// (sim/engine.hpp): it picks the LinkPolicy and commit discipline matching
// the options and returns the engine's SimResult.
#pragma once

#include <cstddef>

#include "core/instance.hpp"
#include "core/partial.hpp"
#include "core/schedule.hpp"
#include "graph/metric.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"

namespace dtm {

struct SimOptions {
  /// Keep the run's log (SimResult::events, the one record of the run
  /// that trace export and analysis read); kHop moves are logged too when
  /// `record_hops` is set (costly on weighted graphs).
  bool record_events = false;
  bool record_hops = false;

  /// Fault oracle (non-owning; must outlive the call). Null or inactive
  /// keeps the reliable path — bit-identical to a fault-free build.
  /// `recovery` is only consulted when faults are active.
  const FaultModel* faults = nullptr;
  RecoveryPolicy recovery{};

  /// Max concurrent traversals per link (both directions combined).
  /// 0 keeps the §2.1 unbounded-capacity substrate.
  std::size_t capacity = 0;

  /// Re-execute only the visit orders: commit each transaction when its
  /// objects have assembled (CommitDiscipline::kEarliest), always on the
  /// stepwise queued links.
  bool earliest_commit = false;

  /// Mid-run rescheduling: when set, the run is driven stepwise (through
  /// unbounded FIFO queues at capacity 0) so the engine can monitor
  /// realized lag and splice replacement schedules in per
  /// `reschedule_policy` (sched/reschedule.hpp builds engine-ready hooks).
  /// Unset keeps every dispatch path bit-identical to the baseline.
  /// Rejected with `earliest_commit`: that run discards planned times, so
  /// there is no plan to splice into.
  RescheduleFn reschedule{};
  ReschedulePolicy reschedule_policy{};
};

/// Runs the schedule to completion (or first inconsistency) on the engine,
/// jumping from commit to commit on analytic substrates and ticking the
/// clock on queued ones. Dispatches on opts: unbounded reliable, faulty,
/// bounded-capacity, or faulty × bounded, each under planned or earliest
/// commits. A stepwise run whose object_order is not a permutation of each
/// object's requesters reports a violation.
SimResult simulate(const Instance& inst, const Metric& metric,
                   const Schedule& schedule, const SimOptions& opts = {});

}  // namespace dtm
