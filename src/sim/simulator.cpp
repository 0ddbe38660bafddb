#include "sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "sim/link_policy.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace dtm {

namespace {

/// The stepwise engine only terminates when every object_order is a
/// permutation of the object's requesters (the validator's precondition);
/// returns the first object that breaks it, or kInvalidObject.
ObjectId first_malformed_order(const Instance& inst, const Schedule& s) {
  if (s.object_order.size() != inst.num_objects()) return kInvalidObject;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    auto sorted = s.object_order[o];
    std::sort(sorted.begin(), sorted.end());
    if (sorted != inst.requesters(o)) return o;
  }
  return kInvalidObject;
}

}  // namespace

SimResult simulate(const Instance& inst, const Metric& metric,
                   const Schedule& s, const SimOptions& opts) {
  // The earliest-commit re-execution reports through its result only: no
  // phase timer, and no counters unless faults are active, which keeps the
  // recorded bench totals stable.
  std::optional<ScopedPhaseTimer> phase_timer;
  if (!opts.earliest_commit) phase_timer.emplace("phase.simulate");
  const bool faulty = opts.faults != nullptr && opts.faults->active();
  const bool resched = static_cast<bool>(opts.reschedule);
  DTM_REQUIRE(!(resched && opts.earliest_commit),
              "simulate: the earliest-commit re-execution discards planned "
              "times, so a reschedule hook has no plan to splice into");

  EngineConfig eo;
  eo.record_events = opts.record_events;
  eo.record_hops = opts.record_hops;
  eo.max_commit_stall = opts.recovery.max_commit_stall;
  eo.telemetry = faulty || !opts.earliest_commit;
  if (resched) {
    eo.reschedule_fn = opts.reschedule;
    eo.reschedule = opts.reschedule_policy;
  }

  if (opts.capacity == 0 && !resched && !opts.earliest_commit) {
    if (faulty) {
      // Planned schedule on the faulty analytic substrate: late arrivals
      // stall commits (degraded mode) instead of violating.
      eo.discipline = CommitDiscipline::kPlannedDegraded;
      FaultyLinks links(metric, *opts.faults, opts.recovery);
      return Engine(inst, metric, s, links, eo).run();
    }
    // Reliable §2.1 path: strict discipline, absent objects violate.
    eo.discipline = CommitDiscipline::kPlannedStrict;
    UnboundedLinks links(metric);
    return Engine(inst, metric, s, links, eo).run();
  }

  // Stepwise substrate: bounded capacity, earliest commits and/or mid-run
  // rescheduling on FIFO queued links (capacity 0 = unbounded through the
  // queues).
  if (const ObjectId o = first_malformed_order(inst, s); o != kInvalidObject) {
    std::ostringstream os;
    os << "object_order[" << o << "] is not a permutation of o" << o
       << "'s requesters";
    SimResult out;
    out.ok = false;
    out.violations.push_back(os.str());
    return out;
  }
  eo.discipline = opts.earliest_commit ? CommitDiscipline::kEarliest
                                       : CommitDiscipline::kPlannedDegraded;
  BoundedCapacityLinks bounded(metric, opts.capacity);
  if (faulty) {
    FaultyLinks links(metric, *opts.faults, opts.recovery, &bounded);
    return Engine(inst, metric, s, links, eo).run();
  }
  return Engine(inst, metric, s, bounded, eo).run();
}

}  // namespace dtm
