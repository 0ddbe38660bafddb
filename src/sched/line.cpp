#include "sched/line.hpp"

#include <algorithm>

#include "lb/object_walk.hpp"
#include "util/metrics.hpp"

namespace dtm {

Schedule LineScheduler::run(const Instance& inst, const Metric& metric) {
  DTM_REQUIRE(&inst.graph() == &line_->graph || inst.graph() == line_->graph,
              "LineScheduler: instance is not on this line graph");
  ScopedPhaseTimer timer("phase.sched.line");
  metrics::count("sched.runs");
  (void)metric;  // the line's geometry is closed-form

  // ℓ = longest shortest walk of any object over its requesters.
  Weight ell = 0;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const auto& reqs = inst.requesters(o);
    if (reqs.empty()) continue;
    std::vector<NodeId> targets;
    targets.reserve(reqs.size());
    for (TxnId t : reqs) targets.push_back(inst.txn(t).home);
    ell = std::max(ell, line_walk_length(inst.object_home(o), targets));
  }
  last_ell_ = ell;
  const auto z = static_cast<NodeId>(std::max<Weight>(ell, 1));

  // Subline index of a node; even index -> phase 1 (S1), odd -> phase 2.
  const auto subline_of = [&](NodeId v) { return v / z; };
  const auto phase_of = [&](NodeId v) { return subline_of(v) % 2; };
  const auto offset_of = [&](NodeId v) {
    return static_cast<Time>(v - subline_of(v) * z);
  };

  // Period 1 of phase 1: objects with phase-1 requesters move from their
  // homes to their leftmost phase-1 requester. D1 = max such distance.
  // After phase-1 execution an object rests at its rightmost phase-1
  // requester (it rides right with the left-to-right execution).
  Weight d1 = 0;
  Weight d2 = 0;
  std::vector<NodeId> pos_after_p1(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    pos_after_p1[o] = inst.object_home(o);
    NodeId leftmost1 = kInvalidNode, rightmost1 = 0;
    bool any1 = false;
    for (TxnId t : inst.requesters(o)) {
      const NodeId v = inst.txn(t).home;
      if (phase_of(v) == 0) {
        any1 = true;
        leftmost1 = std::min(leftmost1, v);
        rightmost1 = std::max(rightmost1, v);
      }
    }
    if (any1) {
      d1 = std::max(d1, Line::line_distance(inst.object_home(o), leftmost1));
      pos_after_p1[o] = rightmost1;
    }
  }

  // Phase-1 execution period length: last occupied offset + 1.
  Time p1 = 0;
  for (const Transaction& t : inst.transactions()) {
    if (phase_of(t.home) == 0) p1 = std::max(p1, offset_of(t.home) + 1);
  }

  // Period 1 of phase 2: remaining objects move to their leftmost phase-2
  // requester from wherever phase 1 left them.
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    NodeId leftmost2 = kInvalidNode;
    bool any2 = false;
    for (TxnId t : inst.requesters(o)) {
      const NodeId v = inst.txn(t).home;
      if (phase_of(v) == 1) {
        any2 = true;
        leftmost2 = std::min(leftmost2, v);
      }
    }
    if (any2) {
      d2 = std::max(d2, Line::line_distance(pos_after_p1[o], leftmost2));
    }
  }

  std::vector<Time> commit(inst.num_transactions());
  const Time phase2_base = d1 + p1 + d2;
  for (const Transaction& t : inst.transactions()) {
    commit[t.id] = (phase_of(t.home) == 0 ? d1 : phase2_base) +
                   offset_of(t.home) + 1;
  }
  return Schedule::from_commit_times(inst, std::move(commit));
}

}  // namespace dtm
