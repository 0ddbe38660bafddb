#include "lb/bounds.hpp"

#include <algorithm>

#include "lb/object_walk.hpp"
#include "util/parallel_for.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace dtm {

Weight InstanceBounds::max_walk_lower() const {
  Weight best = 0;
  for (Weight v : walk_lower) best = std::max(best, v);
  return best;
}

Weight InstanceBounds::max_walk_upper() const {
  Weight best = 0;
  for (Weight v : walk_upper) best = std::max(best, v);
  return best;
}

InstanceBounds compute_bounds(const Instance& inst, const Metric& metric,
                              std::size_t exact_limit) {
  ScopedPhaseTimer timer("phase.bounds");
  metrics::count("lb.bounds_computed");
  InstanceBounds out;
  const std::size_t num_objects = inst.num_objects();
  out.walk_lower.assign(num_objects, 0);
  out.walk_upper.assign(num_objects, 0);
  if (inst.num_transactions() > 0) out.makespan_lb = 1;
  // Per-object walks are independent: fan them out across the shared pool
  // (each block writes disjoint slots), then reduce serially in object
  // order so makespan_lb and critical_object — the FIRST object attaining
  // the maximum — match the sequential result exactly.
  parallel_for_blocks(
      shared_pool(), num_objects, [&](std::size_t begin, std::size_t end) {
        std::vector<NodeId> targets;  // reused across this block's objects
        for (std::size_t i = begin; i < end; ++i) {
          const auto o = static_cast<ObjectId>(i);
          const auto& reqs = inst.requesters(o);
          if (reqs.empty()) continue;
          targets.clear();
          targets.reserve(reqs.size());
          for (TxnId t : reqs) targets.push_back(inst.txn(t).home);
          const WalkBounds wb =
              walk_bounds(metric, inst.object_home(o), targets, exact_limit);
          out.walk_lower[i] = wb.lower;
          out.walk_upper[i] = wb.upper;
        }
      });
  for (ObjectId o = 0; o < num_objects; ++o) {
    if (inst.requesters(o).empty()) continue;
    const Time obj_lb =
        std::max<Time>(out.walk_lower[o],
                       static_cast<Time>(inst.requesters(o).size()));
    if (obj_lb > out.makespan_lb) {
      out.makespan_lb = obj_lb;
      out.critical_object = o;
    }
  }
  return out;
}

}  // namespace dtm
