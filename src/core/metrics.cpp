#include "core/metrics.hpp"

#include <algorithm>

namespace dtm {

ScheduleMetrics compute_metrics(const Instance& inst, const Metric& metric,
                                const Schedule& s) {
  ScheduleMetrics out;
  out.makespan = s.makespan();
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    Weight travel = 0;
    NodeId prev = inst.object_home(o);
    for (TxnId t : s.object_order[o]) {
      const NodeId node = inst.home(t);
      travel += metric.distance(prev, node);
      prev = node;
    }
    out.communication += travel;
    out.max_object_travel = std::max(out.max_object_travel, travel);
  }
  return out;
}

}  // namespace dtm
