#include "core/schedule.hpp"

#include <algorithm>

namespace dtm {

Time Schedule::makespan() const {
  Time best = 0;
  for (Time t : commit_time) best = std::max(best, t);
  return best;
}

Schedule Schedule::from_commit_times(const Instance& inst,
                                     std::vector<Time> commit_time) {
  DTM_REQUIRE(commit_time.size() == inst.num_transactions(),
              "from_commit_times: wrong commit vector size");
  Schedule s;
  s.commit_time = std::move(commit_time);
  s.object_order.resize(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const std::span<const TxnId> req = inst.requesters(o);
    std::vector<TxnId> order(req.begin(), req.end());
    std::sort(order.begin(), order.end(), [&](TxnId a, TxnId b) {
      if (s.commit_time[a] != s.commit_time[b]) {
        return s.commit_time[a] < s.commit_time[b];
      }
      return a < b;
    });
    s.object_order[o] = std::move(order);
  }
  return s;
}

}  // namespace dtm
