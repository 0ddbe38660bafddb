#include "core/online.hpp"

#include <algorithm>
#include <sstream>

namespace dtm {

ArrivalTimes generate_arrivals(std::size_t num_transactions, Time horizon,
                               Rng& rng) {
  DTM_REQUIRE(horizon >= 0, "arrival horizon must be nonnegative");
  ArrivalTimes out(num_transactions);
  for (Time& a : out) {
    a = static_cast<Time>(rng.uniform(0, static_cast<std::uint64_t>(horizon)));
  }
  return out;
}

ArrivalTimes generate_bursty_arrivals(std::size_t num_transactions,
                                      Time horizon, std::size_t bursts,
                                      Rng& rng) {
  DTM_REQUIRE(bursts >= 1, "need at least one burst");
  ArrivalTimes out(num_transactions);
  const Time spacing =
      bursts > 1 ? horizon / static_cast<Time>(bursts - 1) : 0;
  for (Time& a : out) {
    a = static_cast<Time>(rng.index(bursts)) * spacing;
  }
  return out;
}

ValidationResult validate_online(const Instance& inst, const Metric& metric,
                                 std::span<const Time> arrival,
                                 const Schedule& schedule) {
  ValidationResult r = validate(inst, metric, schedule);
  if (arrival.size() != inst.num_transactions()) {
    r.ok = false;
    r.violations.push_back("arrival vector size mismatch");
    return r;
  }
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    if (t < schedule.commit_time.size() &&
        schedule.commit_time[t] < std::max<Time>(arrival[t], 1)) {
      std::ostringstream os;
      if (arrival[t] == kNeverReleased) {
        os << "T" << t << " commits at step " << schedule.commit_time[t]
           << " but was never released into the feed";
      } else {
        os << "T" << t << " commits at step " << schedule.commit_time[t]
           << " before its release step " << arrival[t];
      }
      r.ok = false;
      r.violations.push_back(os.str());
    }
  }
  return r;
}

}  // namespace dtm
