#include "sim/optimistic.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <tuple>
#include <utility>

#include "util/metrics.hpp"

namespace dtm {

namespace {

struct Attempt {
  Time commit_point;  // start + latency
  TxnId txn;
  Time start;  // versions sampled here

  friend bool operator>(const Attempt& a, const Attempt& b) {
    return std::tie(a.commit_point, a.txn, a.start) >
           std::tie(b.commit_point, b.txn, b.start);
  }
};

}  // namespace

OptimisticResult run_optimistic(const Instance& inst, const Metric& metric,
                                const ArrivalTimes& arrival,
                                const OptimisticOptions& opts) {
  DTM_REQUIRE(arrival.size() == inst.num_transactions(),
              "arrival vector size mismatch");
  ScopedPhaseTimer timer("phase.sim.optimistic");

  const std::size_t n = inst.num_transactions();
  OptimisticResult out;
  out.commit_time.assign(n, 0);

  // Round latency to the farthest object (>= 1: even a fully local
  // transaction spends a step executing).
  std::vector<Time> latency(n, 1);
  for (TxnId t = 0; t < n; ++t) {
    const Transaction& txn = inst.txn(t);
    for (ObjectId o : txn.objects) {
      latency[t] = std::max(
          latency[t], metric.distance(txn.home, inst.object_home(o)));
    }
  }

  // Per-object version clock: step of the last commit that wrote it.
  std::vector<Time> version(inst.num_objects(), 0);
  std::vector<std::size_t> retries(n, 0);
  Rng rng(opts.seed);

  std::priority_queue<Attempt, std::vector<Attempt>, std::greater<Attempt>>
      calendar;
  for (TxnId t = 0; t < n; ++t) {
    const Time start = std::max<Time>(arrival[t], 0);
    calendar.push({start + latency[t], t, start});
  }

  // Attempts pop in (commit step, id) order, so within a step lower ids
  // acquire their locks first — the deterministic tie-break. A same-step
  // loser sees the winner's version (== this step > its own start) and
  // fails validation like any other stale read.
  while (!calendar.empty()) {
    const Attempt a = calendar.top();
    calendar.pop();
    const Transaction& txn = inst.txn(a.txn);

    bool valid = true;
    for (ObjectId o : txn.objects) {
      // TL2 validation: any version newer than our read snapshot kills
      // the attempt.
      if (version[o] > a.start) {
        valid = false;
        break;
      }
    }
    if (valid) {
      for (ObjectId o : txn.objects) {
        version[o] = a.commit_point;
      }
      out.commit_time[a.txn] = a.commit_point;
      out.makespan = std::max(out.makespan, a.commit_point);
      ++out.commits;
      continue;
    }

    ++out.aborts;
    out.wasted_steps += latency[a.txn];
    {
      // One wasted round-trip per abort: the latency the failed attempt
      // burned before validation killed it.
      static MetricHistogram& h_wasted =
          metrics::histogram("optimistic.wasted_steps");
      h_wasted.record(static_cast<std::uint64_t>(latency[a.txn]));
    }
    if (++retries[a.txn] > opts.max_retries) {
      std::ostringstream os;
      os << "T" << a.txn << " exceeded " << opts.max_retries << " retries";
      out.ok = false;
      out.error = os.str();
      return out;
    }
    const Time base = latency[a.txn]
                      << std::min(retries[a.txn], opts.backoff_cap);
    const Time delay =
        1 + static_cast<Time>(rng.uniform(0, static_cast<std::uint64_t>(
                                                 std::max<Time>(base - 1, 0))));
    const Time start = a.commit_point + delay;
    calendar.push({start + latency[a.txn], a.txn, start});
  }

  out.throughput = static_cast<double>(out.commits) /
                   static_cast<double>(std::max<Time>(out.makespan, 1));
  metrics::count("optimistic.commits", out.commits);
  metrics::count("optimistic.aborts", out.aborts);
  // Distribution view of the contention cost: retries per transaction and
  // end-to-end arrival -> commit latency (scheduler-vs-optimistic
  // comparisons become latency comparisons, not just throughput).
  static MetricHistogram& h_retries = metrics::histogram("optimistic.retries");
  static MetricHistogram& h_latency =
      metrics::histogram("optimistic.latency.arrival_to_commit");
  for (TxnId t = 0; t < n; ++t) {
    h_retries.record(retries[t]);
    h_latency.record(static_cast<std::uint64_t>(
        out.commit_time[t] - std::max<Time>(arrival[t], 0)));
  }
  return out;
}

}  // namespace dtm
