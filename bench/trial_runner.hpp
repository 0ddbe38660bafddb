// Deterministic parallel trial driver for the experiment benches.
//
// Trials are seeded and independent, so they fan out across the shared
// ThreadPool. Each trial writes its samples into its own slot of a
// per-trial array and the Stats accumulators are then filled serially in
// trial order, so every series value (lower bound, makespan, ratio,
// communication) is bit-identical to a serial run regardless of worker
// count. Nested fan-out is fine: compute_bounds inside a trial reuses the
// same shared pool through parallel_for_blocks' caller-participation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "lb/bounds.hpp"
#include "sched/scheduler.hpp"
#include "util/parallel_for.hpp"
#include "util/stats.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace dtm::benchutil {

/// Peak resident set size of this process, in bytes; 0 where the platform
/// offers no getrusage. Linux reports ru_maxrss in KiB, macOS in bytes.
/// Informational only: every BENCH_*.json artifact records it so memory
/// blowups are visible in review, but bench_compare never gates on it
/// (it varies with allocator and machine, not with correctness).
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

struct TrialSummary {
  Stats makespan;
  Stats lower_bound;
  Stats ratio;
  Stats communication;
};

/// Runs `trials` seeded repetitions: build instance -> schedule -> validate
/// -> bound -> accumulate. `make_instance(seed)` returns a fresh instance;
/// `make_scheduler(inst, seed)` a fresh scheduler for that instance (the
/// instance-aware signature exists so benches can route through
/// `make_scheduler_for`, which recovers topology-specific schedulers from
/// the instance's graph). Trials run concurrently on the shared pool, so
/// both callbacks must be safe to call from several threads at once (derive
/// everything from the seed; synchronize any mutable capture). Each trial
/// contributes one sample to the phase timers (schedulers/bounds add their
/// own phases). `pool` overrides the shared pool (tests use it to prove
/// worker count cannot change the summary).
inline TrialSummary run_trials(
    const Metric& metric,
    const std::function<Instance(std::uint64_t)>& make_instance,
    const std::function<std::unique_ptr<Scheduler>(const Instance&,
                                                   std::uint64_t)>&
        make_scheduler,
    int trials, std::uint64_t seed0, ThreadPool* pool = nullptr) {
  struct TrialResult {
    double makespan = 0;
    double bound = 1;
    double communication = 0;
  };
  std::vector<TrialResult> results(
      trials > 0 ? static_cast<std::size_t>(trials) : 0);
  parallel_for(pool != nullptr ? *pool : shared_pool(), results.size(),
               [&](std::size_t t) {
    metrics::count("bench.trials");
    const std::uint64_t seed = seed0 + t;
    const Instance inst = make_instance(seed);
    auto sched = make_scheduler(inst, seed);
    const Schedule s = [&] {
      ScopedPhaseTimer timer("phase.schedule");
      return sched->run(inst, metric);
    }();
    const ValidationResult vr = [&] {
      ScopedPhaseTimer timer("phase.validation");
      return validate(inst, metric, s);
    }();
    DTM_REQUIRE(vr.ok, "bench produced infeasible schedule: " << vr.summary());
    const InstanceBounds lb = compute_bounds(inst, metric);
    results[t].makespan = static_cast<double>(s.makespan());
    results[t].bound = static_cast<double>(std::max<Time>(lb.makespan_lb, 1));
    results[t].communication =
        static_cast<double>(compute_metrics(inst, metric, s).communication);
  });
  TrialSummary out;
  for (const TrialResult& r : results) {
    out.makespan.add(r.makespan);
    out.lower_bound.add(r.bound);
    out.ratio.add(r.makespan / r.bound);
    out.communication.add(r.communication);
  }
  return out;
}

/// Seed-only factory convenience for schedulers that don't need the
/// instance (topology-agnostic algorithms constructed by options).
inline TrialSummary run_trials(
    const Metric& metric,
    const std::function<Instance(std::uint64_t)>& make_instance,
    const std::function<std::unique_ptr<Scheduler>(std::uint64_t)>&
        make_scheduler,
    int trials, std::uint64_t seed0, ThreadPool* pool = nullptr) {
  return run_trials(
      metric, make_instance,
      std::function<std::unique_ptr<Scheduler>(const Instance&,
                                               std::uint64_t)>(
          [&make_scheduler](const Instance&, std::uint64_t seed) {
            return make_scheduler(seed);
          }),
      trials, seed0, pool);
}

}  // namespace dtm::benchutil
