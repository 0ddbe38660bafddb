// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/metrics.hpp"

namespace dtm::test {

/// Runs a scheduler and asserts feasibility through BOTH the declarative
/// validator and the operational simulator; checks they agree on the
/// makespan. Returns the schedule for further assertions.
inline Schedule run_and_check(Scheduler& sched, const Instance& inst,
                              const Metric& metric) {
  Schedule s = sched.run(inst, metric);
  const ValidationResult vr = validate(inst, metric, s);
  EXPECT_TRUE(vr.ok) << sched.name() << ": " << vr.summary() << '\n'
                     << inst.describe();
  const SimResult sim = simulate(inst, metric, s);
  EXPECT_TRUE(sim.ok) << sched.name() << ": " << sim.summary() << '\n'
                      << inst.describe();
  if (vr.ok && sim.ok && inst.num_transactions() > 0) {
    EXPECT_EQ(sim.realized_makespan, s.makespan()) << sched.name();
  }
  return s;
}

/// Row arrays written so far by row-built graphs (see Graph::from_rows).
inline std::uint64_t materialized_count() {
  return metrics::counter("graph.materialized").value();
}

/// Offset arrays written so far by row-built graphs.
inline std::uint64_t offsets_written_count() {
  return metrics::counter("graph.offsets_written").value();
}

}  // namespace dtm::test
