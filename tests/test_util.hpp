// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/metrics.hpp"

namespace dtm::test {

/// An owning copy of an instance's object set or requester list (gtest
/// compares vectors, not spans).
template <class T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

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

/// Asserts that two instances hold the same transactions, requester lists,
/// node slots and object homes.
inline void expect_same_instance(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_transactions(), b.num_transactions());
  ASSERT_EQ(a.num_objects(), b.num_objects());
  ASSERT_EQ(a.graph().num_nodes(), b.graph().num_nodes());
  for (TxnId t = 0; t < a.num_transactions(); ++t) {
    EXPECT_EQ(a.home(t), b.home(t)) << "T" << t;
    EXPECT_EQ(to_vector(a.objects(t)), to_vector(b.objects(t))) << "T" << t;
  }
  for (ObjectId o = 0; o < a.num_objects(); ++o) {
    EXPECT_EQ(to_vector(a.requesters(o)), to_vector(b.requesters(o)))
        << "o" << o;
    EXPECT_EQ(a.object_home(o), b.object_home(o)) << "o" << o;
  }
  for (NodeId v = 0; v < a.graph().num_nodes(); ++v) {
    EXPECT_EQ(a.txn_at(v), b.txn_at(v)) << "node " << v;
  }
}

/// Offset arrays written so far by row-built graphs.
inline std::uint64_t offsets_written_count() {
  return metrics::counter("graph.offsets_written").value();
}

}  // namespace dtm::test
