// Tests for the util/telemetry.hpp compatibility shim: the old registry
// names alias MetricsRegistry, and the global-registry contract that
// perfbench/driver.cpp reads through them (reset, then counter deltas and
// timer totals from one snapshot) holds. The registry itself is tested in
// metrics_test.
#include <gtest/gtest.h>

#include <type_traits>

#include "util/telemetry.hpp"

namespace dtm {
namespace {

static_assert(std::is_same_v<TelemetryRegistry, MetricsRegistry>);
static_assert(std::is_same_v<TelemetrySnapshot, MetricsSnapshot>);

TEST(TelemetryShim, GlobalIsTheMetricsGlobal) {
  EXPECT_EQ(&TelemetryRegistry::global(), &MetricsRegistry::global());
  EXPECT_TRUE(TelemetryRegistry::global().enabled());
}

TEST(TelemetryShim, ResetThenSnapshotGivesDeltas) {
  TelemetryRegistry& g = TelemetryRegistry::global();
  metrics::count("telemetry_test.probe", 7);
  { ScopedPhaseTimer timer("telemetry_test.phase"); }
  g.reset();

  metrics::count("telemetry_test.probe", 3);
  { ScopedPhaseTimer timer("telemetry_test.phase"); }
  const TelemetrySnapshot snap = g.snapshot();
  EXPECT_EQ(snap.counters.at("telemetry_test.probe"), 3u);
  ASSERT_TRUE(snap.timers.count("telemetry_test.phase"));
  const TimerStats& ts = snap.timers.at("telemetry_test.phase");
  EXPECT_EQ(ts.count, 1u);
  EXPECT_GE(ts.total_ns, ts.min_ns);
}

// A timer that recorded nothing since the reset is left out of the
// snapshot, so a reader that treats an absent timer as 0 s is right.
TEST(TelemetryShim, IdleTimerIsAbsentAfterReset) {
  TelemetryRegistry& g = TelemetryRegistry::global();
  { ScopedPhaseTimer timer("telemetry_test.idle"); }
  g.reset();
  EXPECT_EQ(g.snapshot().timers.count("telemetry_test.idle"), 0u);
}

}  // namespace
}  // namespace dtm
