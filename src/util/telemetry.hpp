// Compatibility shim: the telemetry registry is MetricsRegistry
// (util/metrics.hpp). perfbench/driver.cpp still names the old types; the
// next change to the benchmark moves it to the new names and deletes this
// header.
#pragma once

#include "util/metrics.hpp"

namespace dtm {

using TelemetryRegistry = MetricsRegistry;
using TelemetrySnapshot = MetricsSnapshot;

}  // namespace dtm
