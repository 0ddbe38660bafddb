// Structured execution tracing: Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) and a compact deterministic JSONL stream
// for diffing.
//
// A trace has two clock domains, recorded in two places:
//  * sim domain  — timestamps are engine steps (the §2.1 synchronous
//    clock). They come from one engine run's log (SimResult::events,
//    sim/engine.hpp), formatted into TraceSpanRecords at export
//    (sim/trace_analysis.hpp trace_records): per-object leg spans on
//    per-link tracks, transaction lifetime spans on per-node tracks,
//    queue waits on the queued link's track, and fault/reroute/retry/
//    degraded markers as instants. The log is in the engine's own
//    deterministic order, so the JSONL export of a seeded run is
//    byte-identical across runs — that is the diffable artifact.
//  * wall domain — timestamps are microseconds since the recorder epoch.
//    Every ScopedPhaseTimer (schedulers, APSP, bounds, simulate) doubles
//    as a phase span in the process-wide TraceRecorder, and ThreadPool
//    workers tag their spans with a per-worker track. Wall times are not
//    deterministic, so the JSONL export skips this domain; the Chrome
//    export shows it as a second process ("host phases").
//
// Cost model (same discipline as metrics.hpp): enabled() is one relaxed
// atomic load, and the recorder ships DISABLED — a run that never opts in
// takes no mutex and allocates nothing. Recording a wall span takes the
// recorder mutex.
//
// Thread-safety: all mutating calls are mutex-guarded; enabled is a
// relaxed atomic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dtm {

/// One integer-valued annotation on an event (exported under "args").
struct TraceArg {
  std::string key;
  std::int64_t value = 0;

  friend bool operator==(const TraceArg&, const TraceArg&) = default;
};

/// One exported span or instant. `begin`/`end` are steps in the sim
/// domain and microseconds since the recorder epoch in the wall domain.
/// `cat` is the "cat" field of the export: "leg", "txn", "queue",
/// "fault" or "resched" in the sim domain, "phase" in the wall domain.
struct TraceSpanRecord {
  const char* cat = "phase";
  bool instant = false;
  double begin = 0;
  double end = 0;
  std::string track;
  std::string name;
  std::vector<TraceArg> args;
};

/// The wall-domain recorder, plus the provenance stamped into exports.
class TraceRecorder {
 public:
  TraceRecorder();

  /// Process-wide recorder used by all built-in instrumentation sites.
  static TraceRecorder& global();

  /// Tracing is opt-in: the recorder starts disabled and records nothing
  /// until a tool (dtm_cli --trace-out, bench_faults --trace-out, a test)
  /// turns it on.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded span and provenance field and resets the wall
  /// epoch. Does not change the enabled flag.
  void clear();

  /// Records a "phase" span from steady_clock points; the track is the
  /// calling thread's track (see set_thread_track), "main" by default.
  void wall_span(std::string name,
                 std::chrono::steady_clock::time_point begin,
                 std::chrono::steady_clock::time_point end);

  /// Names the calling thread's wall-domain track (ThreadPool workers call
  /// this once per thread: "worker 0", "worker 1", ...).
  static void set_thread_track(std::string track);

  /// Run-provenance fields merged into every export next to the build info
  /// (git sha / build type / compiler) that is always stamped.
  void set_provenance(const std::map<std::string, std::string>& fields);
  /// The full manifest as exported: build info plus set_provenance fields.
  std::map<std::string, std::string> provenance() const;

  /// Snapshot of every recorded wall span, in recording order.
  std::vector<TraceSpanRecord> events() const;
  std::size_t size() const;

  /// Chrome trace-event JSON: {"traceEvents": [...], "otherData":
  /// {"schema": "dtm-trace-chrome-v1", "provenance": {...}}}. The `sim`
  /// records (one run's, in log order) are process 0, with sim steps as
  /// microseconds in the viewer (1 step = 1us); this recorder's wall spans
  /// are process 1. Track tids are assigned by sorted track name, so the
  /// export of a deterministic run is itself deterministic.
  std::string to_chrome_json(const std::vector<TraceSpanRecord>& sim) const;

  /// Deterministic JSONL: line 1 is {"schema": "dtm-trace-jsonl-v1",
  /// "provenance": {...}}, then one `sim` record per line in order with
  /// args sorted by key. Wall spans are left out (their timestamps are
  /// wall-clock and would break byte-identical diffing).
  std::string to_jsonl(const std::vector<TraceSpanRecord>& sim) const;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  mutable std::mutex mu_;
  std::vector<TraceSpanRecord> events_;
  std::map<std::string, std::string> provenance_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
};

}  // namespace dtm
