// Structured execution tracing: spans and instant events over the
// engine's simulated timeline plus wall-clock phase spans, collected in a
// process-wide TraceRecorder and exported as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing) or as a compact deterministic
// JSONL stream for diffing.
//
// Two clock domains share one recorder:
//  * sim domain  — timestamps are engine steps (the §2.1 synchronous
//    clock). Per-object leg spans live on per-link tracks, transaction
//    lifetime spans on per-node tracks, queue waits on the queued link's
//    track, and fault/reroute/retry/degraded markers are instants. Sim
//    events are recorded by the single-threaded engine in deterministic
//    order, so the JSONL export of a seeded run is byte-identical across
//    runs — that is the diffable artifact.
//  * wall domain — timestamps are microseconds since the recorder epoch.
//    Every ScopedPhaseTimer (schedulers, APSP, bounds, simulate) doubles
//    as a phase span here, and ThreadPool workers tag their spans with a
//    per-worker track. Wall times are not deterministic, so the JSONL
//    export skips this domain; the Chrome export shows it as a second
//    process ("host phases").
//
// Cost model (same discipline as metrics.hpp): enabled() is one relaxed
// atomic load, and the recorder ships DISABLED — a run that never opts in
// takes no mutex and allocates nothing. Instrumentation sites either check
// enabled() or hold a pointer resolved once per run (the engine's
// pattern). Recording takes the recorder mutex per event; the engine emits
// O(legs + commits) events per run, far off any inner loop.
//
// Thread-safety: all mutating calls are mutex-guarded; enabled is a
// relaxed atomic. Span ids are assigned under the mutex, so begin/end
// pairs match even when wall-domain spans from pool workers interleave.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dtm {

/// Event category; also the "cat" field of the exported events.
enum class TraceCat { kLeg, kTxn, kQueue, kFault, kPhase, kResched };

const char* to_string(TraceCat cat);

/// One integer-valued annotation on an event (exported under "args").
struct TraceArg {
  std::string key;
  std::int64_t value = 0;

  friend bool operator==(const TraceArg&, const TraceArg&) = default;
};

/// One recorded span or instant. `begin`/`end` are steps in the sim
/// domain and microseconds since the recorder epoch in the wall domain.
struct TraceSpanRecord {
  std::uint64_t id = 0;
  TraceCat cat = TraceCat::kPhase;
  bool instant = false;
  bool wall = false;
  bool open = false;  // begun but never ended (a recording bug)
  double begin = 0;
  double end = 0;
  std::string track;
  std::string name;
  std::vector<TraceArg> args;
};

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

  /// Drops every recorded event and provenance field and resets the span
  /// id counter and wall epoch. Does not change the enabled flag.
  void clear();

  /// Opens a sim-domain span; returns its id (0 when disabled — end_span
  /// accepts and ignores id 0).
  std::uint64_t begin_span(TraceCat cat, std::string track, std::string name,
                           double t, std::vector<TraceArg> args = {});
  void end_span(std::uint64_t id, double t);

  /// Records a complete sim-domain span / instant in one call.
  void span(TraceCat cat, std::string track, std::string name, double begin,
            double end, std::vector<TraceArg> args = {});
  void instant(TraceCat cat, std::string track, std::string name, double t,
               std::vector<TraceArg> args = {});

  /// Records a wall-domain span from steady_clock points; the track is the
  /// calling thread's track (see set_thread_track), "main" by default.
  void wall_span(TraceCat cat, std::string name,
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

  /// Snapshot of every recorded event, in recording order.
  std::vector<TraceSpanRecord> events() const;
  std::size_t size() const;

  /// Chrome trace-event JSON: {"traceEvents": [...], "otherData":
  /// {"schema": "dtm-trace-chrome-v1", "provenance": {...}}}. Sim steps map
  /// to microseconds in the viewer (1 step = 1us); wall phases appear as a
  /// second process. Track tids are assigned by sorted track name, so the
  /// export of a deterministic run is itself deterministic.
  std::string to_chrome_json() const;

  /// Deterministic JSONL: line 1 is {"schema": "dtm-trace-jsonl-v1",
  /// "provenance": {...}}, then one sim-domain event per line in recording
  /// order with args sorted by key. Wall-domain events are skipped (their
  /// timestamps are wall-clock and would break byte-identical diffing).
  std::string to_jsonl() const;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  mutable std::mutex mu_;
  std::vector<TraceSpanRecord> events_;
  std::map<std::string, std::string> provenance_;
  std::uint64_t next_id_ = 1;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
};

}  // namespace dtm
