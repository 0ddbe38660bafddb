// Post-run analysis and trace export over one engine run's log
// (SimResult::events, sim/engine.hpp): the formatted trace records that
// the Chrome and JSONL exports write, critical-path reconstruction,
// per-link utilization, top-k queue waits, and per-transaction slack.
// Shared by the tools that write traces (dtm_cli, bench_faults),
// tools/trace_summarize (which reads a trace file back into a log with
// log_record) and the tests that pin the critical-path invariant.
//
// The critical path is rebuilt backwards from the last-committing
// transaction: each commit is gated by the latest-arriving of its object
// legs (a WAIT segment covers any gap between that arrival and the
// commit, absorbing schedule slack, stepwise commit-processing steps, and
// degraded stalls; a TRANSFER segment covers the leg itself, queue time
// included), and each released leg departs exactly at its predecessor
// transaction's realized commit — so the segments tile [0, makespan]
// exactly and their lengths sum to the realized makespan. Any violation
// of that chain (missing records, depart != predecessor commit) lands in
// `problems` instead of being silently bridged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/engine.hpp"
#include "util/trace.hpp"

namespace dtm {

struct CriticalSegment {
  enum class Kind { kTransfer, kWait };
  Kind kind = Kind::kWait;
  Time begin = 0;
  Time end = 0;
  /// The commit this segment feeds.
  std::int64_t txn = -1;
  /// Gating object / leg (kTransfer only; -1 on waits).
  std::int64_t object = -1;
  std::int64_t leg = -1;
  std::int64_t from = -1;
  std::int64_t to = -1;

  Time length() const { return end - begin; }
};

struct LinkUtilization {
  std::string track;  // link_track of the link
  Time busy = 0;  // summed leg-span lengths (queue time included)
  std::size_t legs = 0;
};

struct QueueWaitEntry {
  std::string track;
  std::int64_t object = -1;
  std::int64_t leg = -1;
  Time begin = 0;
  Time end = 0;

  Time length() const { return end - begin; }
};

struct TxnSlack {
  std::int64_t txn = -1;
  Time assembled = 0;
  Time planned = 0;
  Time realized = 0;
  /// Commit-side wait: how long the transaction sat fully assembled
  /// before it committed (schedule slack + stepwise commit gaps).
  Time slack = 0;
};

/// Per-transaction arrival→commit latency distribution over the realized
/// commits witnessed by the log. Batch traces carry no arrival
/// steps, so arrival is step 0 and latency == realized commit step — the
/// same quantity the streaming runtime records (with true arrivals) into
/// the `stream.latency.arrival_to_commit` histogram, which makes the two
/// observability paths cross-checkable on all-zero-arrival instances.
struct LatencySummary {
  std::size_t count = 0;
  Time sum = 0;
  Time min = 0;
  Time max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Online form of the critical-path lag for the engine's reschedule seam.
/// The post-mortem walk attributes every step of realized makespan to
/// transfers and waits; while the run is still going the same quantity is
/// bounded below by two observables that need no backward walk: the worst
/// commit stall already paid (a WAIT the walk would find behind that
/// commit) and how far the oldest still-pending planned commit has slipped
/// past its step (the WAIT currently accumulating). `lag()` returns the
/// larger of the two; the engine compares it against
/// ReschedulePolicy::slack_threshold.
class SlackMonitor {
 public:
  /// (Re)arms the monitor against plan `planned`; transactions with
  /// done[t] != 0 are excluded (already committed, or never eligible).
  /// Forgets all previously observed stalls — call after every splice.
  void reset(const std::vector<Time>& planned, const std::vector<char>& done);

  /// Transaction t committed, `stall` steps behind its planned step.
  void on_commit(TxnId t, Time stall);

  /// Realized lag behind plan at step `now` (see class comment). Amortized
  /// O(1): the pending cursor only ever advances.
  Time lag(Time now);

 private:
  std::vector<std::pair<Time, TxnId>> by_planned_;  // pending, sorted
  std::vector<char> done_;
  std::size_t cursor_ = 0;
  Time max_stall_ = 0;
};

struct TraceSummary {
  /// Realized makespan as witnessed by the log (latest realized commit).
  Time makespan = 0;

  /// kReschedule records in the log (mid-run schedule splices).
  std::size_t reschedules = 0;

  /// Chronological critical path; segment lengths sum to `critical_total`.
  std::vector<CriticalSegment> critical_path;
  Time critical_total = 0;

  std::vector<LinkUtilization> links;         // sorted by busy desc
  std::vector<QueueWaitEntry> queue_waits;    // sorted by length desc, top-k
  std::vector<TxnSlack> slack;                // sorted by slack desc

  /// Arrival→commit latency over every committed transaction (see
  /// LatencySummary); count == number of kCommit records in the log.
  LatencySummary latency;

  /// Chain violations found while walking (empty on a healthy trace; a
  /// non-empty list means critical_total is not trustworthy).
  std::vector<std::string> problems;

  bool consistent() const {
    return problems.empty() && critical_total == makespan;
  }
};

/// Analyzes one engine run's log. `top_k` bounds the queue-wait list only.
TraceSummary summarize_trace(const std::vector<SimEvent>& log,
                             std::size_t top_k = 10);

/// The log's trace records in log order, tracks and names formatted:
///  * kLeg        — span "o<object>#<leg>" on the track "link <min>-<max>"
///    (both directions share it), args from, leg, object, prev (-1 on leg
///    0), to, txn, and redirect: 1 when a splice launched it;
///  * kCommit     — span "T<txn>" [assembly, commit] on "node <home>",
///    args planned, txn;
///  * kDegraded   — "fault" instant "degraded" on "node <home>", args
///    stall, txn;
///  * kQueueWait  — span "o<object> wait" on the link's track, args leg,
///    object;
///  * kFault      — "fault" instant "outage", "reroute", "loss" or
///    "slowdown" on the link's track, args object (-1 when not one
///    object's), u, v;
///  * kReschedule — "resched" instant "reschedule" on "scheduler", args
///    index (1-based), lag.
/// Moves (kDepart, kHop, kArrive) are not trace records.
std::vector<TraceSpanRecord> trace_records(const std::vector<SimEvent>& log);

/// The inverse of trace_records for one record, whose times are whole steps
/// that a Time holds: the log record `r` was formatted from (a queue wait's
/// link comes back as min -> max). A record no log record formats to, a
/// wall-domain phase span among them, gives a kNone record.
SimEvent log_record(const TraceSpanRecord& r);

}  // namespace dtm
