// The unified execution engine behind every simulator in this repo.
//
// The paper's §2.1 operational model — objects travel hop-by-hop along
// shortest paths (an edge of weight d takes d steps), a node can receive
// objects, execute its transaction, and forward objects within one step —
// used to be implemented three times: the reliable/faulty schedule
// simulator, the bounded-capacity re-executor, and the congestion
// analyzer's leg walker. This engine is the single time-ordered core that
// advances object *legs* (depart -> hops -> arrive) and transaction
// commits over one shared timeline; everything substrate-specific (how
// long a leg takes, whether it queues, what faults do to it) lives behind
// the LinkPolicy interface (sim/link_policy.hpp).
//
// Two driving modes, selected by the policy:
//  * analytic  — the policy resolves each leg to an absolute arrival time
//    at launch (UnboundedLinks, FaultyLinks), so the engine jumps from
//    commit to commit in scheduled order without touching the steps in
//    between;
//  * stepwise  — the policy queues legs on links with bounded capacity
//    (BoundedCapacityLinks, optionally wrapped by FaultyLinks) and the
//    engine drives the clock one step at a time: progress traversals,
//    fire commits, admit queued objects.
//
// Commit disciplines:
//  * kPlannedStrict   — a transaction commits exactly at its scheduled
//    step or the run records a violation (the validator's operational
//    twin; the reliable simulate() path);
//  * kPlannedDegraded — late objects stall the commit to the first
//    feasible step instead of violating; the realized-vs-planned gap is
//    tallied (fault recovery, and planned execution under capacity);
//  * kEarliest        — scheduled times are ignored; a transaction
//    commits at the first step all its objects have assembled
//    (SimOptions::earliest_commit: re-execute only the visit orders).
//
// simulate() (sim/simulator.hpp) is the one entry point over the engine:
// it picks the LinkPolicy and discipline from SimOptions. The engine's
// SimResult carries fault/recovery tallies and, when record_events is set,
// the run's one log (SimResult::events): object moves, commits, legs,
// queue waits, faults, degraded commits and splices (SimEvent says in
// what order). Trace export and analysis read that log
// (sim/trace_analysis.hpp); telemetry counters go to the global registry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/instance.hpp"
#include "core/partial.hpp"
#include "core/schedule.hpp"
#include "graph/metric.hpp"
#include "sim/faults.hpp"

namespace dtm {

/// One record of an engine run's log (SimResult::events). Records are
/// fixed-size and hold no strings: track and span names are formatted at
/// export (sim/trace_analysis.hpp). Fields per kind ("-" = unused):
///
///   kind         time        since            other fields
///   kDepart      departure   -                object; node it leaves
///   kHop         hop done    -                object; node reached
///   kArrive      arrival     -                object; node = leg target
///   kCommit      realized    assembly step    txn; node = its home; planned
///   kLeg         arrival     departure        object, leg, from -> node,
///                                             txn served, prev (releasing
///                                             commit; kInvalidTxn on leg 0),
///                                             redirect (launched by a splice)
///   kQueueWait   admission   queued since     object, leg; link from-node
///   kFault       the step    -                fault; link from-node; object
///                                             (kInvalidObject when the fault
///                                             is not one object's)
///   kDegraded    realized    -                txn; node = its home; planned
///   kReschedule  the splice  time - lag       (lag: steps behind the plan)
///
/// kDepart, kHop and kArrive are the moves; kHop is logged only with
/// record_hops. Every launched leg, zero-distance handoffs included, has
/// one kLeg record; a leg of object o is released by prev's commit.
///
/// Order: the moves and commits are non-decreasing in time across the log
/// (stable: same-step records in run order). Each other record sits where
/// the run appended it, which is the order the trace export writes.
struct SimEvent {
  /// kNone is the explicit "empty" kind: a default-constructed event is
  /// inert and cannot masquerade as a commit in event-log consumers.
  enum class Kind : std::uint8_t {
    kNone,
    kDepart,
    kHop,
    kArrive,
    kCommit,
    kLeg,
    kQueueWait,
    kFault,
    kDegraded,
    kReschedule,
  };
  enum class Fault : std::uint8_t { kNone, kOutage, kReroute, kLoss, kSlowdown };

  Time time = 0;
  Kind kind = Kind::kNone;
  ObjectId object = kInvalidObject;
  TxnId txn = kInvalidTxn;
  NodeId node = kInvalidNode;
  NodeId from = kInvalidNode;
  TxnId prev = kInvalidTxn;
  std::uint32_t leg = 0;
  Fault fault = Fault::kNone;
  bool redirect = false;
  Time since = 0;
  Time planned = 0;

  /// Moves and commits: the records the log keeps in time order.
  bool chronological() const {
    return kind == Kind::kDepart || kind == Kind::kHop ||
           kind == Kind::kArrive || kind == Kind::kCommit;
  }

  friend bool operator==(const SimEvent&, const SimEvent&) = default;
};

/// One object-transfer leg: object `object` serves requester index `leg`
/// of its visit chain, departing `from` at step `depart` toward `to`.
/// Zero-distance handoffs (from == to) are included, one-to-one with the
/// engine's kLeg records; analyses skip them.
struct LegRecord {
  ObjectId object = kInvalidObject;
  std::size_t leg = 0;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Time depart = 0;

  friend bool operator==(const LegRecord&, const LegRecord&) = default;
};

enum class CommitDiscipline { kPlannedStrict, kPlannedDegraded, kEarliest };

struct EngineConfig {
  CommitDiscipline discipline = CommitDiscipline::kPlannedStrict;

  /// Keep the run's log (SimResult::events); kHop moves are logged too
  /// when `record_hops` is set (costly on weighted graphs).
  bool record_events = false;
  bool record_hops = false;

  /// When false the run touches no telemetry counters at all — the
  /// earliest-commit re-execution historically reported nothing, and
  /// keeping it silent keeps recorded bench counter totals stable.
  bool telemetry = true;

  /// Stepwise guard: abort (with a violation) if this many steps elapse
  /// without completing; 0 = no limit. Ignored by analytic policies.
  Time max_steps = static_cast<Time>(1) << 22;

  /// kPlannedDegraded only: a commit stalled beyond this bound is reported
  /// as a violation (RecoveryPolicy::max_commit_stall's seat in the
  /// engine).
  Time max_commit_stall = static_cast<Time>(1) << 20;

  /// Mid-run rescheduling (stepwise + kPlannedDegraded only): when set,
  /// the engine monitors realized lag behind the plan and, per
  /// `reschedule`, hands the partial execution state to this hook; a
  /// non-null replacement schedule is spliced in at the commit seam
  /// (committed prefix preserved, in-flight legs complete first, parked
  /// objects redirected). Unset keeps every path bit-identical to the
  /// baseline engine.
  RescheduleFn reschedule_fn;
  ReschedulePolicy reschedule{};
};

/// The result of one engine run — what simulate() returns, and what direct
/// Engine drivers (the streaming runtime's replay check, tests) read.
struct SimResult {
  bool ok = true;
  std::vector<std::string> violations;

  /// Last *scheduled* commit step among executed transactions (what the
  /// scheduler promised); 0 under kEarliest, which discards the plan. Only
  /// meaningful when ok.
  Time planned_makespan = 0;
  /// Last commit step actually realized on the (possibly faulty or
  /// capacity-bounded) substrate; == planned_makespan on a reliable
  /// unbounded network.
  Time realized_makespan = 0;

  /// Total realized distance traveled by all objects (detours taken while
  /// rerouting and slowdown surcharges count).
  Weight object_travel = 0;

  /// The run's log when record_events is set (see SimEvent for its
  /// order); deterministic for a seeded run.
  std::vector<SimEvent> events;

  /// Fault/recovery tallies; on a fault-free capacity run the degraded
  /// fields measure pure queueing inflation.
  FaultStats faults;

  /// Stepwise queue accounting (zero for analytic policies).
  Time total_queue_wait = 0;
  std::size_t max_queue_length = 0;

  /// Schedule splices applied by the reschedule hook (0 when disabled).
  std::size_t reschedules = 0;

  explicit operator bool() const { return ok; }
  std::string summary() const;
};

class LinkPolicy;
class SlackMonitor;
class MetricCounter;

/// One engine run: single-use (construct, run(), read the result).
///
/// The public hook block below result-mapping is the narrow mutation API
/// lent to LinkPolicy implementations for the duration of run(); it is not
/// meant for other callers.
class Engine {
 public:
  Engine(const Instance& inst, const Metric& metric, const Schedule& schedule,
         LinkPolicy& links, const EngineConfig& opts);
  ~Engine();

  SimResult run();

  // --- hooks for LinkPolicy implementations --------------------------
  const Metric& metric() const { return *metric_; }
  bool recording_events() const { return opts_.record_events; }
  bool recording_hops() const { return opts_.record_hops; }
  void push_event(const SimEvent& e) { r_.events.push_back(e); }
  void add_travel(Weight w) { r_.object_travel += w; }
  /// Records a violation; the run keeps executing (matching the historic
  /// simulators, which report everything they can salvage).
  void fail(const std::string& msg);
  /// Fault tallies: bump both the result's FaultStats and (when telemetry
  /// is on) the corresponding global counter.
  void note_injected();
  void note_retry();
  void note_reroute();
  /// Stepwise arrival: object `o` completed its current leg and now sits
  /// at its requester's node.
  void object_arrived(ObjectId o);
  /// Stepwise queue accounting, called once per step by the policy:
  /// `total` objects queued across all channels this step, `max_changed`
  /// the longest single queue among channels whose length changed since
  /// the last call. The running per-run maximum only moves when a queue
  /// it has not already folded grows past it, so unchanged channels need
  /// not be re-reported.
  void account_queues(std::size_t total, std::size_t max_changed);
  /// Logs a fault on link {u, v} at step `t` (object kInvalidObject when
  /// the fault is not one object's); no-op unless the run keeps a log.
  void log_fault(SimEvent::Fault fault, ObjectId object, NodeId u, NodeId v,
                 Time t) {
    if (!opts_.record_events) return;
    r_.events.push_back({.time = t,
                         .kind = SimEvent::Kind::kFault,
                         .object = object,
                         .node = v,
                         .from = u,
                         .fault = fault});
  }
  /// Logs that object `o` (chain index `leg`) sat queued on link {u, v}
  /// from `queued_since` until admitted at `now`; waits of zero steps are
  /// not logged.
  void log_queue_wait(ObjectId o, std::size_t leg, NodeId u, NodeId v,
                      Time queued_since, Time now) {
    if (!opts_.record_events || now <= queued_since) return;
    r_.events.push_back({.time = now,
                         .kind = SimEvent::Kind::kQueueWait,
                         .object = o,
                         .node = v,
                         .from = u,
                         .leg = static_cast<std::uint32_t>(leg),
                         .since = queued_since});
  }

 private:
  bool init();
  bool step();
  void finish();

  bool init_analytic();
  bool init_stepwise();
  bool step_analytic();
  bool step_stepwise();

  /// Launches object o's next leg at `now` (analytic: realized by the
  /// policy immediately; stepwise: enqueued). Instant handoffs
  /// (target == current node) are completed in place on stepwise
  /// substrates; analytic policies record them as zero-length legs like
  /// the historic simulators did.
  void launch_release_leg(ObjectId o, Time now);

  void process_planned_commit(TxnId t);
  void commit_stepwise(TxnId t, Time now);
  /// Stepwise: transaction `t` is fully assembled; file it for commit.
  /// Planned disciplines insert it into the commit calendar at
  /// max(commit_time, commit_floor_) — the step the old per-step ready
  /// scan would first have committed it; kEarliest appends to ready_.
  /// Pre-step-1 casualties (commit_blocked_) are dropped here, exactly
  /// where the scan used to drop them.
  void enqueue_ready(TxnId t);

  /// Reschedule seam (stepwise, after the step's commits): consult the
  /// slack monitor and, past the threshold, hand the partial state to the
  /// hook and splice its replacement schedule in.
  void maybe_reschedule();
  void apply_splice(std::unique_ptr<Schedule> next, Time lag);
  /// Launches object o toward its (new) next requester from wherever the
  /// splice left it parked — the only legs that do not depart at a
  /// releasing commit (tagged redirect:1 in the trace).
  void launch_redirect_leg(ObjectId o, Time now);

  /// Logs object o's leg `leg` from `from` to `to`, departing at `depart`.
  /// Zero-length handoffs are logged too: the critical-path walk follows
  /// the chain of legs backwards and must not find a hole where an object
  /// changed owners without moving. Stepwise legs that move are logged at
  /// launch with arrive == depart; finish() sets their arrival from the
  /// object's next kArrive.
  void log_leg(ObjectId o, std::size_t leg, NodeId from, NodeId to,
               Time depart, Time arrive, bool redirect = false);
  /// Logs t's commit at `realized` (and a kDegraded record when it
  /// stalled past its planned step under a planned discipline). The
  /// assembly step is the latest arrival stamp among t's objects.
  void log_commit(TxnId t, Time planned, Time realized);

  const Instance* inst_;
  const Metric* metric_;
  const Schedule* s_;
  LinkPolicy* links_;
  EngineConfig opts_;

  SimResult r_;

  // Per-object hot state, struct-of-arrays: the commit/release and
  // reschedule loops each touch only a couple of these fields per object,
  // so parallel dense vectors keep the scans on packed cache lines
  // instead of striding padded records. obj_order_[o] aliases
  // s_->object_order[o] and is re-pointed on every splice.
  std::vector<const std::vector<TxnId>*> obj_order_;
  std::vector<std::size_t> obj_next_leg_;
  std::vector<NodeId> obj_at_;
  std::vector<char> obj_in_transit_;
  // Arrival step of the object's current leg (analytic: resolved at
  // launch; stepwise: set when it lands). In a logged stepwise run a
  // splice that assembles a transaction also moves its objects' stamps to
  // the splice step: log_commit reads the assembly step from them.
  std::vector<Time> obj_arrival_;
  // Launch point of the current stepwise leg; feeds the conservative
  // arrival estimate handed to the reschedule hook for in-flight objects.
  std::vector<NodeId> obj_leg_from_;
  std::vector<Time> obj_leg_depart_;

  std::size_t num_objects() const { return obj_at_.size(); }

  // Analytic mode: commits processed in (commit_time, id) order.
  std::vector<TxnId> by_time_;
  std::size_t cursor_ = 0;

  // Stepwise mode: synchronous clock plus assembly bookkeeping.
  bool stepwise_ = false;
  Time clock_ = 0;
  std::vector<std::size_t> present_;
  std::vector<TxnId> ready_;  // kEarliest only: commit at next step
  // Planned disciplines: calendar of pending commits. due_[t] holds the
  // transactions eligible at step t in assembly order — the order the
  // retired O(ready) per-step scan would have committed them — so each
  // step drains one bucket instead of rescanning every waiting txn.
  bool use_calendar_ = false;
  std::unordered_map<Time, std::vector<TxnId>> due_;
  Time commit_floor_ = 1;  // earliest step the next commit drain can run
  std::size_t committed_count_ = 0;
  std::size_t commit_target_ = 0;
  std::vector<char> committed_;
  std::vector<char> commit_blocked_;  // scheduled before step 1 (violation)

  // Rescheduling (stepwise + kPlannedDegraded + reschedule_fn set; all of
  // this stays empty/zero otherwise so the baseline paths are untouched).
  bool resched_enabled_ = false;
  std::size_t resched_count_ = 0;
  Time next_resched_ = 0;              // cooldown gate
  std::vector<Time> realized_commit_;  // per-txn realized commit step
  std::vector<std::unique_ptr<Schedule>> spliced_;  // keeps s_ alive
  std::unique_ptr<SlackMonitor> monitor_;

  // Telemetry handles (null when opts_.telemetry is off).
  MetricCounter* legs_moved_ = nullptr;
  MetricCounter* commits_ = nullptr;
  MetricCounter* injected_ = nullptr;
  MetricCounter* retries_ = nullptr;
  MetricCounter* reroutes_ = nullptr;
  MetricCounter* degraded_ = nullptr;
  MetricCounter* inflation_ = nullptr;
};

/// The schedule's *planned* leg trace: every transfer the §2.1 execution
/// would perform, in object-major / leg-minor order, departing each
/// requester at its scheduled commit step (step 0 from home). Pure
/// bookkeeping over the schedule — defined even for infeasible schedules,
/// which is what the congestion analyzer wants (it measures the plan's
/// link pressure, not the execution's success).
std::vector<LegRecord> planned_leg_trace(const Instance& inst,
                                         const Schedule& schedule);

}  // namespace dtm
