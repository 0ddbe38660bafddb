// Online schedulers (paper's open question #1), behind an incremental
// arrival-driven feed.
//
// The historic interface was clairvoyant by accident: run_online(inst,
// metric, arrival) handed implementations the complete arrival vector up
// front, and only convention stopped them from peeking at future releases.
// The feed interface makes the online constraint structural: transactions
// reach a scheduler one at a time through push(t, arrival), in release
// order, and the scheduler fixes commit decisions knowing only what has
// been pushed so far. advance_to(t) declares that no release earlier than
// t remains (window-batched implementations use it to flush closed
// windows); finish() ends the stream and returns the schedule.
//
//  * OnlineFifoScheduler — dispatch immediately: when T is pushed, append
//    it to each of its objects' visit chains and commit it at the earliest
//    step satisfying the chain constraints and its release time. This is
//    the online analog of the §2.3 greedy with first-fit disabled (no gap
//    filling — chains only grow at the tail, which is what an online
//    scheduler without future knowledge can safely do).
//  * OnlineBatchScheduler — accumulate pushes into windows of `window`
//    steps; when a window closes (a push lands in a later window, or
//    advance_to/finish passes the close) run the offline §2.3 greedy
//    coloring on the batch and append it after the current horizon. Within
//    a batch the offline guarantees apply, so the competitive factor is
//    O(k·ℓ_batch) per window plus the windowing delay.
//
// run_online(inst, metric, arrival) survives as a NON-virtual adapter that
// replays a full arrival vector through the feed in release order — it is
// bit-identical to the historic clairvoyant entry point (pinned by
// online_test's feed-identity suite and the recorded BENCH_online.json).
// Scheduler::run() routes through the same adapter with every release
// explicitly at step 0 — offline use of an online algorithm is a stated
// conversion, not a silent default.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/online.hpp"
#include "sched/greedy.hpp"
#include "sched/scheduler.hpp"
#include "util/metrics.hpp"

namespace dtm {

/// Base for online algorithms. Lifecycle: begin_feed() binds the
/// transaction universe, push()/advance_to() stream releases in
/// non-decreasing time order, finish() returns the schedule and ends the
/// feed. The adapter entry points (run_online / run) drive the same
/// lifecycle internally.
class OnlineScheduler : public Scheduler {
 public:
  // --- incremental feed (the online interface) -----------------------
  /// Starts a feed over `inst`'s transactions. The instance is the
  /// *universe* (homes, object sets); a transaction's data may only be
  /// consulted once it has been pushed. Both references must outlive the
  /// feed.
  void begin_feed(const Instance& inst, const Metric& metric);

  /// Releases transaction t at step `arrival`. Pushes must arrive in
  /// non-decreasing `arrival` order (same-step ties in push order — the
  /// adapter uses ascending TxnId) and each transaction at most once.
  void push(TxnId t, Time arrival);

  /// Declares that no release earlier than step t remains, letting
  /// window-batched implementations flush every window closing at or
  /// before t. Monotone; push(_, a) with a >= t stays legal afterwards.
  void advance_to(Time t);

  /// Ends the feed and returns the schedule over every pushed
  /// transaction. Never-pushed transactions keep commit time 0 and appear
  /// in no visit chain — validate_online rejects such schedules (their
  /// recorded arrival is kNeverReleased).
  Schedule finish();

  /// Arrival step of each transaction as the feed saw it (recorded by
  /// push); kNeverReleased for transactions never pushed. Valid from
  /// begin_feed until the next begin_feed, so callers can validate a
  /// finished schedule against what the feed actually released:
  ///   validate_online(inst, metric, sched.feed_arrivals(), s)
  const ArrivalTimes& feed_arrivals() const { return arrivals_; }

  // --- adapters over the feed ----------------------------------------
  /// Replays a full arrival vector through the feed in release order
  /// (stable: same-step ties by ascending TxnId). Bit-identical to the
  /// historic clairvoyant run_online.
  Schedule run_online(const Instance& inst, const Metric& metric,
                      std::span<const Time> arrival);

  /// Offline use is explicit: every transaction is released at step 0
  /// through the feed adapter. (Historically this defaulted silently;
  /// the conversion is now part of the documented contract.)
  Schedule run(const Instance& inst, const Metric& metric) override {
    return run_online(inst, metric, ArrivalTimes(inst.num_transactions(), 0));
  }

 protected:
  // Implementation hooks, called with the lifecycle already validated.
  virtual void on_begin() = 0;
  virtual void on_push(TxnId t, Time arrival) = 0;
  /// Time advanced past t with no intervening release; default no-op.
  virtual void on_advance(Time t) { (void)t; }
  virtual Schedule on_finish() = 0;

  const Instance& feed_instance() const {
    DTM_ASSERT(inst_ != nullptr);
    return *inst_;
  }
  const Metric& feed_metric() const {
    DTM_ASSERT(metric_ != nullptr);
    return *metric_;
  }

 private:
  const Instance* inst_ = nullptr;
  const Metric* metric_ = nullptr;
  ArrivalTimes arrivals_;
  Time feed_now_ = 0;  // latest release/advance step seen
  bool feeding_ = false;
};

class OnlineFifoScheduler final : public OnlineScheduler {
 public:
  std::string name() const override { return "online-fifo"; }

 protected:
  void on_begin() override;
  void on_push(TxnId t, Time arrival) override;
  Schedule on_finish() override;

 private:
  std::unique_ptr<ScopedPhaseTimer> timer_;  // spans the feed
  std::vector<Time> commit_;
  std::vector<std::vector<TxnId>> chains_;
  std::vector<Time> tail_time_;
  std::vector<NodeId> tail_pos_;
};

/// Window placement shared by OnlineBatchScheduler and the streaming
/// runtime (sim/runtime.hpp). Owns each object's tail position (the node of
/// its last placed requester) and the live horizon. A colored batch whose
/// window closes at `close` starts at base = max(horizon, close - 1) plus
/// the worst transition from an object's tail to its first requester in the
/// batch. Feasibility is by construction: the triangle inequality covers
/// every in-batch hop once the batch starts after the transition.
///
/// The visit chains are not stored. Each window starts at or after the
/// horizon and its members commit at start + local_time >= start + 1, so a
/// later window commits strictly later, and inside a window an object's
/// requesters visit in (local_time, id) order. An object's chain is thus
/// its placed requesters by (commit time, id), which placed_object_orders
/// (core/schedule.hpp) derives on demand.
class WindowPlacer {
 public:
  WindowPlacer() = default;
  /// Every object at its initial node.
  explicit WindowPlacer(std::vector<NodeId> object_home)
      : pos_(std::move(object_home)) {}

  /// Places `colored` and returns its start offset: batch member i commits
  /// at offset + colored.local_time[i]. `home(t)` is transaction t's node
  /// and `objects(t)` its object set. Costs O(batch·k) after the first
  /// call: only the objects the batch touches are visited.
  template <class HomeOf, class ObjectsOf>
  Time place(const Metric& metric, const ColoredSubset& colored, Time close,
             const HomeOf& home, const ObjectsOf& objects);

 private:
  /// An object's first and last requester within the batch being placed.
  struct BatchVisit {
    Time first_t = kInfiniteWeight;
    Time last_t = 0;
    NodeId first_v = kInvalidNode;
    NodeId last_v = kInvalidNode;
  };

  std::vector<NodeId> pos_;  // chain-tail positions
  Time horizon_ = 0;
  // Reused place() scratch: visits_ is all-default between calls (touched_
  // lists the entries to reset).
  std::vector<BatchVisit> visits_;
  std::vector<ObjectId> touched_;
};

template <class HomeOf, class ObjectsOf>
Time WindowPlacer::place(const Metric& metric, const ColoredSubset& colored,
                         Time close, const HomeOf& home,
                         const ObjectsOf& objects) {
  const std::size_t n = colored.txns.size();
  visits_.resize(pos_.size());
  // First/last requester per touched object within the batch.
  for (std::size_t i = 0; i < n; ++i) {
    const TxnId t = colored.txns[i];
    for (ObjectId o : objects(t)) {
      BatchVisit& v = visits_[o];
      if (v.first_v == kInvalidNode) touched_.push_back(o);
      if (colored.local_time[i] < v.first_t) {
        v.first_t = colored.local_time[i];
        v.first_v = home(t);
      }
      if (colored.local_time[i] >= v.last_t) {
        v.last_t = colored.local_time[i];
        v.last_v = home(t);
      }
    }
  }
  Weight transition = 0;
  for (ObjectId o : touched_) {
    transition =
        std::max(transition, metric.distance(pos_[o], visits_[o].first_v));
  }
  const Time start = std::max(horizon_, close - 1) + transition;
  for (ObjectId o : touched_) {
    pos_[o] = visits_[o].last_v;
    visits_[o] = {};
  }
  touched_.clear();
  horizon_ = std::max(horizon_, start + colored.duration);
  return start;
}

/// One window of a window-batched schedule: the batch's dependency graph,
/// its §2.3 greedy coloring, and the start offset the placer gave it
/// (member i commits at start + colored.local_time[i]).
struct WindowStep {
  DependencyGraph graph;
  ColoredSubset colored;
  Time start = 0;
};

/// The window step OnlineBatchScheduler and the streaming runtime share:
/// builds H over `batch` from its own object sets (each edge queried
/// once), colors it with the §2.3 greedy under `rule` and places it with
/// `placer` for a window closing at `close`. `home(t)` and `objects(t)` are
/// transaction t's node and object set.
template <class HomeOf, class ObjectsOf>
WindowStep window_step(WindowPlacer& placer, const Metric& metric,
                       std::span<const TxnId> batch, Time close,
                       ColoringRule rule, const HomeOf& home,
                       const ObjectsOf& objects) {
  WindowStep step;
  step.graph = build_dependency_graph(metric, batch, home, objects);
  step.colored = greedy_color(step.graph, rule);
  step.start = placer.place(metric, step.colored, close, home, objects);
  return step;
}

struct OnlineBatchOptions {
  /// Window length in steps; releases within the same window form a batch.
  Time window = 16;
  ColoringRule rule = ColoringRule::kFirstFit;
};

class OnlineBatchScheduler final : public OnlineScheduler {
 public:
  explicit OnlineBatchScheduler(OnlineBatchOptions opts = {});

  std::string name() const override;

  /// Number of non-empty batches in the last (finished) feed.
  std::size_t last_batches() const { return last_batches_; }

 protected:
  void on_begin() override;
  void on_push(TxnId t, Time arrival) override;
  void on_advance(Time t) override;
  Schedule on_finish() override;

 private:
  /// Colors and appends the open batch after the current horizon.
  void flush_batch();

  OnlineBatchOptions opts_;
  std::size_t last_batches_ = 0;

  std::unique_ptr<ScopedPhaseTimer> timer_;  // spans the feed
  std::vector<Time> commit_;
  WindowPlacer placer_;
  std::vector<TxnId> batch_;   // open window's releases, push order
  Time batch_window_ = 0;      // open window's index (batch_ nonempty)
};

}  // namespace dtm
