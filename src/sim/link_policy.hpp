// Link substrates for the execution engine (sim/engine.hpp).
//
// A LinkPolicy answers one question for the engine: what actually happens
// to an object leg on the network. Three implementations:
//
//  * UnboundedLinks       — the paper's §2.1 substrate: any number of
//    objects may cross a link per step, so a leg from u to v arrives
//    exactly distance(u, v) steps after departure (analytic).
//  * BoundedCapacityLinks — each link carries at most `capacity` objects
//    simultaneously (an edge of weight d is occupied for d consecutive
//    steps per traversal); objects queue FIFO per link (stepwise).
//  * FaultyLinks          — decorator imposing a FaultModel + RecoveryPolicy
//    (outages, slowdowns, transfer loss with retransmit backoff,
//    reroute/stall) on either the unbounded substrate (analytic, the
//    historic fault executor) or on an inner BoundedCapacityLinks
//    (stepwise), which is what makes faults × capacity a configuration
//    instead of a fourth simulator.
//
// Composition protocol: stepwise policies consult an AdmissionOracle for
// every candidate link entry; by default the policy is its own oracle and
// admits unconditionally at base cost. FaultyLinks installs itself as the
// inner policy's oracle to impose outages (block or reroute the queued
// object) and slowdowns (inflated traversal cost), and delays lossy
// launches by the retransmission backoff before they ever reach the inner
// queue.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "graph/metric.hpp"
#include "sim/engine.hpp"

namespace dtm {

class LinkPolicy {
 public:
  virtual ~LinkPolicy() = default;

  /// Stepwise policies queue legs and need the engine to drive the clock
  /// one step at a time; analytic policies resolve each leg at launch and
  /// let the engine jump from commit to commit.
  virtual bool stepwise() const { return false; }

  // --- analytic mode -------------------------------------------------
  /// Realize leg `leg` of object `o`, departing `from` at `depart` toward
  /// `to`; returns the absolute arrival time. Travel, events, and fault
  /// tallies are reported through `eng`. Called with from == to only for
  /// zero-distance release handoffs (recorded, instantaneous).
  virtual Time realize(Engine& eng, ObjectId o, std::size_t leg, NodeId from,
                       NodeId to, Time depart);

  // --- stepwise mode -------------------------------------------------
  /// Route object `o` (serving chain index `leg`) from `from` toward `to`;
  /// the object queues on the first edge of its path. Never called with
  /// from == to (the engine completes instant handoffs itself).
  virtual void launch(Engine& eng, ObjectId o, std::size_t leg, NodeId from,
                      NodeId to, Time now);
  /// Advance every on-edge object by one step; completed legs report
  /// through eng.object_arrived().
  virtual void progress(Engine& eng, Time now);
  /// Move queued objects onto links with free capacity.
  virtual void admit(Engine& eng, Time now);
  /// Per-step queue accounting (engine folds it into the result).
  virtual void account(Engine& eng);
};

/// §2.1 substrate: unbounded link capacity, perfectly reliable.
class UnboundedLinks final : public LinkPolicy {
 public:
  explicit UnboundedLinks(const Metric& metric) : metric_(&metric) {}

  Time realize(Engine& eng, ObjectId o, std::size_t leg, NodeId from,
               NodeId to, Time depart) override;

 private:
  const Metric* metric_;
};

/// Per-admission oracle consulted by stepwise policies; see the header
/// comment for the composition protocol.
class AdmissionOracle {
 public:
  virtual ~AdmissionOracle() = default;

  /// May object `o`, queued at `u` and bound for `target`, enter link
  /// {u, v} at step `now`? When the answer is no, the oracle may place a
  /// replacement route for the rest of the journey (u -> ... -> target)
  /// into `reroute`; an empty reroute keeps the object queued (head-of-line
  /// stall) until a later step.
  virtual bool may_enter(ObjectId o, NodeId u, NodeId v, NodeId target,
                         Time now, std::vector<NodeId>* reroute) = 0;

  /// Realized cost of entering link {u, v} (base weight `base`) at `now`.
  virtual Weight enter_cost(NodeId u, NodeId v, Weight base, Time now) = 0;
};

/// FIFO bounded-capacity substrate: the links of every stepwise simulate().
class BoundedCapacityLinks final : public LinkPolicy, public AdmissionOracle {
 public:
  /// capacity 0 means unbounded (reproduces §2.1 through the queues).
  BoundedCapacityLinks(const Metric& metric, std::size_t capacity);

  bool stepwise() const override { return true; }
  void launch(Engine& eng, ObjectId o, std::size_t leg, NodeId from,
              NodeId to, Time now) override;
  void progress(Engine& eng, Time now) override;
  void admit(Engine& eng, Time now) override;
  void account(Engine& eng) override;

  /// Default oracle: admit unconditionally at base cost.
  bool may_enter(ObjectId, NodeId, NodeId, NodeId, Time,
                 std::vector<NodeId>*) override {
    return true;
  }
  Weight enter_cost(NodeId, NodeId, Weight base, Time) override {
    return base;
  }

  /// Installed by a decorating FaultyLinks; null restores self-admission.
  void set_oracle(AdmissionOracle* oracle) {
    oracle_ = oracle != nullptr ? oracle : this;
  }

 private:
  struct Route {
    enum class Phase { kIdle, kQueued, kOnEdge, kDone };
    std::size_t leg = 0;
    std::vector<NodeId> path;  // node sequence of the current leg
    std::size_t hop = 0;       // index of the current node in `path`
    Phase phase = Phase::kDone;
    /// kDepart already recorded for this leg (survives reroutes, which
    /// reset `hop` but are not a second departure).
    bool departed = false;
    /// Earliest admission step. A reroute decided at step t re-enters at
    /// t + 1 — pinning this beats letting the admit sweep's channel order
    /// decide whether the detour starts the same step.
    Time not_before = 0;
    /// Step the object entered its current queue (reroutes keep it: the
    /// object has been waiting at this node since then). Feeds the
    /// queue-wait trace span emitted on admission.
    Time queued_since = 0;
  };
  struct Channel {
    std::deque<ObjectId> queue;
    std::size_t in_transit = 0;
    bool active = false;  // listed in active_ (has queued objects)
    bool dirty = false;   // listed in dirty_ (length changed this step)
  };

  /// Queue object `o` on channel `key`, maintaining the active/dirty
  /// lists and the global queued-object count.
  void push_queue(std::uint64_t key, ObjectId o);
  /// Pop the head of `ch` (channel `key`), same bookkeeping.
  void pop_queue(std::uint64_t key, Channel& ch);

  const Metric* metric_;
  std::size_t capacity_;
  AdmissionOracle* oracle_;
  std::vector<Route> routes_;
  std::unordered_map<std::uint64_t, Channel> channels_;
  /// Channels with queued objects, in first-enqueue order. admit() sweeps
  /// this list — not every channel ever touched — and compacts it after
  /// the sweep; a channel leaves when its queue drains and re-enters on
  /// the next push.
  std::vector<std::uint64_t> active_;
  /// Channels whose queue length changed since the last account() call;
  /// only these can move the engine's running max-queue-length.
  std::vector<std::uint64_t> dirty_;
  std::size_t queued_total_ = 0;
  /// Completion calendar: arrivals_[t] lists the objects whose current
  /// edge traversal finishes at step t. progress(t) drains one bucket (in
  /// object-id order, matching the retired full route scan) instead of
  /// decrementing a countdown on every on-edge object every step.
  /// Entries are never cancelled: an on-edge object cannot be rerouted,
  /// redirected, or released until it leaves the edge.
  std::unordered_map<Time, std::vector<ObjectId>> arrivals_;
};

/// Fault/recovery decorator. Standalone (inner == nullptr) it is the
/// analytic fault executor over unbounded links; over a
/// BoundedCapacityLinks it imposes the same fault classes on the queued
/// substrate through the AdmissionOracle seam.
class FaultyLinks final : public LinkPolicy, public AdmissionOracle {
 public:
  FaultyLinks(const Metric& metric, const FaultModel& model,
              const RecoveryPolicy& recovery,
              BoundedCapacityLinks* inner = nullptr);

  bool stepwise() const override { return inner_ != nullptr; }

  Time realize(Engine& eng, ObjectId o, std::size_t leg, NodeId from,
               NodeId to, Time depart) override;

  void launch(Engine& eng, ObjectId o, std::size_t leg, NodeId from,
              NodeId to, Time now) override;
  void progress(Engine& eng, Time now) override;
  void admit(Engine& eng, Time now) override;
  void account(Engine& eng) override;

  bool may_enter(ObjectId o, NodeId u, NodeId v, NodeId target, Time now,
                 std::vector<NodeId>* reroute) override;
  Weight enter_cost(NodeId u, NodeId v, Weight base, Time now) override;

 private:
  /// Departure step of the send once transfer loss and retransmission
  /// backoff are accounted for (tallies injected/retries and drops "loss"
  /// trace markers on link {from, to}; reports loss exhaustion as a
  /// violation while letting the final send through).
  Time lossy_depart(Engine& eng, ObjectId o, std::size_t leg, NodeId from,
                    NodeId to, Time depart);

  struct Pending {
    ObjectId object;
    std::size_t leg;
    NodeId from;
    NodeId to;
    Time release;  // backoff complete; hand to the inner policy
  };

  const Metric* metric_;
  const FaultModel* model_;
  RecoveryPolicy recovery_;
  BoundedCapacityLinks* inner_;
  Engine* eng_ = nullptr;  // bound for the duration of oracle callbacks
  std::vector<Pending> pending_;
  /// Blocked-episode dedup: one injected tally per (object, link) episode,
  /// matching the analytic executor's one-count-per-encounter.
  std::unordered_map<ObjectId, std::uint64_t> blocked_on_;
};

namespace detail {

/// Weight of the {u, v} edge; requires adjacency.
Weight edge_weight(const Graph& g, NodeId u, NodeId v);

/// Shortest path from -> to over the links usable at step `now` (links
/// that fail later, mid-journey, are handled at their own hop). Empty
/// when no such route exists.
std::vector<NodeId> reroute_path(const Graph& g, const FaultModel& model,
                                 NodeId from, NodeId to, Time now);

/// Attempt i of a lost transfer departs backoff(i) = min(base << i, cap)
/// steps after attempt i failed (saturating, overflow-safe).
Time backoff_delay(const RecoveryPolicy& p, std::size_t attempt);

}  // namespace detail

}  // namespace dtm
