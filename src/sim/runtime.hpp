// Streaming runtime: incremental arrival-driven scheduling as a long-lived
// service (the batch pipeline run "forever").
//
// Every scheduler in sched/ answers a one-shot question: here is a batch
// (or a finite arrival vector), produce a schedule. A deployed DTM node
// faces the open-ended version: transactions keep arriving, the schedule
// must extend forever, and the interesting steady-state quantities are
// sustained throughput and backlog, not makespan. StreamingRuntime is that
// loop:
//
//   * ingest — transactions stream in from an ArrivalSource
//     (core/generators.hpp) in non-decreasing arrival order; each is
//     appended to the transcript and joins the open window's batch. No
//     per-object conflict state is kept across windows;
//   * admit — at each window close, deferred work plus the window's
//     arrivals are admitted up to the AdmissionController's quota
//     (sim/admission.hpp: a fixed bound, or AIMD closed-loop control fed
//     by backlog/commit feedback); the excess stays in a FIFO backlog and
//     is counted, so overload sheds latency instead of memory;
//   * schedule — the admitted batch goes through the window step
//     OnlineBatchScheduler runs too (window_step, sched/online.hpp): its
//     dependency graph is built from the batch's own object sets (a
//     window is a FIFO run of unplaced ids, so it conflicts only within
//     itself), colored by the §2.3 greedy and placed after the live
//     horizon by the WindowPlacer: base = max(horizon, close-1), plus the
//     worst transition distance from each object's current chain tail.
//     Feasibility is by construction — the same triangle-inequality
//     argument. The batch scheduler and the runtime differ only in
//     admission and bookkeeping.
//     With shards > 1 the runtime also reports how each window splits
//     over a locality partition of the substrate (graph/partition.hpp —
//     an object belongs to its home node's shard; DESIGN.md §10):
//     shard-local vs cross-shard transactions, the members of conflict
//     components that reach a cross-shard transaction, and the largest
//     per-shard count of the rest. That split is plain accounting over
//     the window CSR; the coloring never reads it, so the schedule is the
//     same at every shard count;
//   * commit — each window appends its members' commit steps, sorted, to a
//     FIFO (a later window commits strictly later, see WindowPlacer); when
//     the clock passes a commit step the transaction retires and frees its
//     admission slot. drain() can additionally replay the materialized
//     stream through the execution engine's stepwise path
//     (sim/engine.hpp, queued links, planned-degraded discipline) and
//     assert that every planned commit is realized on time.
//
// The runtime reports throughput/backlog/admission telemetry
// (StreamStats) — the measurements bench_stream (E22) sweeps.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "core/instance.hpp"
#include "core/online.hpp"
#include "core/schedule.hpp"
#include "graph/metric.hpp"
#include "graph/partition.hpp"
#include "sched/dependency_graph.hpp"
#include "sched/greedy.hpp"
#include "sched/online.hpp"
#include "sim/admission.hpp"

namespace dtm {

struct StreamingRuntimeOptions {
  /// Scheduling window in steps: arrivals are batched per window and
  /// scheduled when their window closes.
  Time window = 16;
  ColoringRule rule = ColoringRule::kFirstFit;
  /// Admission control (sim/admission.hpp). Under kFixed, a batch member
  /// is admitted only while fewer than admission.max_live admitted
  /// transactions are still uncommitted at the window close; the rest
  /// wait in the FIFO backlog. The default, kFixed with max_live 0, admits
  /// everything.
  AdmissionConfig admission;
  /// Width of the reported locality split: k > 1 partitions the substrate
  /// into k shards (graph/partition.hpp) and accounts each window's
  /// members to them (ShardLoadStats, the "shard" metrics series). The
  /// schedule never depends on it.
  std::size_t shards = 1;
  /// drain(): replay the materialized stream through the stepwise engine
  /// and fail if any planned commit is missed (see verify_by_replay()).
  bool replay_check = false;
};

/// Steady-state measurements over one stream.
struct StreamStats {
  std::size_t arrived = 0;    // transactions ingested
  std::size_t admitted = 0;   // entered a scheduling window
  std::size_t committed = 0;  // commit step <= the final makespan (all,
                              // once drained)
  /// Admission deferrals: one per transaction per window it sat out.
  std::size_t deferrals = 0;
  std::size_t windows = 0;  // non-empty scheduling windows flushed
  Time last_arrival = 0;
  /// Step of the last planned commit (the stream's makespan).
  Time makespan = 0;
  /// Backlog = arrived - committed, sampled at each window close.
  std::size_t peak_backlog = 0;
  /// Sum of sampled backlogs / samples (coarse time average).
  double mean_backlog = 0;
  /// committed / makespan: sustained commit rate per step.
  double throughput = 0;
  /// Conflict edges of the scheduled windows' dependency graphs, summed
  /// over windows (what the dep.csr_edges counter counts for the stream),
  /// and the heaviest of them. A window conflicts only within itself, so
  /// edges between windows are not counted.
  std::size_t dep_edges = 0;
  Weight dep_max_weight = 0;
};

/// Shard-partition load measurements (only meaningful with shards > 1;
/// kept out of StreamStats, which is shard-count invariant by contract).
struct ShardLoadStats {
  std::size_t num_shards = 1;
  /// Partition rule that produced the shard map ("cluster"|"grid"|"range").
  std::string scheme = "range";
  /// Admitted transactions whose objects all live in one shard.
  std::size_t local_txns = 0;
  /// Admitted transactions spanning shards (taint seeds).
  std::size_t cross_txns = 0;
  /// Members of window conflict components that contain a cross-shard
  /// transaction (>= cross_txns): the work no single shard could color
  /// alone.
  std::size_t fixup_txns = 0;
  /// Largest per-shard count of the remaining (shard-confined) members in
  /// any window (imbalance indicator: ideal is batch/shards).
  std::size_t peak_shard_members = 0;
};

class StreamingRuntime {
 public:
  /// `object_home[o]` is object o's initial node; the vector fixes the
  /// object universe size w.
  StreamingRuntime(const Graph& g, const Metric& metric,
                   std::vector<NodeId> object_home,
                   StreamingRuntimeOptions opts = {});

  /// Deterministic default placement: object o starts at node o mod n.
  /// Throws dtm::Error when objects need homes and g has no nodes.
  static std::vector<NodeId> spread_homes(const Graph& g,
                                          std::size_t num_objects);

  /// Ingests one transaction (non-decreasing arrival order enforced);
  /// returns its runtime id. Windows that provably closed before this
  /// arrival are scheduled first.
  TxnId ingest(const ArrivingTxn& txn);

  /// Pulls `src` dry through ingest().
  void ingest_all(ArrivalSource& src);

  /// Ends the stream: schedules every remaining window until the backlog
  /// empties, finalizes stats (and runs the engine replay check when
  /// configured — throws dtm::Error on a missed commit).
  const StreamStats& drain();

  // --- live telemetry -------------------------------------------------
  /// Transactions arrived but not yet committed at the current clock.
  std::size_t backlog() const { return stats_.arrived - stats_.committed; }
  const StreamStats& stats() const { return stats_; }
  const ShardLoadStats& shard_stats() const { return shard_stats_; }
  /// Admitted transactions whose commit step the clock has not passed
  /// yet: the length of the retire FIFO.
  std::size_t pending_commits() const { return pending_commits_.size(); }
  /// The live admission controller (quota / raises / cuts for benches).
  const AdmissionController& admission() const { return *admission_; }

  // --- materialized results (tests, replay, validation) ---------------
  /// The ingested stream as a (shared-homes) batch Instance. The instance
  /// shares the transcript's transaction table instead of copying it; it
  /// adds only the requester lists and node slots (about 8 MiB per 10⁶
  /// k = 2 transactions). While it (or a copy) lives, the next ingest()
  /// copies the table before appending, so the instance never changes.
  /// Copies may be read on any thread; like the runtime itself, release
  /// them on the runtime's thread or between its calls.
  Instance materialize() const;
  /// Planned commit times + per-object visit chains over the stream. The
  /// chains are derived here from the commit times (placed_object_orders):
  /// O(stream) per call. Mid-stream, unplaced transactions keep commit 0
  /// and appear in no chain.
  Schedule schedule() const;
  /// Arrival step per runtime id (validate_online's arrivals).
  std::span<const Time> arrivals() const { return arrival_; }

  /// Replays materialize()+schedule() through the stepwise engine (queued
  /// links, planned-degraded discipline): returns false into `error` if
  /// the engine misses a planned commit or reports a violation. Cheap
  /// relative to the stream only for test-sized runs.
  bool verify_by_replay(std::string* error = nullptr) const;

 private:
  /// Closes every window with close step <= `up_to`, scheduling batches.
  void close_windows_through(Time up_to);
  /// Schedules one window: retire commits the clock passed, admit, color
  /// the batch graph, place after the horizon.
  void schedule_window(Time close, std::vector<TxnId>&& fresh);
  /// One window's split over the shard partition (see ShardLoadStats).
  struct WindowShardSplit {
    std::size_t local = 0;  // shard-local transactions
    std::size_t cross = 0;  // cross-shard transactions
    std::size_t fixup = 0;  // members of components reaching a cross one
    std::size_t peak = 0;   // largest per-shard count of the rest
  };
  /// Accounts the colored window `h` to the shards (shards > 1 only):
  /// adds to shard_stats_ and the stream.shard_* counters.
  WindowShardSplit account_shards(const DependencyGraph& h);
  /// Commits the clock passed; returns how many transactions retired.
  std::size_t retire_through(Time step);
  void sample_backlog();

  const Graph* g_;
  const Metric* metric_;
  StreamingRuntimeOptions opts_;

  /// Transaction t's object set, ascending.
  std::span<const ObjectId> objects_of(TxnId t) const {
    return txns_->objects(t);
  }

  // Stream transcript (runtime ids are dense, in arrival order). It stays
  // O(stream): schedule(), materialize() and arrivals() read all of it.
  // Homes and object sets sit in a TxnTable (flat CSR, as in Instance),
  // which materialize() shares with the instances it returns; ingest()
  // appends in place while the runtime holds the only reference, and
  // copies the table first otherwise. The per-object visit chains are not
  // stored: schedule() derives them from commit_ and the object sets (see
  // WindowPlacer). The table's three arrays, arrival_ and commit_ are
  // MappedArrays: past 128 KiB each grows in place in its own memory
  // mapping (util/mapped_array.hpp) instead of doubling through the malloc
  // heap, which a long stream would leave fragmented.
  std::shared_ptr<TxnTable> txns_;
  MappedArray<Time> arrival_;
  MappedArray<Time> commit_;

  std::vector<NodeId> object_home_;  // initial placement
  WindowPlacer placer_;              // tail positions, horizon

  ShardMap shard_map_;

  // Reused account_shards scratch (allocation-free steady state).
  std::vector<std::uint32_t> member_shard_;
  std::vector<char> tainted_;
  std::vector<std::uint32_t> taint_stack_;
  std::vector<std::size_t> shard_count_;

  std::unique_ptr<AdmissionController> admission_;
  ShardLoadStats shard_stats_;

  // Window assembly.
  std::vector<TxnId> open_batch_;  // arrivals in the open window
  Time open_window_ = 0;           // its index (valid if open_batch_ nonempty)
  Time next_close_;                // close step of the next unclosed window
  std::deque<TxnId> backlog_;      // deferred by admission, FIFO

  // Commit steps of the admitted transactions not yet retired, ascending:
  // each window appends its own sorted, all after the ones queued.
  // retire_through pops a prefix; the length is the live admitted count
  // that admission bounds.
  std::deque<Time> pending_commits_;

  StreamStats stats_;
  double backlog_sum_ = 0;
  std::size_t backlog_samples_ = 0;
  bool drained_ = false;
};

}  // namespace dtm
