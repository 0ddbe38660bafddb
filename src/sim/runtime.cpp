#include "sim/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/engine.hpp"
#include "sim/link_policy.hpp"
#include "util/metrics.hpp"

namespace dtm {

StreamingRuntime::StreamingRuntime(const Graph& g, const Metric& metric,
                                   std::vector<NodeId> object_home,
                                   StreamingRuntimeOptions opts)
    : g_(&g),
      metric_(&metric),
      opts_(opts),
      txns_(std::make_shared<TxnTable>()),
      object_home_(std::move(object_home)),
      placer_(object_home_),
      shard_map_(make_shard_map(g, std::max<std::size_t>(opts.shards, 1))),
      next_close_(opts.window) {
  DTM_REQUIRE(opts_.window >= 1, "stream window must be >= 1 step");
  for (NodeId v : object_home_) {
    DTM_REQUIRE(v < g.num_nodes(), "object home out of range");
  }
  // make_shard_map clamps to [1, num_nodes]; follow the effective count.
  opts_.shards = shard_map_.num_shards;
  shard_stats_.num_shards = shard_map_.num_shards;
  shard_stats_.scheme = shard_map_.scheme;
  admission_ = make_admission_controller(opts_.admission);
}

std::vector<NodeId> StreamingRuntime::spread_homes(const Graph& g,
                                                   std::size_t num_objects) {
  // o mod n, filled as 0, 1, ..., n-1 over each block of n objects.
  const std::size_t n = g.num_nodes();
  DTM_REQUIRE(n > 0 || num_objects == 0, "no nodes to home objects on");
  std::vector<NodeId> homes(num_objects);
  for (std::size_t lo = 0; lo < num_objects; lo += n) {
    const std::size_t hi = std::min(num_objects, lo + n);
    std::iota(homes.begin() + lo, homes.begin() + hi, NodeId{0});
  }
  return homes;
}

TxnId StreamingRuntime::ingest(const ArrivingTxn& txn) {
  DTM_REQUIRE(!drained_, "ingest after drain()");
  DTM_REQUIRE(txn.arrival >= 0, "negative arrival step");
  DTM_REQUIRE(txn.arrival >= stats_.last_arrival,
              "arrivals must be non-decreasing (got "
                  << txn.arrival << " after " << stats_.last_arrival << ")");
  // Copy on write: a materialized instance still shares the transcript.
  // The count cannot rise under this check, since only materialize() hands
  // the table out and the runtime is single-threaded.
  if (txns_.use_count() > 1) txns_ = std::make_shared<TxnTable>(*txns_);
  const TxnId id = txns_->append(txn.home, txn.objects, g_->num_nodes(),
                                 object_home_.size());

  // Windows that provably closed before this arrival flush first, so the
  // new transaction never joins a window earlier arrivals already fixed.
  close_windows_through(txn.arrival);

  arrival_.push_back(txn.arrival);
  commit_.push_back(0);

  open_window_ = txn.arrival / opts_.window;
  open_batch_.push_back(id);

  ++stats_.arrived;
  stats_.last_arrival = txn.arrival;
  static MetricCounter& ingested = metrics::counter("stream.ingested");
  ingested.add();
  return id;
}

void StreamingRuntime::ingest_all(ArrivalSource& src) {
  DTM_REQUIRE(src.num_objects() <= object_home_.size(),
              "source draws from more objects than the runtime hosts");
  ArrivingTxn t;
  while (src.next(t)) ingest(t);
}

void StreamingRuntime::close_windows_through(Time up_to) {
  while (next_close_ <= up_to) {
    const bool batch_due =
        !open_batch_.empty() &&
        (open_window_ + 1) * opts_.window == next_close_;
    if (batch_due) {
      std::vector<TxnId> fresh = std::move(open_batch_);
      open_batch_.clear();
      schedule_window(next_close_, std::move(fresh));
      next_close_ += opts_.window;
    } else if (!backlog_.empty()) {
      // Deferred-only window: no fresh arrivals, but backpressure may have
      // cleared enough live slots to admit backlog.
      schedule_window(next_close_, {});
      next_close_ += opts_.window;
    } else if (!open_batch_.empty()) {
      // Idle gap: jump straight to the open window's close.
      next_close_ = (open_window_ + 1) * opts_.window;
    } else {
      // Fully idle: skip past up_to.
      next_close_ = (up_to / opts_.window + 1) * opts_.window;
    }
  }
}

std::size_t StreamingRuntime::retire_through(Time step) {
  const auto end = std::upper_bound(pending_commits_.begin(),
                                    pending_commits_.end(), step);
  const auto retired =
      static_cast<std::size_t>(end - pending_commits_.begin());
  pending_commits_.erase(pending_commits_.begin(), end);
  stats_.committed += retired;
  return retired;
}

void StreamingRuntime::sample_backlog() {
  const std::size_t b = backlog();
  stats_.peak_backlog = std::max(stats_.peak_backlog, b);
  backlog_sum_ += static_cast<double>(b);
  ++backlog_samples_;
}

void StreamingRuntime::schedule_window(Time close,
                                       std::vector<TxnId>&& fresh) {
  ScopedPhaseTimer timer("phase.sched.stream_window");
  const std::size_t retired = retire_through(close);

  // Admission: FIFO backlog first (oldest waiters), then this window's
  // arrivals, until the controller's quota fills. The quota is read once
  // per window; feedback flows back through on_window below. The live
  // admitted count is the retire FIFO's length plus the batch so far.
  const std::size_t quota = admission_->quota();
  std::vector<TxnId> batch;
  batch.reserve(backlog_.size() + fresh.size());
  const auto can_admit = [&] {
    return quota == 0 || pending_commits_.size() + batch.size() < quota;
  };
  while (!backlog_.empty() && can_admit()) {
    batch.push_back(backlog_.front());
    backlog_.pop_front();
  }
  for (TxnId t : fresh) {
    if (can_admit()) {
      batch.push_back(t);
    } else {
      backlog_.push_back(t);
    }
  }
  // Everything still waiting sat this window out.
  stats_.deferrals += backlog_.size();
  static MetricCounter& deferrals = metrics::counter("stream.deferrals");
  deferrals.add(backlog_.size());

  const auto close_feedback = [&] {
    admission_->on_window({.backlog = backlog(),
                           .waiting = backlog_.size(),
                           .live = pending_commits_.size(),
                           .committed_delta = retired});
  };
  MetricsRegistry& mreg = MetricsRegistry::global();
  const auto emit_window_sample = [&](std::size_t admitted_now,
                                      Time colors) {
    mreg.sample("window",
                {{"t", close},
                 {"backlog", static_cast<std::int64_t>(backlog())},
                 {"admitted", static_cast<std::int64_t>(admitted_now)},
                 {"deferred", static_cast<std::int64_t>(backlog_.size())},
                 {"quota", static_cast<std::int64_t>(quota)},
                 {"live", static_cast<std::int64_t>(pending_commits_.size())},
                 {"retired", static_cast<std::int64_t>(retired)},
                 {"colors", colors}});
  };

  if (batch.empty()) {
    sample_backlog();
    close_feedback();
    emit_window_sample(0, 0);
    return;
  }
  std::sort(batch.begin(), batch.end());  // backlog ids precede fresh ids

  // The window step OnlineBatchScheduler runs too: the batch's own
  // dependency graph, colored by the §2.3 greedy and placed after the live
  // horizon.
  const auto home = [&](TxnId t) { return txns_->home(t); };
  const auto objects = [&](TxnId t) { return objects_of(t); };
  const WindowStep step =
      window_step(placer_, *metric_, batch, close, opts_.rule, home, objects);
  const ColoredSubset& colored = step.colored;
  const Time start = step.start;
  const WindowShardSplit split =
      opts_.shards > 1 ? account_shards(step.graph) : WindowShardSplit{};
  const std::size_t queued = pending_commits_.size();
  for (std::size_t i = 0; i < colored.txns.size(); ++i) {
    const TxnId t = colored.txns[i];
    commit_[t] = start + colored.local_time[i];
    pending_commits_.push_back(commit_[t]);
  }
  // The window starts at or after the placer's horizon and its colors are
  // >= 1, so its commits all fall after every queued one: sorted on their
  // own, they keep the FIFO ascending.
  const auto window_commits = pending_commits_.begin() + queued;
  std::sort(window_commits, pending_commits_.end());
  DTM_ASSERT(queued == 0 || pending_commits_[queued - 1] < *window_commits);
  stats_.makespan = std::max(stats_.makespan, pending_commits_.back());
  stats_.dep_edges += step.graph.edges.size() / 2;
  stats_.dep_max_weight =
      std::max(stats_.dep_max_weight, step.graph.max_edge_weight);
  // Per-transaction latency stages. They tile commit - arrival exactly:
  // the admit wait runs from arrival to the admitting window's close - 1
  // (>= 0: members arrived before the close), the scheduling gap is the
  // horizon/transition placement past the close (>= 0: start >= close - 1),
  // and the commit wait is the in-window color slot (>= 1).
  static MetricHistogram& h_wait =
      metrics::histogram("stream.latency.arrival_to_admit");
  static MetricHistogram& h_sched =
      metrics::histogram("stream.latency.admit_to_scheduled");
  static MetricHistogram& h_commit =
      metrics::histogram("stream.latency.scheduled_to_commit");
  static MetricHistogram& h_total =
      metrics::histogram("stream.latency.arrival_to_commit");
  for (std::size_t i = 0; i < colored.txns.size(); ++i) {
    const TxnId t = colored.txns[i];
    h_wait.record(static_cast<std::uint64_t>(close - 1 - arrival_[t]));
    h_sched.record(static_cast<std::uint64_t>(start - (close - 1)));
    h_commit.record(static_cast<std::uint64_t>(colored.local_time[i]));
    h_total.record(static_cast<std::uint64_t>(commit_[t] - arrival_[t]));
  }

  stats_.admitted += batch.size();
  ++stats_.windows;
  static MetricCounter& windows = metrics::counter("stream.windows");
  windows.add();
  sample_backlog();
  close_feedback();
  emit_window_sample(batch.size(), colored.duration);
  if (opts_.shards > 1) {
    // Shard split rides in its own series so the "window" series (and the
    // merged histograms above) stay byte-identical at every shard count.
    mreg.sample("shard",
                {{"t", close},
                 {"shards", static_cast<std::int64_t>(opts_.shards)},
                 {"batch", static_cast<std::int64_t>(batch.size())},
                 {"local", static_cast<std::int64_t>(split.local)},
                 {"cross", static_cast<std::int64_t>(split.cross)},
                 {"fixup", static_cast<std::int64_t>(split.fixup)},
                 {"peak_members", static_cast<std::int64_t>(split.peak)}});
  }
}

StreamingRuntime::WindowShardSplit StreamingRuntime::account_shards(
    const DependencyGraph& h) {
  const std::size_t n = h.size();
  const auto S = static_cast<std::uint32_t>(opts_.shards);

  // A member's shard is the shard of its objects' homes, or S (the cross
  // sentinel) when they differ; objectless transactions count as local to
  // shard 0. Cross members seed the taint walk.
  member_shard_.resize(n);
  tainted_.assign(n, 0);
  taint_stack_.clear();
  std::size_t cross = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const ObjectId> objs = objects_of(h.txns[i]);
    std::uint32_t s =
        objs.empty() ? 0 : shard_map_.shard_of(object_home_[objs[0]]);
    for (ObjectId o : objs) {
      if (shard_map_.shard_of(object_home_[o]) != s) {
        s = S;
        break;
      }
    }
    member_shard_[i] = s;
    if (s == S) {
      ++cross;
      tainted_[i] = 1;
      taint_stack_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Taint every conflict component that contains a cross member. An edge
  // between two untainted members pins both to the shared object's shard,
  // so what stays untainted is confined to one shard per component.
  while (!taint_stack_.empty()) {
    const std::uint32_t u = taint_stack_.back();
    taint_stack_.pop_back();
    for (const DependencyEdge& e : h.neighbors(u)) {
      if (!tainted_[e.neighbor]) {
        tainted_[e.neighbor] = 1;
        taint_stack_.push_back(e.neighbor);
      }
    }
  }
  shard_count_.assign(S, 0);
  std::size_t fixup = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (tainted_[i]) {
      ++fixup;
    } else {
      ++shard_count_[member_shard_[i]];
    }
  }

  const WindowShardSplit split{
      n - cross, cross, fixup,
      *std::max_element(shard_count_.begin(), shard_count_.end())};
  shard_stats_.local_txns += split.local;
  shard_stats_.cross_txns += split.cross;
  shard_stats_.fixup_txns += split.fixup;
  shard_stats_.peak_shard_members =
      std::max(shard_stats_.peak_shard_members, split.peak);
  static MetricCounter& local_txns =
      metrics::counter("stream.shard_local_txns");
  static MetricCounter& cross_txns =
      metrics::counter("stream.shard_cross_txns");
  local_txns.add(split.local);
  cross_txns.add(split.cross);
  return split;
}

const StreamStats& StreamingRuntime::drain() {
  if (drained_) return stats_;
  while (!open_batch_.empty() || !backlog_.empty()) {
    const Time target = !open_batch_.empty() && backlog_.empty()
                            ? (open_window_ + 1) * opts_.window
                            : next_close_;
    close_windows_through(std::max(next_close_, target));
  }
  retire_through(kInfiniteWeight);

  stats_.mean_backlog =
      backlog_samples_ == 0
          ? 0.0
          : backlog_sum_ / static_cast<double>(backlog_samples_);
  stats_.throughput =
      static_cast<double>(stats_.committed) /
      static_cast<double>(std::max<Time>(stats_.makespan, 1));
  // End-of-stream gauges: stream_report --validate reconciles the latency
  // histogram counts against stream.admitted.
  metrics::gauge("stream.arrived")
      .set(static_cast<std::int64_t>(stats_.arrived));
  metrics::gauge("stream.admitted")
      .set(static_cast<std::int64_t>(stats_.admitted));
  metrics::gauge("stream.committed")
      .set(static_cast<std::int64_t>(stats_.committed));
  metrics::gauge("stream.deferrals")
      .set(static_cast<std::int64_t>(stats_.deferrals));
  metrics::gauge("stream.windows")
      .set(static_cast<std::int64_t>(stats_.windows));
  metrics::gauge("stream.peak_backlog")
      .set(static_cast<std::int64_t>(stats_.peak_backlog));
  metrics::gauge("stream.makespan").set(stats_.makespan);
  drained_ = true;

  if (opts_.replay_check) {
    std::string err;
    DTM_REQUIRE(verify_by_replay(&err),
                "streaming replay check failed: " << err);
  }
  return stats_;
}

Instance StreamingRuntime::materialize() const {
  return InstanceBuilder::share(*g_, txns_, object_home_);
}

Schedule StreamingRuntime::schedule() const {
  Schedule s;
  s.commit_time.assign(commit_.begin(), commit_.end());
  s.object_order = placed_object_orders(
      object_home_.size(), commit_, [&](TxnId t) { return objects_of(t); });
  return s;
}

bool StreamingRuntime::verify_by_replay(std::string* error) const {
  const Instance inst = materialize();
  const Schedule s = schedule();
  EngineConfig eo;
  eo.discipline = CommitDiscipline::kPlannedDegraded;
  eo.telemetry = false;
  BoundedCapacityLinks links(*metric_, 0);  // unbounded through the queues
  const SimResult r = Engine(inst, *metric_, s, links, eo).run();
  if (!r.ok) {
    if (error) *error = r.violations.front();
    return false;
  }
  if (r.realized_makespan != r.planned_makespan) {
    if (error) {
      *error = "stepwise replay realized makespan " +
               std::to_string(r.realized_makespan) + " != planned " +
               std::to_string(r.planned_makespan);
    }
    return false;
  }
  return true;
}

}  // namespace dtm
