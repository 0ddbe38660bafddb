#include "sim/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "sim/engine.hpp"
#include "sim/link_policy.hpp"
#include "util/metrics.hpp"
#include "util/parallel_for.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace dtm {

namespace {

IncrementalConflictGraph make_dep(const Metric& metric, const ShardMap& map,
                                  const std::vector<NodeId>& object_home) {
  if (map.num_shards <= 1) {
    return IncrementalConflictGraph(metric, object_home.size());
  }
  std::vector<std::uint32_t> object_shard(object_home.size());
  for (std::size_t o = 0; o < object_home.size(); ++o) {
    DTM_REQUIRE(object_home[o] < map.node_shard.size(),
                "object home out of range");
    object_shard[o] = map.shard_of(object_home[o]);
  }
  return IncrementalConflictGraph(metric, std::move(object_shard),
                                  map.num_shards);
}

}  // namespace

StreamingRuntime::StreamingRuntime(const Graph& g, const Metric& metric,
                                   std::vector<NodeId> object_home,
                                   StreamingRuntimeOptions opts)
    : g_(&g),
      metric_(&metric),
      opts_(opts),
      object_home_(std::move(object_home)),
      placer_(object_home_),
      shard_map_(make_shard_map(g, std::max<std::size_t>(opts.shards, 1))),
      dep_(make_dep(metric, shard_map_, object_home_)),
      next_close_(opts.window) {
  DTM_REQUIRE(opts_.window >= 1, "stream window must be >= 1 step");
  for (NodeId v : object_home_) {
    DTM_REQUIRE(v < g.num_nodes(), "object home out of range");
  }
  // make_shard_map clamps to [1, num_nodes]; follow the effective count.
  opts_.shards = shard_map_.num_shards;
  shard_stats_.num_shards = shard_map_.num_shards;
  shard_stats_.scheme = shard_map_.scheme;

  // The admission seam: the legacy max_live_admitted field doubles as the
  // fixed quota (or the AIMD starting quota) when admission.max_live is
  // unset, so PR 8 call sites reproduce bit for bit.
  AdmissionConfig ac = opts_.admission;
  if (ac.max_live == 0) ac.max_live = opts_.max_live_admitted;
  admission_ = make_admission_controller(ac);
}

std::vector<NodeId> StreamingRuntime::spread_homes(const Graph& g,
                                                   std::size_t num_objects) {
  std::vector<NodeId> homes(num_objects);
  for (std::size_t o = 0; o < num_objects; ++o) {
    homes[o] = static_cast<NodeId>(o % g.num_nodes());
  }
  return homes;
}

TxnId StreamingRuntime::ingest(const ArrivingTxn& txn) {
  DTM_REQUIRE(!drained_, "ingest after drain()");
  DTM_REQUIRE(txn.arrival >= 0, "negative arrival step");
  DTM_REQUIRE(txn.arrival >= stats_.last_arrival,
              "arrivals must be non-decreasing (got "
                  << txn.arrival << " after " << stats_.last_arrival << ")");
  DTM_REQUIRE(txn.home < g_->num_nodes(), "transaction home out of range");
  std::vector<ObjectId> objects = txn.objects;
  std::sort(objects.begin(), objects.end());
  DTM_REQUIRE(std::adjacent_find(objects.begin(), objects.end()) ==
                  objects.end(),
              "transaction requests a duplicate object");
  for (ObjectId o : objects) {
    DTM_REQUIRE(o < object_home_.size(),
                "object id " << o << " out of range");
  }

  // Windows that provably closed before this arrival flush first, so the
  // new transaction never joins a window earlier arrivals already fixed.
  close_windows_through(txn.arrival);

  const auto id = static_cast<TxnId>(home_.size());
  home_.push_back(txn.home);
  objects_.push_back(std::move(objects));
  arrival_.push_back(txn.arrival);
  commit_.push_back(0);
  dep_.add_txn(id, txn.home, objects_[id]);
  if (opts_.shards > 1) {
    // Owning shard, or the cross-shard sentinel (== num_shards) when the
    // transaction's objects span shards; objectless txns are conflict-free
    // and parked in shard 0.
    auto shard = static_cast<std::uint32_t>(
        objects_[id].empty() ? 0
                             : shard_map_.shard_of(object_home_[objects_[id][0]]));
    for (ObjectId o : objects_[id]) {
      if (shard_map_.shard_of(object_home_[o]) != shard) {
        shard = static_cast<std::uint32_t>(opts_.shards);
        break;
      }
    }
    txn_shard_.push_back(shard);
  }

  open_window_ = txn.arrival / opts_.window;
  open_batch_.push_back(id);

  ++stats_.arrived;
  stats_.last_arrival = txn.arrival;
  telemetry::count("stream.ingested");
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
  std::size_t retired = 0;
  while (!pending_commits_.empty() && pending_commits_.top().first <= step) {
    const TxnId t = pending_commits_.top().second;
    pending_commits_.pop();
    dep_.retire(t, objects_[t]);
    DTM_ASSERT(live_admitted_ > 0);
    --live_admitted_;
    ++stats_.committed;
    ++retired;
  }
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
  // per window; feedback flows back through on_window below.
  const std::size_t quota = admission_->quota();
  const auto can_admit = [&] {
    return quota == 0 || live_admitted_ < quota;
  };
  std::vector<TxnId> batch;
  batch.reserve(backlog_.size() + fresh.size());
  while (!backlog_.empty() && can_admit()) {
    batch.push_back(backlog_.front());
    backlog_.pop_front();
    ++live_admitted_;
  }
  for (TxnId t : fresh) {
    if (can_admit()) {
      batch.push_back(t);
      ++live_admitted_;
    } else {
      backlog_.push_back(t);
    }
  }
  // Everything still waiting sat this window out.
  stats_.deferrals += backlog_.size();
  telemetry::count("stream.deferrals", backlog_.size());

  const auto close_feedback = [&] {
    admission_->on_window({.backlog = backlog(),
                           .waiting = backlog_.size(),
                           .live = live_admitted_,
                           .committed_delta = retired});
  };
  MetricsRegistry& mreg = MetricsRegistry::global();
  const bool metrics_on = mreg.enabled();  // one relaxed load per window
  const auto emit_window_sample = [&](std::size_t admitted_now,
                                      Time colors) {
    mreg.sample("window",
                {{"t", close},
                 {"backlog", static_cast<std::int64_t>(backlog())},
                 {"admitted", static_cast<std::int64_t>(admitted_now)},
                 {"deferred", static_cast<std::int64_t>(backlog_.size())},
                 {"quota", static_cast<std::int64_t>(quota)},
                 {"live", static_cast<std::int64_t>(live_admitted_)},
                 {"retired", static_cast<std::int64_t>(retired)},
                 {"colors", colors}});
  };

  if (batch.empty()) {
    sample_backlog();
    close_feedback();
    if (metrics_on) emit_window_sample(0, 0);
    return;
  }
  std::sort(batch.begin(), batch.end());  // backlog ids precede fresh ids

  // Delta coloring: the batch's subgraph view of the incremental conflict
  // graph, colored by the §2.3 greedy and placed after the live horizon by
  // the WindowPlacer OnlineBatchScheduler uses too.
  const ColoredSubset colored = color_batch(batch);
  const Time start = placer_.place(
      *metric_, colored, close, [&](TxnId t) { return home_[t]; },
      [&](TxnId t) -> const std::vector<ObjectId>& { return objects_[t]; });
  for (std::size_t i = 0; i < colored.txns.size(); ++i) {
    const TxnId t = colored.txns[i];
    commit_[t] = start + colored.local_time[i];
    pending_commits_.emplace(commit_[t], t);
    stats_.makespan = std::max(stats_.makespan, commit_[t]);
  }
  if (metrics_on) {
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
  }

  stats_.admitted += batch.size();
  ++stats_.windows;
  telemetry::count("stream.windows");
  sample_backlog();
  close_feedback();
  if (metrics_on) {
    emit_window_sample(batch.size(), colored.duration);
    if (opts_.shards > 1) {
      // Shard split rides in its own series so the "window" series (and the
      // merged histograms above) stay byte-identical at every shard count.
      mreg.sample("shard",
                  {{"t", close},
                   {"shards", static_cast<std::int64_t>(opts_.shards)},
                   {"batch", static_cast<std::int64_t>(batch.size())},
                   {"local", static_cast<std::int64_t>(window_split_.local)},
                   {"cross", static_cast<std::int64_t>(window_split_.cross)},
                   {"fixup", static_cast<std::int64_t>(window_split_.fixup)},
                   {"peak_members",
                    static_cast<std::int64_t>(window_split_.peak)}});
    }
  }
}

ColoredSubset StreamingRuntime::color_batch(const std::vector<TxnId>& batch) {
  if (opts_.shards <= 1) {
    const DependencyGraph h = dep_.subgraph(batch);
    return greedy_color(h, opts_.rule);
  }
  return color_batch_sharded(batch);
}

ColoredSubset StreamingRuntime::color_batch_sharded(
    const std::vector<TxnId>& batch) {
  const std::size_t n = batch.size();
  const std::size_t S = opts_.shards;
  TelemetryRegistry& reg = TelemetryRegistry::global();
  TraceRecorder& tracer = TraceRecorder::global();

  // Runs `fn` as one shard's task, feeding the shard-task timer and — when
  // tracing — a kShard wall span on the executing worker's track, so the
  // fan-out is visible as per-shard tracks in the trace viewer.
  const auto shard_task = [&](const char* what, std::size_t s,
                              const auto& fn) {
    const bool timed = reg.enabled();
    const bool traced = tracer.enabled();
    const auto begin = std::chrono::steady_clock::now();
    fn();
    if (!timed && !traced) return;
    const auto end = std::chrono::steady_clock::now();
    if (traced) {
      tracer.wall_span(TraceCat::kShard,
                       std::string(what) + " s" + std::to_string(s), begin,
                       end);
    }
    if (timed) {
      reg.record_timer(
          "phase.stream.shard_task",
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                  .count()));
    }
  };

  // Window-local index table, dense over all ingested ids (entries are
  // restored to kInvalidTxn before returning, so only touched slots pay).
  if (local_tbl_.size() < dep_.num_txns()) {
    local_tbl_.resize(dep_.num_txns(), kInvalidTxn);
  }
  for (std::size_t i = 0; i < n; ++i) {
    local_tbl_[batch[i]] = static_cast<TxnId>(i);
  }

  // 1. Per-shard window views, extracted concurrently (each task reads
  // only its own pool's chains).
  views_.resize(S);
  {
    ScopedPhaseTimer timer("phase.stream.shard_extract");
    parallel_for(shared_pool(), S, [&](std::size_t s) {
      shard_task("extract", s, [&] {
        dep_.shard_subgraph(s, batch, local_tbl_, views_[s]);
      });
    });
  }

  // 2. Deterministic sequential merge into the window CSR. Per-node
  // slices are ascending in every view and a conflict pair lives in
  // exactly one pool, so a smallest-neighbor k-way merge reproduces
  // subgraph()'s ascending-local-index edge order exactly.
  DependencyGraph h;
  h.txns = batch;
  h.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t deg = 0;
    for (std::size_t s = 0; s < S; ++s) {
      deg += views_[s].offsets[i + 1] - views_[s].offsets[i];
    }
    h.offsets[i + 1] = h.offsets[i] + static_cast<std::uint32_t>(deg);
    h.max_degree = std::max(h.max_degree, deg);
  }
  h.edges.resize(h.offsets[n]);
  merge_cur_.resize(S);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < S; ++s) merge_cur_[s] = views_[s].offsets[i];
    for (std::uint32_t e = h.offsets[i]; e < h.offsets[i + 1]; ++e) {
      std::size_t best = S;
      for (std::size_t s = 0; s < S; ++s) {
        if (merge_cur_[s] == views_[s].offsets[i + 1]) continue;
        if (best == S || views_[s].edges[merge_cur_[s]].neighbor <
                             views_[best].edges[merge_cur_[best]].neighbor) {
          best = s;
        }
      }
      DTM_ASSERT(best < S);
      h.edges[e] = views_[best].edges[merge_cur_[best]++];
    }
  }
  for (std::size_t s = 0; s < S; ++s) {
    h.max_edge_weight = std::max(h.max_edge_weight, views_[s].max_edge_weight);
  }

  // 3. Taint walk: components containing a cross-shard transaction go to
  // the sequential fix-up pass. Everything untainted is pure-shard, and
  // an edge between two pure-shard transactions pins both to the shared
  // object's shard — so untainted components are confined to one shard
  // and the per-shard colorings below touch disjoint state.
  tainted_.assign(n, 0);
  taint_stack_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (txn_shard_[batch[i]] == S) {
      tainted_[i] = 1;
      taint_stack_.push_back(static_cast<std::uint32_t>(i));
    }
  }
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
  shard_members_.resize(S);
  for (auto& m : shard_members_) m.clear();
  fixup_members_.clear();
  std::size_t cross = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = txn_shard_[batch[i]];
    if (s == S) ++cross;
    if (tainted_[i]) {
      fixup_members_.push_back(static_cast<std::uint32_t>(i));
    } else {
      shard_members_[s].push_back(static_cast<std::uint32_t>(i));
    }
  }

  // 4. Color: shard-confined members concurrently, each in ascending
  // local order against the window-global h_max/Δ, then the tainted
  // components sequentially — per-component ascending coloring equals the
  // global ascending coloring, so this matches greedy_color(h) bit for
  // bit (including the greedy.* counter totals, re-aggregated here).
  ColoredSubset out;
  out.txns = h.txns;
  out.local_time.assign(n, 0);
  const Weight hmax = std::max<Weight>(h.max_edge_weight, 1);
  {
    ScopedPhaseTimer timer("phase.coloring");
    probes_scratch_.assign(S, 0);
    durs_scratch_.assign(S, 0);
    parallel_for(shared_pool(), S, [&](std::size_t s) {
      shard_task("color", s, [&] {
        durs_scratch_[s] =
            greedy_color_members(h, opts_.rule, hmax, h.max_degree,
                                 shard_members_[s], out.local_time,
                                 &probes_scratch_[s]);
      });
    });
    std::uint64_t probes = std::accumulate(probes_scratch_.begin(),
                                           probes_scratch_.end(),
                                           std::uint64_t{0});
    out.duration = *std::max_element(durs_scratch_.begin(),
                                     durs_scratch_.end());
    out.duration = std::max(
        out.duration, greedy_color_members(h, opts_.rule, hmax, h.max_degree,
                                           fixup_members_, out.local_time,
                                           &probes));
    telemetry::count("greedy.color_probes", probes);
    telemetry::count("greedy.colored_txns", n);
  }

  shard_stats_.local_txns += n - cross;
  shard_stats_.cross_txns += cross;
  shard_stats_.fixup_txns += fixup_members_.size();
  window_split_ = {n - cross, cross, fixup_members_.size(), 0};
  for (std::size_t s = 0; s < S; ++s) {
    window_split_.peak = std::max(window_split_.peak, shard_members_[s].size());
    shard_stats_.peak_shard_members =
        std::max(shard_stats_.peak_shard_members, shard_members_[s].size());
  }
  telemetry::count("stream.shard_local_txns", n - cross);
  telemetry::count("stream.shard_cross_txns", cross);

  for (std::size_t i = 0; i < n; ++i) local_tbl_[batch[i]] = kInvalidTxn;
  return out;
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
  stats_.dep_edges = dep_.num_edges();
  stats_.dep_max_weight = dep_.max_edge_weight();
  telemetry::count("stream.arc_pool_bytes", dep_.arc_pool_bytes());
  if (MetricsRegistry::global().enabled()) {
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
  }
  drained_ = true;

  if (opts_.replay_check) {
    std::string err;
    DTM_REQUIRE(verify_by_replay(&err),
                "streaming replay check failed: " << err);
  }
  return stats_;
}

Instance StreamingRuntime::materialize() const {
  InstanceBuilder b(*g_, object_home_.size());
  b.allow_shared_homes();
  for (std::size_t t = 0; t < home_.size(); ++t) {
    b.add_transaction(home_[t], objects_[t]);
  }
  for (ObjectId o = 0; o < object_home_.size(); ++o) {
    b.set_object_home(o, object_home_[o]);
  }
  return b.build();
}

Schedule StreamingRuntime::schedule() const {
  Schedule s;
  s.commit_time = commit_;
  s.object_order = placer_.chains();
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
