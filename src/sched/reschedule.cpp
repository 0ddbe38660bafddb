#include "sched/reschedule.hpp"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "sched/registry.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace dtm {

namespace {

/// Residual view of a partially-executed instance: uncommitted
/// transactions re-numbered densely, objects homed at their current
/// holders, plus both id maps.
struct Residual {
  Instance inst;
  std::vector<TxnId> orig_of;  // residual id -> original id
  std::vector<TxnId> res_of;   // original id -> residual id (or invalid)
};

Residual build_residual(const Instance& inst, const PartialExecution& px) {
  const std::size_t n = inst.num_transactions();
  const std::size_t w = inst.num_objects();
  DTM_REQUIRE(px.committed.size() == n && px.object_at.size() == w &&
                  px.object_free_at.size() == w && px.served.size() == w,
              "reschedule: partial state shape does not match instance");
  Residual out;
  out.res_of.assign(n, kInvalidTxn);
  InstanceBuilder rb(inst.graph(), w);
  for (ObjectId o = 0; o < w; ++o) rb.set_object_home(o, px.object_at[o]);
  for (TxnId t = 0; t < n; ++t) {
    if (px.committed[t] != 0) continue;
    out.res_of[t] = rb.add_transaction(inst.txn(t).home, inst.txn(t).objects);
    out.orig_of.push_back(t);
  }
  out.inst = rb.build();
  return out;
}

/// Earliest commit times for the uncommitted suffix given the full spliced
/// orders: the precedence.cpp longest-path relaxation, with the source
/// constraint anchored at the snapshot (object_free_at + distance from the
/// pinned location) and every time floored at now + 1. Committed
/// transactions are not retimed — their chain edges into the suffix are
/// subsumed by the source constraint (triangle inequality through
/// object_at).
std::vector<Time> retime_suffix(const Instance& inst, const Metric& metric,
                                const PartialExecution& px,
                                const std::vector<std::vector<TxnId>>& order) {
  const std::size_t n = inst.num_transactions();
  struct Succ {
    TxnId next;
    Weight dist;
  };
  std::vector<std::vector<Succ>> succ(n);
  std::vector<std::size_t> indegree(n, 0);
  std::vector<Time> time(n, px.now + 1);
  std::vector<char> pending(n, 0);
  for (TxnId t = 0; t < n; ++t) pending[t] = px.committed[t] != 0 ? 0 : 1;

  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const auto& full = order[o];
    const std::size_t start = px.served[o].size();
    if (start >= full.size()) continue;
    const TxnId first = full[start];
    DTM_REQUIRE(pending[first] != 0,
                "reschedule: committed T" << first
                                          << " appears in o" << o
                                          << "'s uncommitted suffix");
    time[first] = std::max(
        time[first],
        px.object_free_at[o] +
            metric.distance(px.object_at[o], inst.txn(first).home));
    for (std::size_t i = start; i + 1 < full.size(); ++i) {
      const TxnId a = full[i], b = full[i + 1];
      DTM_REQUIRE(pending[b] != 0,
                  "reschedule: committed T"
                      << b << " appears in o" << o << "'s uncommitted suffix");
      succ[a].push_back(
          {b, metric.distance(inst.txn(a).home, inst.txn(b).home)});
      ++indegree[b];
    }
  }

  std::queue<TxnId> ready;
  std::size_t want = 0;
  for (TxnId t = 0; t < n; ++t) {
    if (pending[t] == 0) continue;
    ++want;
    if (indegree[t] == 0) ready.push(t);
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const TxnId t = ready.front();
    ready.pop();
    ++processed;
    for (const Succ& s : succ[t]) {
      time[s.next] = std::max(time[s.next], time[t] + s.dist);
      if (--indegree[s.next] == 0) ready.push(s.next);
    }
  }
  DTM_REQUIRE(processed == want,
              "reschedule: spliced orders induce a precedence cycle ("
                  << (want - processed) << " transactions unreachable)");
  return time;
}

}  // namespace

std::unique_ptr<Schedule> reschedule_from(const Instance& inst,
                                          const Metric& metric,
                                          Scheduler& sched,
                                          const PartialExecution& px) {
  const Residual res = build_residual(inst, px);
  if (res.orig_of.empty()) return nullptr;  // everything already committed

  const Schedule residual = sched.run(res.inst, metric);
  DTM_REQUIRE(residual.object_order.size() == inst.num_objects(),
              "reschedule: scheduler returned a malformed residual schedule");

  auto out = std::make_unique<Schedule>();
  out->object_order.resize(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    auto& full = out->object_order[o];
    full = px.served[o];
    full.reserve(px.served[o].size() + residual.object_order[o].size());
    for (const TxnId rt : residual.object_order[o]) {
      full.push_back(res.orig_of[rt]);
    }
  }
  // Keep the residual scheduler's orders but retime them from the
  // snapshot; committed transactions keep their realized times.
  out->commit_time = retime_suffix(inst, metric, px, out->object_order);

  // Splicing is only worth it when the new orders project a strictly
  // earlier completion than staying the course: retime the incumbent
  // orders from the same snapshot and compare. Without this guard a
  // splice can HURT — it replaces overrun (stale) planned times with
  // fresh floors, and the degraded discipline then waits for them.
  if (!px.order.empty()) {
    const std::vector<Time> incumbent =
        retime_suffix(inst, metric, px, px.order);
    Time ours = 0, theirs = 0;
    for (TxnId t = 0; t < inst.num_transactions(); ++t) {
      if (px.committed[t] != 0) continue;
      ours = std::max(ours, out->commit_time[t]);
      theirs = std::max(theirs, incumbent[t]);
    }
    if (ours >= theirs) return nullptr;  // no projected gain — decline
  }
  metrics::count("sched.reschedules");

  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    if (px.committed[t] != 0) out->commit_time[t] = px.commit_realized[t];
  }
  return out;
}

RescheduleFn make_rescheduler(const Instance& inst, const Metric& metric,
                              const std::string& scheduler,
                              std::uint64_t seed) {
  // Built once, shared by every splice of the run (std::function must be
  // copyable, hence shared_ptr); randomized schedulers keep their seeded
  // Rng across splices, so runs stay deterministic end to end.
  std::shared_ptr<Scheduler> s = make_scheduler_for(inst, scheduler, seed);
  const Instance* ip = &inst;
  const Metric* mp = &metric;
  return [ip, mp, s](const PartialExecution& px) {
    return reschedule_from(*ip, *mp, *s, px);
  };
}

RwSchedule reschedule_rw_from(const Instance& inst, const WriteSets& writes,
                              const Metric& metric,
                              const PartialExecution& px,
                              const RwGreedyOptions& opts) {
  DTM_REQUIRE(writes.size() == inst.num_transactions(),
              "reschedule_rw_from: write sets do not match instance");
  const Residual res = build_residual(inst, px);

  RwSchedule out;
  out.commit_time.assign(inst.num_transactions(), 0);
  out.writer_order.resize(inst.num_objects());
  out.reader_source.resize(inst.num_objects());
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    if (px.committed[t] != 0) out.commit_time[t] = px.commit_realized[t];
  }
  if (res.orig_of.empty()) return out;

  WriteSets rwrites(res.orig_of.size());
  for (std::size_t rt = 0; rt < res.orig_of.size(); ++rt) {
    rwrites[rt] = writes[res.orig_of[rt]];
  }
  const RwSchedule residual =
      schedule_rw_greedy(res.inst, rwrites, metric, opts);

  // The residual schedule is feasible from the pinned homes with times
  // >= 1; shifting every suffix time by a constant keeps all difference
  // constraints and turns the source constraints into
  // t >= shift + dist(object_at, first) >= object_free_at + dist — so the
  // suffix composes with the in-flight state.
  Time shift = px.now;
  for (const Time free_at : px.object_free_at) {
    shift = std::max(shift, free_at);
  }
  for (std::size_t rt = 0; rt < res.orig_of.size(); ++rt) {
    out.commit_time[res.orig_of[rt]] = residual.commit_time[rt] + shift;
  }
  const auto map_txn = [&res](TxnId rt) { return res.orig_of[rt]; };
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    for (const TxnId rt : residual.writer_order[o]) {
      out.writer_order[o].push_back(map_txn(rt));
    }
    for (const auto& [reader, source] : residual.reader_source[o]) {
      out.reader_source[o].emplace_back(
          map_txn(reader),
          source == kInvalidTxn ? kInvalidTxn : map_txn(source));
    }
  }
  return out;
}

}  // namespace dtm
