#include "sched/reschedule.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/precedence.hpp"
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
  // Residual homes come from an already-checked instance, which may
  // share them.
  InstanceBuilder rb(inst.graph(), w);
  rb.allow_shared_homes();
  for (ObjectId o = 0; o < w; ++o) rb.set_object_home(o, px.object_at[o]);
  for (TxnId t = 0; t < n; ++t) {
    if (px.committed[t] != 0) continue;
    out.res_of[t] = rb.add_transaction(inst.home(t), inst.objects(t));
    out.orig_of.push_back(t);
  }
  out.inst = rb.build();
  return out;
}

/// Earliest commit times for the uncommitted suffix given the full spliced
/// orders: longest paths over the suffix's visit chains, with the source
/// constraint anchored at the snapshot (object_free_at + distance from the
/// pinned location, raw: an in-flight object may be received and committed
/// in its arrival step) and every time floored at now + 1. Committed
/// transactions are not retimed — their chain edges into the suffix are
/// subsumed by the source constraint (triangle inequality through
/// object_at).
std::vector<Time> retime_suffix(const Instance& inst, const Metric& metric,
                                const PartialExecution& px,
                                const std::vector<std::vector<TxnId>>& order) {
  std::vector<Time> floor(inst.num_transactions(), px.now + 1);
  std::vector<PrecedenceArc> arcs;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const std::span<const TxnId> suffix =
        std::span(order[o]).subspan(std::min(px.served[o].size(),
                                             order[o].size()));
    if (suffix.empty()) continue;
    for (const TxnId t : suffix) {
      DTM_REQUIRE(px.committed[t] == 0,
                  "reschedule: committed T" << t << " appears in o" << o
                                            << "'s uncommitted suffix");
    }
    const TxnId first = suffix.front();
    floor[first] = std::max(
        floor[first], px.object_free_at[o] +
                          metric.distance(px.object_at[o], inst.home(first)));
    append_chain_arcs(inst, metric, suffix, arcs);
  }
  return longest_path_times(std::move(floor), arcs, "reschedule");
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
