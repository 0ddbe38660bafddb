#include "sim/link_policy.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace dtm {

namespace {

/// Canonical undirected edge key.
std::uint64_t edge_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

namespace detail {

Weight edge_weight(const Graph& g, NodeId u, NodeId v) {
  for (const Arc& arc : g.neighbors(u)) {
    if (arc.to == v) return arc.weight;
  }
  DTM_REQUIRE(false, "edge_weight: " << u << " and " << v << " not adjacent");
  return kInfiniteWeight;
}

std::vector<NodeId> reroute_path(const Graph& g, const FaultModel& model,
                                 NodeId from, NodeId to, Time now) {
  const std::size_t n = g.num_nodes();
  std::vector<Weight> dist(n, kInfiniteWeight);
  std::vector<NodeId> parent(n, kInvalidNode);
  const Graph::Adjacency adj = g.adjacency();
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[from] = 0;
  heap.push({0, from});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;
    if (u == to) break;
    for (const Arc& arc : adj.neighbors(u)) {
      if (model.link_down(u, arc.to, now)) continue;
      const Weight nd = d + arc.weight;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        parent[arc.to] = u;
        heap.push({nd, arc.to});
      }
    }
  }
  if (dist[to] == kInfiniteWeight) return {};
  std::vector<NodeId> path;
  for (NodeId v = to; v != kInvalidNode; v = parent[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

Time backoff_delay(const RecoveryPolicy& p, std::size_t attempt) {
  // Once base << attempt would exceed the cap the answer is the cap;
  // checking via a right shift keeps the left shift free of signed
  // overflow for any base, not just base == 1.
  if (attempt >= 62 || (p.backoff_cap >> attempt) < p.backoff_base) {
    return p.backoff_cap;
  }
  return std::min<Time>(p.backoff_base << attempt, p.backoff_cap);
}

}  // namespace detail

// --- LinkPolicy defaults ------------------------------------------------

Time LinkPolicy::realize(Engine&, ObjectId, std::size_t, NodeId, NodeId,
                         Time depart) {
  DTM_REQUIRE(false, "LinkPolicy: analytic mode not supported");
  return depart;
}

void LinkPolicy::launch(Engine&, ObjectId, std::size_t, NodeId, NodeId,
                        Time) {
  DTM_REQUIRE(false, "LinkPolicy: stepwise mode not supported");
}

void LinkPolicy::progress(Engine&, Time) {}
void LinkPolicy::admit(Engine&, Time) {}
void LinkPolicy::account(Engine&) {}

// --- UnboundedLinks -----------------------------------------------------

Time UnboundedLinks::realize(Engine& eng, ObjectId o, std::size_t /*leg*/,
                             NodeId from, NodeId to, Time depart) {
  const Weight d = metric_->distance(from, to);
  eng.add_travel(d);
  if (eng.recording_events()) {
    eng.push_event({depart, SimEvent::Kind::kDepart, o, kInvalidTxn, from});
    if (eng.recording_hops() && from != to) {
      const auto path = metric_->path(from, to);
      Time clock = depart;
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        clock += metric_->distance(path[i - 1], path[i]);
        eng.push_event({clock, SimEvent::Kind::kHop, o, kInvalidTxn, path[i]});
      }
    }
    eng.push_event(
        {depart + d, SimEvent::Kind::kArrive, o, kInvalidTxn, to});
  }
  return depart + d;
}

// --- BoundedCapacityLinks -----------------------------------------------

BoundedCapacityLinks::BoundedCapacityLinks(const Metric& metric,
                                           std::size_t capacity)
    : metric_(&metric), capacity_(capacity), oracle_(this) {
  // Reserving one slot per graph edge means admission-time reroutes can
  // insert new channels without ever rehashing (iterator stability during
  // admit()'s sweep).
  channels_.reserve(metric.graph().num_edges());
}

void BoundedCapacityLinks::push_queue(std::uint64_t key, ObjectId o) {
  Channel& ch = channels_[key];
  ch.queue.push_back(o);
  ++queued_total_;
  if (!ch.active) {
    ch.active = true;
    active_.push_back(key);
  }
  if (!ch.dirty) {
    ch.dirty = true;
    dirty_.push_back(key);
  }
}

void BoundedCapacityLinks::pop_queue(std::uint64_t key, Channel& ch) {
  ch.queue.pop_front();
  --queued_total_;
  if (!ch.dirty) {
    ch.dirty = true;
    dirty_.push_back(key);
  }
}

void BoundedCapacityLinks::launch(Engine&, ObjectId o, std::size_t leg,
                                  NodeId from, NodeId to, Time now) {
  if (o >= routes_.size()) routes_.resize(o + 1);
  Route& rt = routes_[o];
  rt.leg = leg;
  rt.path = metric_->path(from, to);
  rt.hop = 0;
  rt.phase = Route::Phase::kQueued;
  rt.departed = false;
  rt.queued_since = now;
  push_queue(edge_key(rt.path[0], rt.path[1]), o);
}

void BoundedCapacityLinks::progress(Engine& eng, Time now) {
  const auto it = arrivals_.find(now);
  if (it == arrivals_.end()) return;
  std::vector<ObjectId> done = std::move(it->second);
  arrivals_.erase(it);
  // Drain in object-id order — the order the retired every-route scan
  // processed completions, which fixes the same-step log order and
  // the relative order of same-step requeues.
  std::sort(done.begin(), done.end());
  for (const ObjectId o : done) {
    Route& rt = routes_[o];
    DTM_ASSERT(rt.phase == Route::Phase::kOnEdge);
    // Hop finished: leave the edge.
    auto& ch = channels_[edge_key(rt.path[rt.hop], rt.path[rt.hop + 1])];
    DTM_ASSERT(ch.in_transit > 0);
    --ch.in_transit;
    ++rt.hop;
    if (rt.hop + 1 == rt.path.size()) {
      rt.phase = Route::Phase::kIdle;
      if (eng.recording_events()) {
        eng.push_event(
            {now, SimEvent::Kind::kArrive, o, kInvalidTxn, rt.path[rt.hop]});
      }
      eng.object_arrived(o);
    } else {
      rt.phase = Route::Phase::kQueued;
      rt.queued_since = now;
      if (eng.recording_events() && eng.recording_hops()) {
        eng.push_event(
            {now, SimEvent::Kind::kHop, o, kInvalidTxn, rt.path[rt.hop]});
      }
      push_queue(edge_key(rt.path[rt.hop], rt.path[rt.hop + 1]), o);
    }
  }
}

void BoundedCapacityLinks::admit(Engine& eng, Time now) {
  // Sweep by index: reroutes and requeues may append to active_ while the
  // sweep runs (their heads are pinned by not_before, so a late sweep
  // position never changes what can be admitted this step).
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::uint64_t key = active_[i];
    Channel& ch = channels_[key];
    // Admit FIFO per channel until the link is full or the head is held
    // back by the oracle (down link: stall or reroute).
    for (;;) {
      if (ch.queue.empty() ||
          (capacity_ != 0 && ch.in_transit >= capacity_)) {
        break;
      }
      const ObjectId o = ch.queue.front();
      Route& rt = routes_[o];
      if (rt.not_before > now) break;  // rerouted this step; next step
      const NodeId u = rt.path[rt.hop];
      const NodeId v = rt.path[rt.hop + 1];
      std::vector<NodeId> detour;
      if (!oracle_->may_enter(o, u, v, rt.path.back(), now, &detour)) {
        if (detour.size() < 2) break;  // head-of-line stall at the down link
        // The queued object swaps the rest of its journey for the detour
        // and requeues on the detour's first edge.
        pop_queue(key, ch);
        rt.path = std::move(detour);
        rt.hop = 0;
        rt.not_before = now + 1;
        push_queue(edge_key(rt.path[0], rt.path[1]), o);
        continue;
      }
      pop_queue(key, ch);
      rt.phase = Route::Phase::kOnEdge;
      const Weight base = metric_->distance(u, v);
      const Weight cost = oracle_->enter_cost(u, v, base, now);
      eng.add_travel(cost);
      // The retired countdown hit zero at the progress() call `cost`
      // steps out (one step for degenerate zero-cost entries).
      arrivals_[now + std::max<Weight>(cost, 1)].push_back(o);
      ++ch.in_transit;
      eng.log_queue_wait(o, rt.leg, u, v, rt.queued_since, now);
      if (eng.recording_events() && !rt.departed) {
        eng.push_event({now, SimEvent::Kind::kDepart, o, kInvalidTxn, u});
      }
      rt.departed = true;
    }
  }
  // Compact: drop channels whose queues drained (they re-enter on push).
  std::size_t kept = 0;
  for (const std::uint64_t key : active_) {
    Channel& ch = channels_[key];
    if (ch.queue.empty()) {
      ch.active = false;
    } else {
      active_[kept++] = key;
    }
  }
  active_.resize(kept);
}

void BoundedCapacityLinks::account(Engine& eng) {
  // Fold only channels whose length changed; an unchanged channel's
  // length was already folded into the engine's running max the last time
  // it changed.
  std::size_t max_changed = 0;
  for (const std::uint64_t key : dirty_) {
    Channel& ch = channels_[key];
    ch.dirty = false;
    max_changed = std::max(max_changed, ch.queue.size());
  }
  dirty_.clear();
  eng.account_queues(queued_total_, max_changed);
}

// --- FaultyLinks --------------------------------------------------------

FaultyLinks::FaultyLinks(const Metric& metric, const FaultModel& model,
                         const RecoveryPolicy& recovery,
                         BoundedCapacityLinks* inner)
    : metric_(&metric), model_(&model), recovery_(recovery), inner_(inner) {
  if (inner_ != nullptr) inner_->set_oracle(this);
}

Time FaultyLinks::lossy_depart(Engine& eng, ObjectId o, std::size_t leg,
                               NodeId from, NodeId to, Time depart) {
  // Loss is decided at send time (the transfer is dropped at the source
  // and re-sent after exponential backoff), so retries only shift the
  // departure.
  Time start = depart;
  bool sent = false;
  for (std::size_t attempt = 0; attempt <= recovery_.max_retries; ++attempt) {
    if (!model_->transfer_lost(o, leg, attempt)) {
      sent = true;
      break;
    }
    eng.note_injected();
    eng.note_retry();
    eng.log_fault(SimEvent::Fault::kLoss, o, from, to, start);
    start += detail::backoff_delay(recovery_, attempt);
  }
  if (!sent) {
    std::ostringstream os;
    os << "object o" << o << " leg " << leg << " lost after "
       << recovery_.max_retries << " retransmissions";
    eng.fail(os.str());
    // Keep executing (as if the final retry got through) so the rest of
    // the run is still reported; ok already records the failure.
  }
  return start;
}

Time FaultyLinks::realize(Engine& eng, ObjectId o, std::size_t leg,
                          NodeId from, NodeId to, Time depart) {
  if (from == to) {
    if (eng.recording_events()) {
      eng.push_event(
          {depart, SimEvent::Kind::kDepart, o, kInvalidTxn, from});
      eng.push_event({depart, SimEvent::Kind::kArrive, o, kInvalidTxn, to});
    }
    return depart;
  }
  const Graph& g = metric_->graph();
  const Time start = lossy_depart(eng, o, leg, from, to, depart);
  if (eng.recording_events()) {
    eng.push_event({start, SimEvent::Kind::kDepart, o, kInvalidTxn, from});
  }
  // Hop-by-hop motion with outage rerouting/stalling and slowdowns.
  NodeId cur = from;
  Time now = start;
  std::vector<NodeId> path = metric_->path(cur, to);
  std::size_t idx = 1;
  while (cur != to) {
    NodeId next = path[idx];
    if (model_->link_down(cur, next, now)) {
      eng.note_injected();
      eng.log_fault(SimEvent::Fault::kOutage, o, cur, next, now);
      bool rerouted = false;
      if (recovery_.reroute) {
        auto alt = detail::reroute_path(g, *model_, cur, to, now);
        if (!alt.empty()) {
          path = std::move(alt);
          idx = 1;
          eng.note_reroute();
          eng.log_fault(SimEvent::Fault::kReroute, o, cur, next, now);
          rerouted = true;
        }
      }
      if (!rerouted) now = model_->link_up_at(cur, next, now);
      continue;  // re-check the (possibly new) next link at the new time
    }
    const Weight base = detail::edge_weight(g, cur, next);
    const Weight cost = model_->hop_cost(cur, next, base, now);
    if (cost != base) {
      eng.note_injected();
      eng.log_fault(SimEvent::Fault::kSlowdown, o, cur, next, now);
    }
    eng.add_travel(cost);
    now += cost;
    cur = next;
    ++idx;
    if (eng.recording_events() && eng.recording_hops() && cur != to) {
      eng.push_event({now, SimEvent::Kind::kHop, o, kInvalidTxn, cur});
    }
  }
  if (eng.recording_events()) {
    eng.push_event({now, SimEvent::Kind::kArrive, o, kInvalidTxn, to});
  }
  return now;
}

void FaultyLinks::launch(Engine& eng, ObjectId o, std::size_t leg,
                         NodeId from, NodeId to, Time now) {
  DTM_ASSERT(inner_ != nullptr);
  eng_ = &eng;
  const Time start = lossy_depart(eng, o, leg, from, to, now);
  if (start <= now) {
    inner_->launch(eng, o, leg, from, to, now);
  } else {
    // The send is backing off; the object reaches the inner queue once
    // the retransmission succeeds.
    pending_.push_back({o, leg, from, to, start});
  }
}

void FaultyLinks::progress(Engine& eng, Time now) {
  DTM_ASSERT(inner_ != nullptr);
  eng_ = &eng;
  // Release sends whose retransmission backoff has completed.
  std::size_t kept = 0;
  for (Pending& p : pending_) {
    if (p.release <= now) {
      inner_->launch(eng, p.object, p.leg, p.from, p.to, now);
    } else {
      pending_[kept++] = p;
    }
  }
  pending_.resize(kept);
  inner_->progress(eng, now);
}

void FaultyLinks::admit(Engine& eng, Time now) {
  DTM_ASSERT(inner_ != nullptr);
  eng_ = &eng;
  inner_->admit(eng, now);
}

void FaultyLinks::account(Engine& eng) {
  DTM_ASSERT(inner_ != nullptr);
  inner_->account(eng);
}

bool FaultyLinks::may_enter(ObjectId o, NodeId u, NodeId v, NodeId target,
                            Time now, std::vector<NodeId>* reroute) {
  if (!model_->link_down(u, v, now)) {
    blocked_on_.erase(o);
    return true;
  }
  // One injected tally per (object, link) blocking episode, matching the
  // analytic executor's one-count-per-encounter.
  const std::uint64_t key = edge_key(u, v);
  const auto [it, fresh] = blocked_on_.try_emplace(o, key);
  if (fresh || it->second != key) {
    it->second = key;
    eng_->note_injected();
    eng_->log_fault(SimEvent::Fault::kOutage, o, u, v, now);
  }
  if (recovery_.reroute) {
    auto alt = detail::reroute_path(metric_->graph(), *model_, u, target, now);
    if (alt.size() >= 2) {
      eng_->note_reroute();
      eng_->log_fault(SimEvent::Fault::kReroute, o, u, v, now);
      blocked_on_.erase(o);
      *reroute = std::move(alt);
    }
  }
  return false;
}

Weight FaultyLinks::enter_cost(NodeId u, NodeId v, Weight base, Time now) {
  const Weight cost = model_->hop_cost(u, v, base, now);
  if (cost != base) {
    eng_->note_injected();
    // Slowdowns are decided per admission, not per object — the admitting
    // object id is not visible through the oracle seam.
    eng_->log_fault(SimEvent::Fault::kSlowdown, kInvalidObject, u, v, now);
  }
  return cost;
}

}  // namespace dtm
