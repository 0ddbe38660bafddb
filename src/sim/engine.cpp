#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "sim/link_policy.hpp"
#include "sim/trace_analysis.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace dtm {

namespace {

// Trace track names. Links are undirected, so both directions of a
// transfer share one canonical track. (Concatenation is spelled with
// append — gcc 12 raises a bogus -Wrestrict on `const char* + string&&`.)
std::string link_track(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  std::string out = "link ";
  out += std::to_string(a);
  out += '-';
  out += std::to_string(b);
  return out;
}

std::string node_track(NodeId n) {
  std::string out = "node ";
  out += std::to_string(n);
  return out;
}

std::string leg_name(ObjectId o, std::size_t leg) {
  std::string out = "o";
  out += std::to_string(o);
  out += '#';
  out += std::to_string(leg);
  return out;
}

}  // namespace

Engine::Engine(const Instance& inst, const Metric& metric,
               const Schedule& schedule, LinkPolicy& links,
               const EngineConfig& opts)
    : inst_(&inst),
      metric_(&metric),
      s_(&schedule),
      links_(&links),
      opts_(opts) {}

Engine::~Engine() = default;  // out-of-line for the SlackMonitor pimpl

void Engine::fail(const std::string& msg) {
  r_.ok = false;
  r_.violations.push_back(msg);
}

void Engine::note_injected() {
  r_.faults.injected += 1;
  if (injected_ != nullptr) injected_->add();
}

void Engine::note_retry() {
  r_.faults.retries += 1;
  if (retries_ != nullptr) retries_->add();
}

void Engine::note_reroute() {
  r_.faults.reroutes += 1;
  if (reroutes_ != nullptr) reroutes_->add();
}

void Engine::object_arrived(ObjectId o) {
  obj_in_transit_[o] = 0;
  if (obj_span_[o] != 0) {
    trace_->end_span(obj_span_[o], static_cast<double>(clock_));
    obj_span_[o] = 0;
  }
  const TxnId target = (*obj_order_[o])[obj_next_leg_[o]];
  // After a splice the object may have been flying toward a requester the
  // new schedule no longer serves next (in-flight legs complete first);
  // forward it to the new target instead of marking it present.
  if (resched_count_ > 0 && obj_at_[o] != inst_->home(target)) {
    launch_redirect_leg(o, clock_);
    return;
  }
  if (++present_[target] == inst_->objects(target).size()) {
    if (!assembled_.empty()) assembled_[target] = clock_;
    enqueue_ready(target);
  }
}

void Engine::enqueue_ready(TxnId t) {
  if (use_calendar_) {
    // The retired scan dropped pre-step-1 casualties at their first
    // eligibility check; the calendar drops them at insertion instead.
    if (commit_blocked_[t] != 0) return;
    due_[std::max(s_->commit_time[t], commit_floor_)].push_back(t);
  } else {
    ready_.push_back(t);
  }
}

void Engine::account_queues(std::size_t total, std::size_t max_changed) {
  r_.total_queue_wait += static_cast<Time>(total);
  r_.max_queue_length = std::max(r_.max_queue_length, max_changed);
}

void Engine::trace_fault(const char* kind, std::int64_t object, NodeId u,
                         NodeId v, Time t) {
  if (trace_ == nullptr) return;
  trace_->instant(TraceCat::kFault, link_track(u, v), kind,
                  static_cast<double>(t),
                  {{"object", object},
                   {"u", static_cast<std::int64_t>(u)},
                   {"v", static_cast<std::int64_t>(v)}});
}

void Engine::trace_queue_wait(ObjectId o, std::size_t leg, NodeId u, NodeId v,
                              Time queued_since, Time now) {
  if (trace_ == nullptr || now <= queued_since) return;
  std::string name = "o";
  name += std::to_string(o);
  name += " wait";
  trace_->span(TraceCat::kQueue, link_track(u, v), std::move(name),
               static_cast<double>(queued_since), static_cast<double>(now),
               {{"leg", static_cast<std::int64_t>(leg)},
                {"object", static_cast<std::int64_t>(o)}});
}

void Engine::trace_leg(ObjectId o, std::size_t leg, std::int64_t prev,
                       NodeId from, NodeId to, Time depart, Time arrive) {
  if (trace_ == nullptr) return;
  // Zero-length handoffs are recorded too: the critical-path walk follows
  // the chain of legs backwards and must not find a hole where an object
  // changed owners without moving.
  trace_->span(TraceCat::kLeg, link_track(from, to), leg_name(o, leg),
               static_cast<double>(depart), static_cast<double>(arrive),
               {{"from", static_cast<std::int64_t>(from)},
                {"leg", static_cast<std::int64_t>(leg)},
                {"object", static_cast<std::int64_t>(o)},
                {"prev", prev},
                {"to", static_cast<std::int64_t>(to)},
                {"txn", static_cast<std::int64_t>((*obj_order_[o])[leg])}});
}

void Engine::trace_leg_begin(ObjectId o, std::size_t leg, std::int64_t prev,
                             NodeId from, NodeId to, Time depart,
                             bool redirect) {
  if (trace_ == nullptr) return;
  std::vector<TraceArg> args = {
      {"from", static_cast<std::int64_t>(from)},
      {"leg", static_cast<std::int64_t>(leg)},
      {"object", static_cast<std::int64_t>(o)},
      {"prev", prev},
      {"to", static_cast<std::int64_t>(to)},
      {"txn", static_cast<std::int64_t>((*obj_order_[o])[leg])}};
  if (redirect) args.push_back({"redirect", 1});
  obj_span_[o] = trace_->begin_span(TraceCat::kLeg, link_track(from, to),
                                    leg_name(o, leg),
                                    static_cast<double>(depart),
                                    std::move(args));
}

void Engine::trace_commit(TxnId t, Time assembled, Time planned,
                          Time realized) {
  if (trace_ == nullptr) return;
  const NodeId home = inst_->home(t);
  std::string name = "T";
  name += std::to_string(t);
  trace_->span(TraceCat::kTxn, node_track(home), std::move(name),
               static_cast<double>(assembled), static_cast<double>(realized),
               {{"planned", static_cast<std::int64_t>(planned)},
                {"txn", static_cast<std::int64_t>(t)}});
  // kEarliest ignores the schedule, so a commit past its planned step is
  // business as usual there, not degradation.
  if (opts_.discipline != CommitDiscipline::kEarliest && realized > planned &&
      planned >= 1) {
    trace_->instant(TraceCat::kFault, node_track(home), "degraded",
                    static_cast<double>(realized),
                    {{"stall", static_cast<std::int64_t>(realized - planned)},
                     {"txn", static_cast<std::int64_t>(t)}});
  }
}

std::string SimResult::summary() const {
  std::ostringstream os;
  if (ok) {
    os << "ok: makespan=" << realized_makespan;
    if (realized_makespan != planned_makespan) {
      os << " (planned " << planned_makespan << ")";
    }
    os << " travel=" << object_travel;
    return os.str();
  }
  os << violations.size() << " violation(s):";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

SimResult Engine::run() {
  if (init()) {
    // The one stepping loop behind every simulator: analytic substrates
    // jump from commit to commit, stepwise substrates tick the clock.
    while (step()) {
    }
  }
  finish();
  return std::move(r_);
}

bool Engine::init() {
  if (s_->commit_time.size() != inst_->num_transactions() ||
      s_->object_order.size() != inst_->num_objects()) {
    fail("schedule shape does not match instance");
    return false;
  }
  if (opts_.telemetry) {
    // Handles are stable for the registry's life (metrics.hpp contract),
    // so resolve them once per process instead of once per simulate() —
    // trial sweeps used to serialize on the registry mutex here.
    static MetricCounter& legs_moved = metrics::counter("sim.legs_moved");
    static MetricCounter& commits = metrics::counter("sim.commits");
    static MetricCounter& injected = metrics::counter("faults.injected");
    static MetricCounter& retries = metrics::counter("faults.retries");
    static MetricCounter& reroutes = metrics::counter("faults.reroutes");
    static MetricCounter& degraded =
        metrics::counter("sim.degraded_commits");
    static MetricCounter& inflation =
        metrics::counter("sim.makespan_inflation_steps");
    legs_moved_ = &legs_moved;
    commits_ = &commits;
    injected_ = &injected;
    retries_ = &retries;
    reroutes_ = &reroutes;
    degraded_ = &degraded;
    inflation_ = &inflation;
  }
  trace_ =
      TraceRecorder::global().enabled() ? &TraceRecorder::global() : nullptr;
  stepwise_ = links_->stepwise();
  // Rescheduling needs the synchronous clock (stepwise) and planned times
  // that still mean something (kPlannedDegraded); anywhere else the hook
  // is ignored and the engine is byte-for-byte the baseline one.
  resched_enabled_ = stepwise_ && opts_.reschedule_fn != nullptr &&
                     opts_.discipline == CommitDiscipline::kPlannedDegraded;

  const std::size_t w = inst_->num_objects();
  obj_order_.resize(w);
  obj_next_leg_.assign(w, 0);
  obj_at_.resize(w);
  obj_in_transit_.assign(w, 0);
  obj_arrival_.assign(w, 0);
  obj_span_.assign(w, 0);
  obj_leg_from_.assign(w, kInvalidNode);
  obj_leg_depart_.assign(w, 0);
  for (ObjectId o = 0; o < w; ++o) {
    obj_order_[o] = &s_->object_order[o];
    obj_at_[o] = inst_->object_home(o);
  }
  return stepwise_ ? init_stepwise() : init_analytic();
}

bool Engine::init_analytic() {
  // Leg 0 from each object's home; objects already at their first
  // requester do not move (and record nothing, matching the historic
  // simulators).
  for (ObjectId o = 0; o < num_objects(); ++o) {
    if (obj_order_[o]->empty()) continue;
    const NodeId target = inst_->home(obj_order_[o]->front());
    if (target == obj_at_[o]) continue;
    if (opts_.record_legs) r_.legs.push_back({o, 0, obj_at_[o], target, 0});
    obj_in_transit_[o] = 1;
    if (legs_moved_ != nullptr) legs_moved_->add();
    const NodeId from = obj_at_[o];
    obj_arrival_[o] = links_->realize(*this, o, 0, from, target, 0);
    obj_at_[o] = target;
    trace_leg(o, 0, -1, from, target, 0, obj_arrival_[o]);
  }

  // Commits are processed in (commit_time, id) order; between commits the
  // only activity is deterministic in-flight motion already resolved by
  // the policy.
  const auto& ct = s_->commit_time;
  by_time_.resize(inst_->num_transactions());
  Time max_ct = 0;
  bool bucketable = true;
  for (const Time c : ct) {
    if (c < 0) {
      bucketable = false;
      break;
    }
    max_ct = std::max(max_ct, c);
  }
  if (bucketable &&
      static_cast<std::size_t>(max_ct) <= 4 * ct.size() + 1024) {
    // Counting sort: appending ids in ascending order keeps each time
    // bucket internally sorted, so the concatenation is exactly the
    // (commit_time, id) order without an O(n log n) comparison sort.
    // The size guard keeps the bucket array linear in n; degenerate
    // schedules (sparse huge times, negative times) take the sort below.
    std::vector<std::uint32_t> offset(static_cast<std::size_t>(max_ct) + 2,
                                      0);
    for (const Time c : ct) ++offset[static_cast<std::size_t>(c) + 1];
    for (std::size_t i = 1; i < offset.size(); ++i) {
      offset[i] += offset[i - 1];
    }
    for (TxnId t = 0; t < ct.size(); ++t) {
      by_time_[offset[static_cast<std::size_t>(ct[t])]++] = t;
    }
  } else {
    for (TxnId t = 0; t < by_time_.size(); ++t) by_time_[t] = t;
    std::sort(by_time_.begin(), by_time_.end(), [&](TxnId a, TxnId b) {
      return ct[a] != ct[b] ? ct[a] < ct[b] : a < b;
    });
  }
  return true;
}

bool Engine::init_stepwise() {
  const std::size_t n = inst_->num_transactions();
  present_.assign(n, 0);
  committed_.assign(n, 0);
  commit_blocked_.assign(n, 0);
  if (trace_ != nullptr) assembled_.assign(n, 0);
  commit_target_ = n;
  // Planned disciplines gate commits on scheduled times, which the
  // calendar indexes by step; kEarliest commits whatever assembled, which
  // is already a plain list.
  use_calendar_ = opts_.discipline != CommitDiscipline::kEarliest;
  if (opts_.discipline == CommitDiscipline::kPlannedDegraded) {
    // Planned discipline on a queued substrate: commits scheduled before
    // step 1 can never fire (same violation as the analytic executors);
    // everything depending on them will run into the max_steps guard.
    for (TxnId t = 0; t < n; ++t) {
      if (s_->commit_time[t] < 1) {
        std::ostringstream os;
        os << "T" << t << " scheduled at step " << s_->commit_time[t]
           << " (< 1)";
        fail(os.str());
        commit_blocked_[t] = 1;
        --commit_target_;
      }
    }
  }

  if (resched_enabled_) {
    realized_commit_.assign(n, 0);
    monitor_ = std::make_unique<SlackMonitor>();
    // Pre-step-1 casualties count as done for lag purposes: they never
    // commit unless a splice revives them with a sane time.
    monitor_->reset(s_->commit_time, commit_blocked_);
  }

  for (ObjectId o = 0; o < num_objects(); ++o) {
    if (obj_order_[o]->empty()) continue;
    const NodeId target = inst_->home(obj_order_[o]->front());
    if (target == obj_at_[o]) {
      object_arrived(o);
      continue;
    }
    if (opts_.record_legs) r_.legs.push_back({o, 0, obj_at_[o], target, 0});
    obj_in_transit_[o] = 1;
    obj_leg_from_[o] = obj_at_[o];
    obj_leg_depart_[o] = 0;
    if (legs_moved_ != nullptr) legs_moved_->add();
    trace_leg_begin(o, 0, -1, obj_at_[o], target, 0);
    links_->launch(*this, o, 0, obj_at_[o], target, 0);
    obj_at_[o] = target;
  }
  // Transactions with no objects are trivially assembled.
  for (TxnId t = 0; t < n; ++t) {
    if (inst_->objects(t).empty()) enqueue_ready(t);
  }

  links_->admit(*this, 0);  // departures at step 0 traverse during step 1
  links_->account(*this);
  return true;
}

bool Engine::step() {
  return stepwise_ ? step_stepwise() : step_analytic();
}

bool Engine::step_analytic() {
  if (cursor_ >= by_time_.size()) return false;
  process_planned_commit(by_time_[cursor_++]);
  return true;
}

bool Engine::step_stepwise() {
  if (committed_count_ >= commit_target_) return false;
  ++clock_;
  if (opts_.max_steps > 0 && clock_ > opts_.max_steps) {
    fail("exceeded max_steps=" + std::to_string(opts_.max_steps));
    return false;
  }

  // 1. Progress on-edge objects; completed legs report back through
  //    object_arrived(). A transaction assembled here can still commit
  //    this very step, so the calendar floor is the current step.
  commit_floor_ = clock_;
  links_->progress(*this, clock_);

  // 2. Commit assembled transactions (receive -> execute), then release
  //    their objects toward the next requesters (-> forward).
  //    Transactions assembled by a commit cascade below are first
  //    eligible at the next step's drain, so raise the floor first.
  commit_floor_ = clock_ + 1;
  std::vector<TxnId> committing;
  if (opts_.discipline == CommitDiscipline::kEarliest) {
    committing.swap(ready_);
  } else {
    // Planned disciplines: a transaction additionally waits for its
    // scheduled commit step (never committing early, unlike kEarliest).
    // Draining this step's calendar bucket commits exactly the
    // transactions the retired every-step ready scan would have picked,
    // in the same (assembly) order.
    const auto it = due_.find(clock_);
    if (it != due_.end()) {
      committing = std::move(it->second);
      due_.erase(it);
    }
  }
  for (TxnId t : committing) commit_stepwise(t, clock_);

  // 2b. Reschedule seam: with the step's commits in, measure the realized
  //     lag and splice in a replacement schedule when it runs away.
  //     Redirect legs launched here are admitted below like any other
  //     same-step release.
  if (resched_enabled_) maybe_reschedule();

  // 3. Admit queued objects onto free links (a traversal admitted at
  //    `clock_` occupies the edge through clock_+weight), then account
  //    objects that stayed queued.
  links_->admit(*this, clock_);
  links_->account(*this);
  return true;
}

void Engine::process_planned_commit(TxnId t) {
  const Time planned = s_->commit_time[t];
  if (planned < 1) {
    std::ostringstream os;
    os << "T" << t << " scheduled at step " << planned << " (< 1)";
    fail(os.str());
    return;
  }
  const NodeId home = inst_->home(t);
  const bool strict = opts_.discipline == CommitDiscipline::kPlannedStrict;

  // Presence/structure check. Strict discipline also requires objects to
  // have physically arrived by the scheduled step; degraded discipline
  // folds late arrivals into the realized commit time instead.
  bool all_ok = true;
  Time ready = planned;
  Time assembled = 0;
  for (ObjectId o : inst_->objects(t)) {
    const auto& order = *obj_order_[o];
    if (strict && obj_in_transit_[o] != 0 && obj_arrival_[o] <= planned) {
      obj_in_transit_[o] = 0;
    }
    const bool here = (!strict || obj_in_transit_[o] == 0) &&
                      obj_next_leg_[o] < order.size() &&
                      order[obj_next_leg_[o]] == t && obj_at_[o] == home;
    if (!here) {
      all_ok = false;
      std::ostringstream os;
      os << "T" << t << " @node " << home << " step " << planned
         << ": object o" << o << (strict ? " absent (" : " misrouted (");
      if (strict && obj_in_transit_[o] != 0) {
        os << "in transit, arrives at step " << obj_arrival_[o];
      } else if (obj_next_leg_[o] >= order.size()) {
        os << "already finished its chain";
      } else if (order[obj_next_leg_[o]] != t) {
        os << "next leg targets T" << order[obj_next_leg_[o]];
      } else {
        os << (strict ? "at node " : "headed to node ") << obj_at_[o];
      }
      os << ")";
      fail(os.str());
      continue;
    }
    // Fold in the arrival unconditionally: for zero-distance handoffs the
    // policy returns the releasing commit's realized time, and that
    // release time still gates this commit. Never-launched first legs
    // leave arrival 0.
    if (!strict) ready = std::max(ready, obj_arrival_[o]);
    assembled = std::max(assembled, obj_arrival_[o]);
  }
  if (!all_ok) return;

  Time realized = planned;
  if (!strict) {
    realized = ready;
    const Time stall = realized - planned;
    if (stall > 0) {
      r_.faults.degraded_commits += 1;
      if (degraded_ != nullptr) degraded_->add();
      r_.faults.stall_steps += stall;
      if (inflation_ != nullptr) {
        inflation_->add(static_cast<std::uint64_t>(stall));
      }
      if (stall > opts_.max_commit_stall) {
        std::ostringstream os;
        os << "T" << t << " stalled " << stall
           << " steps (> max_commit_stall " << opts_.max_commit_stall << ")";
        fail(os.str());
      }
    }
  }
  if (opts_.record_events) {
    r_.events.push_back(
        {realized, SimEvent::Kind::kCommit, kInvalidObject, t, home});
  }
  if (commits_ != nullptr) commits_->add();
  trace_commit(t, assembled, planned, realized);
  r_.planned_makespan = std::max(r_.planned_makespan, planned);
  r_.realized_makespan = std::max(r_.realized_makespan, realized);

  // Commit: release each object toward its next requester in the same
  // (realized) step — receive -> execute -> forward.
  for (ObjectId o : inst_->objects(t)) {
    obj_in_transit_[o] = 0;
    ++obj_next_leg_[o];
    if (obj_next_leg_[o] < obj_order_[o]->size()) {
      launch_release_leg(o, realized);
    }
  }
}

void Engine::commit_stepwise(TxnId t, Time now) {
  DTM_ASSERT(!committed_[t]);
  committed_[t] = 1;
  ++committed_count_;
  if (resched_enabled_) {
    realized_commit_[t] = now;
    monitor_->on_commit(t, std::max<Time>(now - s_->commit_time[t], 0));
  }
  if (opts_.discipline == CommitDiscipline::kPlannedDegraded) {
    const Time planned = s_->commit_time[t];
    const Time stall = now - planned;
    if (stall > 0) {
      r_.faults.degraded_commits += 1;
      if (degraded_ != nullptr) degraded_->add();
      r_.faults.stall_steps += stall;
      if (inflation_ != nullptr) {
        inflation_->add(static_cast<std::uint64_t>(stall));
      }
      if (stall > opts_.max_commit_stall) {
        std::ostringstream os;
        os << "T" << t << " stalled " << stall
           << " steps (> max_commit_stall " << opts_.max_commit_stall << ")";
        fail(os.str());
      }
    }
    r_.planned_makespan = std::max(r_.planned_makespan, planned);
  }
  if (opts_.record_events) {
    r_.events.push_back({now, SimEvent::Kind::kCommit, kInvalidObject, t,
                         inst_->home(t)});
  }
  if (commits_ != nullptr) commits_->add();
  trace_commit(t, assembled_.empty() ? 0 : assembled_[t], s_->commit_time[t],
               now);
  r_.realized_makespan = std::max(r_.realized_makespan, now);

  for (ObjectId o : inst_->objects(t)) {
    DTM_ASSERT(obj_in_transit_[o] == 0);
    ++obj_next_leg_[o];
    if (obj_next_leg_[o] < obj_order_[o]->size()) launch_release_leg(o, now);
  }
}

void Engine::launch_release_leg(ObjectId o, Time now) {
  const std::size_t leg = obj_next_leg_[o];
  const NodeId from = obj_at_[o];
  const NodeId target = inst_->home((*obj_order_[o])[leg]);
  // The leg is released by the commit that just fired — its chain
  // predecessor in the trace.
  const auto prev = static_cast<std::int64_t>((*obj_order_[o])[leg - 1]);
  if (opts_.record_legs) {
    r_.legs.push_back({o, leg, from, target, now});
  }
  if (stepwise_) {
    if (target == from) {
      // Instant handoff: the object is already at the next requester.
      if (opts_.record_events) {
        r_.events.push_back(
            {now, SimEvent::Kind::kDepart, o, kInvalidTxn, from});
        r_.events.push_back(
            {now, SimEvent::Kind::kArrive, o, kInvalidTxn, target});
      }
      trace_leg(o, leg, prev, from, target, now, now);
      object_arrived(o);
      return;
    }
    obj_in_transit_[o] = 1;
    obj_leg_from_[o] = from;
    obj_leg_depart_[o] = now;
    if (legs_moved_ != nullptr) legs_moved_->add();
    trace_leg_begin(o, leg, prev, from, target, now);
    links_->launch(*this, o, leg, from, target, now);
    obj_at_[o] = target;
    return;
  }
  if (legs_moved_ != nullptr) legs_moved_->add();
  obj_arrival_[o] = links_->realize(*this, o, leg, from, target, now);
  obj_in_transit_[o] = static_cast<char>(target != from);
  obj_at_[o] = target;
  trace_leg(o, leg, prev, from, target, now, obj_arrival_[o]);
}

void Engine::maybe_reschedule() {
  if (resched_count_ >= opts_.reschedule.max_reschedules) return;
  if (committed_count_ >= commit_target_) return;  // run is over
  if (clock_ < next_resched_) return;              // cooling down
  const Time lag = monitor_->lag(clock_);
  if (lag <= opts_.reschedule.slack_threshold) return;
  next_resched_ = clock_ + opts_.reschedule.cooldown;

  PartialExecution px;
  px.now = clock_;
  px.committed.assign(committed_.begin(), committed_.end());
  px.commit_realized = realized_commit_;
  const std::size_t w = num_objects();
  px.object_at.resize(w);
  px.object_free_at.resize(w);
  px.served.resize(w);
  for (ObjectId o = 0; o < w; ++o) {
    px.object_at[o] = obj_at_[o];
    // In-flight legs complete first: the earliest the object can leave its
    // leg target is the unobstructed arrival estimate (queueing and faults
    // only push the real arrival later; kPlannedDegraded absorbs that as
    // commit stall).
    px.object_free_at[o] =
        obj_in_transit_[o] != 0
            ? std::max(obj_leg_depart_[o] +
                           metric_->distance(obj_leg_from_[o], obj_at_[o]),
                       clock_)
            : clock_;
    const auto& order = *obj_order_[o];
    px.served[o].assign(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(
                                            obj_next_leg_[o]));
  }
  px.order = s_->object_order;
  std::unique_ptr<Schedule> next = opts_.reschedule_fn(px);
  if (next == nullptr) return;  // the policy declined
  apply_splice(std::move(next), lag);
}

void Engine::apply_splice(std::unique_ptr<Schedule> next, Time lag) {
  // Sanity: the replacement must cover the instance, keep every committed
  // prefix verbatim, and put every pending commit strictly in the future.
  // A schedule that flunks these is reported and ignored — the run
  // continues on the incumbent schedule.
  const std::size_t n = inst_->num_transactions();
  const std::size_t w = inst_->num_objects();
  if (next->commit_time.size() != n || next->object_order.size() != w) {
    fail("reschedule: replacement schedule shape does not match instance");
    return;
  }
  for (TxnId t = 0; t < n; ++t) {
    if (!committed_[t] && next->commit_time[t] <= clock_) {
      std::ostringstream os;
      os << "reschedule: T" << t << " rescheduled at step "
         << next->commit_time[t] << " (not after step " << clock_ << ")";
      fail(os.str());
      return;
    }
  }
  for (ObjectId o = 0; o < w; ++o) {
    const auto& cur = *obj_order_[o];
    const auto& order = next->object_order[o];
    if (order.size() != cur.size() ||
        !std::equal(cur.begin(),
                    cur.begin() +
                        static_cast<std::ptrdiff_t>(obj_next_leg_[o]),
                    order.begin())) {
      std::ostringstream os;
      os << "reschedule: object o" << o
         << " order does not preserve the committed prefix";
      fail(os.str());
      return;
    }
  }

  // Snapshot which pending transactions were assembled before the splice.
  // The retired ready list held exactly the fully-present, uncommitted,
  // unblocked transactions at this seam (blocked ones were dropped at
  // their first commit scan), so that membership is recomputed from state
  // — before the revival loop below clears the blocked flags.
  std::vector<char> was_ready(n, 0);
  for (TxnId t = 0; t < n; ++t) {
    was_ready[t] = static_cast<char>(
        committed_[t] == 0 && commit_blocked_[t] == 0 &&
        present_[t] == inst_->objects(t).size());
  }

  ++resched_count_;
  if (trace_ != nullptr) {
    trace_->instant(TraceCat::kResched, "scheduler", "reschedule",
                    static_cast<double>(clock_),
                    {{"index", static_cast<std::int64_t>(resched_count_)},
                     {"lag", static_cast<std::int64_t>(lag)}});
  }
  spliced_.push_back(std::move(next));
  s_ = spliced_.back().get();
  for (ObjectId o = 0; o < w; ++o) obj_order_[o] = &s_->object_order[o];

  // Pre-step-1 casualties now carry sane future times; revive them.
  for (TxnId t = 0; t < n; ++t) {
    if (commit_blocked_[t] != 0) {
      commit_blocked_[t] = 0;
      ++commit_target_;
    }
  }

  // Rebuild the assembly bookkeeping against the new orders. Parked
  // objects whose next requester changed are redirected right away;
  // in-flight ones redirect on arrival (object_arrived).
  ready_.clear();
  due_.clear();
  std::fill(present_.begin(), present_.end(), 0);
  for (ObjectId o = 0; o < w; ++o) {
    if (obj_in_transit_[o] != 0 ||
        obj_next_leg_[o] >= obj_order_[o]->size()) {
      continue;
    }
    const TxnId target = (*obj_order_[o])[obj_next_leg_[o]];
    if (obj_at_[o] == inst_->home(target)) {
      ++present_[target];
    } else {
      launch_redirect_leg(o, clock_);
    }
  }
  // The splice validation put every pending commit strictly after clock_,
  // and commit_floor_ is already clock_ + 1 at this seam, so the calendar
  // rebuild files each transaction at its (new) scheduled step.
  for (TxnId t = 0; t < n; ++t) {
    if (committed_[t] != 0) continue;
    if (present_[t] == inst_->objects(t).size()) {
      // Keep the original assembly stamp for txns that stayed assembled;
      // txns assembled by the splice itself date from now.
      if (!assembled_.empty() && was_ready[t] == 0) assembled_[t] = clock_;
      enqueue_ready(t);
    }
  }
  monitor_->reset(s_->commit_time, committed_);
}

void Engine::launch_redirect_leg(ObjectId o, Time now) {
  const std::size_t leg = obj_next_leg_[o];
  const NodeId from = obj_at_[o];
  const NodeId target = inst_->home((*obj_order_[o])[leg]);
  DTM_ASSERT(target != from);
  // Redirects are not released by a commit; `prev` still names the last
  // committed requester so the record stays attributable, and the
  // redirect:1 tag tells the critical-path walk to follow the object's
  // own physical chain instead of a releasing commit.
  const std::int64_t prev =
      leg > 0 ? static_cast<std::int64_t>((*obj_order_[o])[leg - 1]) : -1;
  if (opts_.record_legs) {
    r_.legs.push_back({o, leg, from, target, now});
  }
  obj_in_transit_[o] = 1;
  obj_leg_from_[o] = from;
  obj_leg_depart_[o] = now;
  if (legs_moved_ != nullptr) legs_moved_->add();
  trace_leg_begin(o, leg, prev, from, target, now, /*redirect=*/true);
  links_->launch(*this, o, leg, from, target, now);
  obj_at_[o] = target;
}

void Engine::finish() {
  if (opts_.record_events) {
    if (opts_.telemetry) {
      metrics::count("sim.events_recorded", r_.events.size());
    }
    std::stable_sort(r_.events.begin(), r_.events.end(),
                     [](const SimEvent& a, const SimEvent& b) {
                       return a.time < b.time;
                     });
  }
  // On a strict run the realized execution is the planned one.
  if (opts_.discipline == CommitDiscipline::kPlannedStrict) {
    r_.planned_makespan = r_.realized_makespan;
  }
  r_.reschedules = resched_count_;
}

std::vector<LegRecord> planned_leg_trace(const Instance& inst,
                                         const Schedule& s) {
  std::vector<LegRecord> trace;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    NodeId at = inst.object_home(o);
    Time depart = 0;
    std::size_t leg = 0;
    for (TxnId t : s.object_order[o]) {
      const NodeId target = inst.home(t);
      // Leg 0 is skipped when the object starts at its first requester;
      // later zero-distance handoffs are recorded like the engine records
      // them (the analyzer skips from == to).
      if (leg > 0 || target != at) {
        trace.push_back({o, leg, at, target, depart});
      }
      at = target;
      depart = s.commit_time[t];
      ++leg;
    }
  }
  return trace;
}

}  // namespace dtm
