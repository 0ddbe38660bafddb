#include "sched/online.hpp"

#include <algorithm>
#include <numeric>

#include "util/metrics.hpp"

namespace dtm {

void OnlineScheduler::begin_feed(const Instance& inst, const Metric& metric) {
  DTM_REQUIRE(!feeding_, "begin_feed: a feed is already open (call finish)");
  inst_ = &inst;
  metric_ = &metric;
  arrivals_.assign(inst.num_transactions(), kNeverReleased);
  feed_now_ = 0;
  feeding_ = true;
  metrics::count("sched.runs");
  on_begin();
}

void OnlineScheduler::push(TxnId t, Time arrival) {
  DTM_REQUIRE(feeding_, "push: no open feed (call begin_feed)");
  DTM_REQUIRE(t < inst_->num_transactions(), "push: TxnId out of range");
  DTM_REQUIRE(arrivals_[t] == kNeverReleased,
              "push: T" << t << " was already released");
  DTM_REQUIRE(arrival >= 0, "push: negative arrival step");
  DTM_REQUIRE(arrival >= feed_now_,
              "push: releases must be fed in non-decreasing time order (T"
                  << t << " at " << arrival << " after step " << feed_now_
                  << ")");
  arrivals_[t] = arrival;
  feed_now_ = arrival;
  on_push(t, arrival);
}

void OnlineScheduler::advance_to(Time t) {
  DTM_REQUIRE(feeding_, "advance_to: no open feed (call begin_feed)");
  if (t <= feed_now_) return;
  feed_now_ = t;
  on_advance(t);
}

Schedule OnlineScheduler::finish() {
  DTM_REQUIRE(feeding_, "finish: no open feed (call begin_feed)");
  feeding_ = false;
  return on_finish();
}

Schedule OnlineScheduler::run_online(const Instance& inst,
                                     const Metric& metric,
                                     std::span<const Time> arrival) {
  DTM_REQUIRE(arrival.size() == inst.num_transactions(),
              "arrival vector size mismatch");
  // Release order (ties by id — the model releases at discrete steps).
  std::vector<TxnId> order(inst.num_transactions());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](TxnId a, TxnId b) {
    return arrival[a] < arrival[b];
  });
  begin_feed(inst, metric);
  for (TxnId t : order) push(t, arrival[t]);
  return finish();
}

// --- FIFO ------------------------------------------------------------

void OnlineFifoScheduler::on_begin() {
  const Instance& inst = feed_instance();
  timer_ = std::make_unique<ScopedPhaseTimer>("phase.sched.online_fifo");
  commit_.assign(inst.num_transactions(), 0);
  chains_.assign(inst.num_objects(), {});
  tail_time_.assign(inst.num_objects(), 0);
  tail_pos_.resize(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    tail_pos_[o] = inst.object_home(o);
  }
}

void OnlineFifoScheduler::on_push(TxnId t, Time arrival) {
  const Instance& inst = feed_instance();
  const Metric& metric = feed_metric();
  const NodeId home = inst.home(t);
  Time ready = std::max<Time>(arrival, 1);
  for (ObjectId o : inst.objects(t)) {
    ready = std::max(
        ready, tail_time_[o] + hop_steps(metric.distance(tail_pos_[o], home)));
  }
  commit_[t] = ready;
  for (ObjectId o : inst.objects(t)) {
    chains_[o].push_back(t);
    tail_time_[o] = ready;
    tail_pos_[o] = home;
  }
}

Schedule OnlineFifoScheduler::on_finish() {
  timer_.reset();
  Schedule s;
  s.commit_time = std::move(commit_);
  s.object_order = std::move(chains_);
  return s;
}

// --- window batch ----------------------------------------------------

OnlineBatchScheduler::OnlineBatchScheduler(OnlineBatchOptions opts)
    : opts_(opts) {
  DTM_REQUIRE(opts_.window >= 1, "batch window must be >= 1 step");
}

std::string OnlineBatchScheduler::name() const {
  return "online-batch-w" + std::to_string(opts_.window);
}

void OnlineBatchScheduler::on_begin() {
  const Instance& inst = feed_instance();
  timer_ = std::make_unique<ScopedPhaseTimer>("phase.sched.online_batch");
  last_batches_ = 0;
  commit_.assign(inst.num_transactions(), 0);
  std::vector<NodeId> homes(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    homes[o] = inst.object_home(o);
  }
  placer_ = WindowPlacer(std::move(homes));
  batch_.clear();
  batch_window_ = 0;
}

void OnlineBatchScheduler::on_push(TxnId t, Time arrival) {
  const Time window_index = arrival / opts_.window;
  if (!batch_.empty() && window_index != batch_window_) flush_batch();
  batch_window_ = window_index;
  batch_.push_back(t);
}

void OnlineBatchScheduler::on_advance(Time t) {
  // The open window closes at (index + 1)·W; once time has provably moved
  // past it no further release can join the batch, so it is safe to fix.
  if (!batch_.empty() && (batch_window_ + 1) * opts_.window <= t) {
    flush_batch();
  }
}

void OnlineBatchScheduler::flush_batch() {
  const Instance& inst = feed_instance();
  const Metric& metric = feed_metric();
  const Time close = (batch_window_ + 1) * opts_.window;
  ++last_batches_;

  const WindowStep step = window_step(
      placer_, metric, batch_, close, opts_.rule,
      [&](TxnId t) { return inst.home(t); },
      [&](TxnId t) { return inst.objects(t); });
  for (std::size_t i = 0; i < step.colored.txns.size(); ++i) {
    commit_[step.colored.txns[i]] = step.start + step.colored.local_time[i];
  }
  batch_.clear();
}

Schedule OnlineBatchScheduler::on_finish() {
  if (!batch_.empty()) flush_batch();
  const Instance& inst = feed_instance();
  Schedule s;
  s.object_order = placed_object_orders(
      inst.num_objects(), commit_,
      [&](TxnId t) { return inst.objects(t); });
  s.commit_time = std::move(commit_);
  timer_.reset();
  return s;
}

}  // namespace dtm
