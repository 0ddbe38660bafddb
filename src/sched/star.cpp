#include "sched/star.hpp"

#include <algorithm>
#include <cmath>

#include "util/metrics.hpp"

namespace dtm {

StarScheduler::StarScheduler(const Star& topo, StarSchedulerOptions opts)
    : topo_(&topo), opts_(opts), rng_(opts.seed) {}

Schedule StarScheduler::run(const Instance& inst, const Metric& metric) {
  DTM_REQUIRE(&inst.graph() == &topo_->graph || inst.graph() == topo_->graph,
              "StarScheduler: instance is not on this star graph");
  ScopedPhaseTimer timer("phase.sched.star");
  metrics::count("sched.runs");
  if (opts_.strategy == StarStrategy::kBest) {
    StarSchedulerOptions greedy_opts = opts_;
    greedy_opts.strategy = StarStrategy::kGreedy;
    StarSchedulerOptions random_opts = opts_;
    random_opts.strategy = StarStrategy::kRandomized;
    StarScheduler greedy_sched(*topo_, greedy_opts);
    StarScheduler random_sched(*topo_, random_opts);
    Schedule a = greedy_sched.run(inst, metric);
    Schedule b = random_sched.run(inst, metric);
    if (a.makespan() <= b.makespan()) {
      stats_ = greedy_sched.last_stats();
      return a;
    }
    stats_ = random_sched.last_stats();
    return b;
  }
  stats_ = {};
  const std::size_t w = inst.num_objects();

  std::vector<Time> commit(inst.num_transactions(), 0);
  std::vector<char> done(inst.num_transactions(), 0);
  std::vector<NodeId> pos(w);
  for (ObjectId o = 0; o < w; ++o) pos[o] = inst.object_home(o);

  Time clock = 0;

  // The center's transaction goes first (its objects converge on s).
  if (const TxnId ct = inst.txn_at(topo_->center()); ct != kInvalidTxn) {
    Time t = 1;
    for (ObjectId o : inst.txn(ct).objects) {
      t = std::max(t, metric.distance(pos[o], topo_->center()));
    }
    commit[ct] = t;
    done[ct] = 1;
    for (ObjectId o : inst.txn(ct).objects) pos[o] = topo_->center();
    clock = t;
  }

  const double m = static_cast<double>(
      std::max(inst.graph().num_nodes(), inst.num_objects()));
  const double ln_m = std::max(1.0, std::log(std::max(2.0, m)));
  const auto k =
      static_cast<double>(std::max<std::size_t>(1, inst.max_objects_per_txn()));
  const double log_rand_cost = k * (std::log(40.0) + std::log(ln_m));

  const std::size_t eta = topo_->num_segments();
  stats_.periods = eta;

  for (std::size_t seg = 1; seg <= eta; ++seg) {
    const auto [first, last] = topo_->segment_range(seg);
    const auto seg_len = static_cast<Time>(last - first + 1);

    // Transactions of this period, and per-object pending requesters here.
    std::vector<TxnId> members;
    for (const Transaction& t : inst.transactions()) {
      if (done[t.id] || topo_->is_center(t.home)) continue;
      const std::size_t p = topo_->pos_of(t.home);
      if (p >= first && p <= last) members.push_back(t.id);
    }
    if (members.empty()) continue;

    // σ_i: max number of distinct ray-segments an object must visit.
    std::size_t sigma_i = 0;
    {
      std::vector<char> in_period(inst.num_transactions(), 0);
      for (TxnId t : members) in_period[t] = 1;
      std::vector<char> ray_seen(topo_->alpha);
      for (ObjectId o = 0; o < w; ++o) {
        std::fill(ray_seen.begin(), ray_seen.end(), 0);
        std::size_t count = 0;
        for (TxnId t : inst.requesters(o)) {
          if (!in_period[t]) continue;
          const std::size_t r = topo_->ray_of(inst.txn(t).home);
          if (!ray_seen[r]) {
            ray_seen[r] = 1;
            ++count;
          }
        }
        sigma_i = std::max(sigma_i, count);
      }
    }
    stats_.max_sigma = std::max(stats_.max_sigma, sigma_i);

    StarStrategy strat = opts_.strategy;
    if (strat == StarStrategy::kAuto) {
      // Theorem 5's min(k·2^i, c^k ln^k m) selector; σ_i <= 1 means the
      // segments are independent and greedy already runs them in parallel.
      const double greedy_cost =
          k * static_cast<double>(std::size_t{1} << seg);
      strat = (sigma_i <= 1 || std::log(greedy_cost) <= log_rand_cost)
                  ? StarStrategy::kGreedy
                  : StarStrategy::kRandomized;
    }

    if (strat == StarStrategy::kGreedy) {
      const ColoredSubset colored =
          greedy_color(inst, metric, members, opts_.rule);
      // First/last requester per object inside this period.
      std::vector<Time> first_t(w, kInfiniteWeight), last_t(w, 0);
      std::vector<NodeId> first_v(w, kInvalidNode), last_v(w, kInvalidNode);
      for (std::size_t i = 0; i < colored.txns.size(); ++i) {
        const Transaction& t = inst.txn(colored.txns[i]);
        for (ObjectId o : t.objects) {
          if (colored.local_time[i] < first_t[o]) {
            first_t[o] = colored.local_time[i];
            first_v[o] = t.home;
          }
          if (colored.local_time[i] >= last_t[o]) {
            last_t[o] = colored.local_time[i];
            last_v[o] = t.home;
          }
        }
      }
      Weight transition = 0;
      for (ObjectId o = 0; o < w; ++o) {
        if (first_v[o] != kInvalidNode) {
          transition = std::max(transition, metric.distance(pos[o], first_v[o]));
        }
      }
      for (std::size_t i = 0; i < colored.txns.size(); ++i) {
        commit[colored.txns[i]] = clock + transition + colored.local_time[i];
        done[colored.txns[i]] = 1;
      }
      for (ObjectId o = 0; o < w; ++o) {
        if (last_v[o] != kInvalidNode) pos[o] = last_v[o];
      }
      clock += transition + colored.duration;
      continue;
    }

    // Randomized strategy: cluster-style rounds; the "bridge" of a
    // ray-segment is its tip (innermost node, position `first`).
    ++stats_.randomized_periods;
    std::vector<char> pending(inst.num_transactions(), 0);
    std::size_t remaining = members.size();
    for (TxnId t : members) pending[t] = 1;
    std::size_t fruitless = 0;
    while (remaining > 0) {
      ++stats_.total_rounds;
      TxnId forced = kInvalidTxn;
      if (opts_.force_after > 0 && fruitless >= opts_.force_after) {
        for (TxnId t : members) {
          if (pending[t]) {
            forced = t;
            break;
          }
        }
        ++stats_.forced_rounds;
      }

      // Objects pick a random ray-segment still needing them.
      constexpr std::size_t kNoRay = static_cast<std::size_t>(-1);
      std::vector<std::size_t> chosen(w, kNoRay);
      for (ObjectId o = 0; o < w; ++o) {
        std::vector<std::size_t> choices;
        for (TxnId t : inst.requesters(o)) {
          if (!pending[t]) continue;
          const std::size_t r = topo_->ray_of(inst.txn(t).home);
          if (std::find(choices.begin(), choices.end(), r) == choices.end()) {
            choices.push_back(r);
          }
        }
        if (!choices.empty()) chosen[o] = choices[rng_.index(choices.size())];
      }
      if (forced != kInvalidTxn) {
        const std::size_t fr = topo_->ray_of(inst.txn(forced).home);
        for (ObjectId o : inst.txn(forced).objects) chosen[o] = fr;
      }

      // Travel budget: every picked object reaches its segment's tip.
      Weight arrive = 0;
      for (ObjectId o = 0; o < w; ++o) {
        if (chosen[o] == kNoRay) continue;
        arrive = std::max(
            arrive, metric.distance(pos[o], topo_->node_at(chosen[o], first)));
      }

      // Enabled transactions execute in one inner-to-outer sweep per ray.
      bool any_commit = false;
      std::vector<Time> obj_last_t(w, 0);
      std::vector<NodeId> obj_last_v(w, kInvalidNode);
      for (TxnId t : members) {
        if (!pending[t]) continue;
        const std::size_t r = topo_->ray_of(inst.txn(t).home);
        bool all_here = true;
        for (ObjectId o : inst.txn(t).objects) {
          if (chosen[o] != r) {
            all_here = false;
            break;
          }
        }
        if (!all_here) continue;
        const std::size_t p = topo_->pos_of(inst.txn(t).home);
        const Time local = static_cast<Time>(p - first + 1);
        commit[t] = clock + arrive + local;
        pending[t] = 0;
        done[t] = 1;
        --remaining;
        any_commit = true;
        for (ObjectId o : inst.txn(t).objects) {
          if (local >= obj_last_t[o]) {
            obj_last_t[o] = local;
            obj_last_v[o] = inst.txn(t).home;
          }
        }
      }
      // Park objects: at the outermost enabled requester if used, else at
      // the tip they traveled to.
      for (ObjectId o = 0; o < w; ++o) {
        if (chosen[o] == kNoRay) continue;
        pos[o] = obj_last_v[o] != kInvalidNode
                     ? obj_last_v[o]
                     : topo_->node_at(chosen[o], first);
      }
      clock += arrive + seg_len;
      fruitless = any_commit ? 0 : fruitless + 1;
    }
  }

  DTM_ASSERT_MSG(std::all_of(done.begin(), done.end(),
                             [](char d) { return d != 0; }),
                 "star schedule left transactions pending");
  return Schedule::from_commit_times(inst, std::move(commit));
}

}  // namespace dtm
