#include "sched/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "util/metrics.hpp"

namespace dtm {

ClusterScheduler::ClusterScheduler(const ClusterGraph& topo,
                                   ClusterSchedulerOptions opts)
    : topo_(&topo), opts_(opts), rng_(opts.seed) {}

std::string ClusterScheduler::name() const {
  switch (opts_.approach) {
    case ClusterApproach::kGreedy: return "cluster-greedy";
    case ClusterApproach::kRandomized: return "cluster-randomized";
    case ClusterApproach::kAuto: return "cluster-auto";
    case ClusterApproach::kBest: return "cluster-best";
  }
  return "cluster";
}

Schedule ClusterScheduler::run(const Instance& inst, const Metric& metric) {
  DTM_REQUIRE(&inst.graph() == &topo_->graph || inst.graph() == topo_->graph,
              "ClusterScheduler: instance is not on this cluster graph");
  ScopedPhaseTimer timer("phase.sched.cluster");
  metrics::count("sched.runs");
  stats_ = {};

  // σ = max over objects of the number of distinct clusters with
  // requesters. One stamp array shared across objects (stamp = o + 1)
  // keeps this O(α + Σ requesters) instead of O(w·α) — the difference
  // between instant and hours on a million-object instance.
  std::vector<ObjectId> seen(topo_->alpha, 0);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    std::size_t clusters = 0;
    for (TxnId t : inst.requesters(o)) {
      const std::size_t c = topo_->cluster_of(inst.home(t));
      if (seen[c] != o + 1) {
        seen[c] = o + 1;
        ++clusters;
      }
    }
    stats_.sigma = std::max(stats_.sigma, clusters);
  }

  ClusterApproach approach = opts_.approach;
  if (approach == ClusterApproach::kBest) {
    // Offline: compute both and keep the better. σ <= 1 needs no
    // randomized pass (greedy already achieves the O(k) case).
    GreedyOptions gopts;
    gopts.rule = opts_.rule;
    Schedule greedy_s = GreedyScheduler(gopts).run(inst, metric);
    if (stats_.sigma <= 1) return greedy_s;
    const ClusterRunStats sigma_only = stats_;
    Schedule random_s = run_randomized(inst, metric);
    if (greedy_s.makespan() <= random_s.makespan()) {
      stats_ = sigma_only;  // the randomized stats don't describe the output
      return greedy_s;
    }
    return random_s;
  }
  if (approach == ClusterApproach::kAuto) {
    if (stats_.sigma <= 1) {
      approach = ClusterApproach::kGreedy;
    } else {
      const double m = static_cast<double>(
          std::max(inst.graph().num_nodes(), inst.num_objects()));
      const auto k =
          static_cast<double>(std::max<std::size_t>(1, inst.max_objects_per_txn()));
      const double cost1 = k * static_cast<double>(topo_->beta);
      // 40^k ln^k m, the Approach-2 factor of Theorem 4 (in logs to avoid
      // overflow for large k).
      const double log_cost2 = k * (std::log(40.0) + std::log(std::max(
                                        1.0, std::log(std::max(2.0, m)))));
      approach = (std::log(cost1) <= log_cost2) ? ClusterApproach::kGreedy
                                                : ClusterApproach::kRandomized;
    }
  }

  if (approach == ClusterApproach::kGreedy) {
    GreedyOptions gopts;
    gopts.rule = opts_.rule;
    return GreedyScheduler(gopts).run(inst, metric);
  }
  return run_randomized(inst, metric);
}

Schedule ClusterScheduler::run_randomized(const Instance& inst,
                                          const Metric& metric) {
  stats_.used_randomized = true;
  const std::size_t alpha = topo_->alpha;
  const Time round_len =
      static_cast<Time>(topo_->beta) + topo_->gamma + 2;  // β + γ + 2

  // ψ = ⌈σ/(24 ln m)⌉ phases; every cluster joins a random phase.
  const double m = static_cast<double>(
      std::max(inst.graph().num_nodes(), inst.num_objects()));
  const double ln_m = std::max(1.0, std::log(std::max(2.0, m)));
  const std::size_t psi = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(static_cast<double>(stats_.sigma) / (24.0 * ln_m))));
  std::vector<std::size_t> phase_of_cluster(alpha);
  for (std::size_t c = 0; c < alpha; ++c) {
    phase_of_cluster[c] = rng_.index(psi);
  }
  stats_.phases = psi;

  std::vector<Time> commit(inst.num_transactions(), 0);
  std::vector<char> done(inst.num_transactions(), 0);
  // pending_in_cluster[c]: not-yet-committed transactions homed in c.
  std::vector<std::vector<TxnId>> pending(alpha);
  for (const TxnRef t : inst.transactions()) {
    pending[topo_->cluster_of(t.home)].push_back(t.id);
  }

  Time base = 0;
  for (std::size_t p = 0; p < psi; ++p) {
    // Clusters of this phase with pending work.
    std::vector<std::size_t> active_clusters;
    std::size_t remaining = 0;
    for (std::size_t c = 0; c < alpha; ++c) {
      if (phase_of_cluster[c] == p && !pending[c].empty()) {
        active_clusters.push_back(c);
        remaining += pending[c].size();
      }
    }
    std::vector<char> in_phase(alpha, 0);
    for (std::size_t c : active_clusters) in_phase[c] = 1;

    std::size_t fruitless = 0;
    while (remaining > 0) {
      ++stats_.total_rounds;
      // Forced round: derandomize for the oldest pending transaction.
      TxnId forced = kInvalidTxn;
      if (opts_.force_after > 0 && fruitless >= opts_.force_after) {
        for (std::size_t c : active_clusters) {
          for (TxnId t : pending[c]) {
            if (!done[t] && (forced == kInvalidTxn || t < forced)) forced = t;
          }
        }
        ++stats_.forced_rounds;
      }
      const std::size_t forced_cluster =
          forced == kInvalidTxn
              ? alpha
              : topo_->cluster_of(inst.home(forced));

      // Each object picks an active cluster that still needs it.
      std::vector<std::size_t> chosen(inst.num_objects(), alpha);  // alpha=nil
      for (ObjectId o = 0; o < inst.num_objects(); ++o) {
        std::vector<std::size_t> choices;
        for (TxnId t : inst.requesters(o)) {
          if (done[t]) continue;
          const std::size_t c = topo_->cluster_of(inst.home(t));
          if (in_phase[c] &&
              std::find(choices.begin(), choices.end(), c) == choices.end()) {
            choices.push_back(c);
          }
        }
        if (!choices.empty()) chosen[o] = choices[rng_.index(choices.size())];
      }
      if (forced != kInvalidTxn) {
        for (ObjectId o : inst.objects(forced)) chosen[o] = forced_cluster;
      }

      // Enabled transactions per cluster; execute each cluster's enabled
      // set with the greedy schedule inside the round.
      bool any_commit = false;
      for (std::size_t c : active_clusters) {
        std::vector<TxnId> enabled;
        for (TxnId t : pending[c]) {
          if (done[t]) continue;
          bool all_here = true;
          for (ObjectId o : inst.objects(t)) {
            if (chosen[o] != c) {
              all_here = false;
              break;
            }
          }
          if (all_here) enabled.push_back(t);
        }
        if (enabled.empty()) continue;
        const ColoredSubset colored =
            greedy_color(inst, metric, enabled, opts_.rule);
        DTM_ASSERT_MSG(colored.duration <= static_cast<Time>(topo_->beta),
                       "cluster round overflow: duration "
                           << colored.duration << " > beta " << topo_->beta);
        for (std::size_t i = 0; i < colored.txns.size(); ++i) {
          const TxnId t = colored.txns[i];
          commit[t] = base + topo_->gamma + 1 + colored.local_time[i];
          done[t] = 1;
          --remaining;
          any_commit = true;
        }
      }
      fruitless = any_commit ? 0 : fruitless + 1;
      base += round_len;
    }
    // Compact pending lists for stats cleanliness.
    for (std::size_t c : active_clusters) {
      auto& v = pending[c];
      v.erase(std::remove_if(v.begin(), v.end(),
                             [&](TxnId t) { return done[t] != 0; }),
              v.end());
    }
  }

  DTM_ASSERT_MSG(std::all_of(done.begin(), done.end(),
                             [](char d) { return d != 0; }),
                 "cluster randomized schedule left transactions pending");
  return Schedule::from_commit_times(inst, std::move(commit));
}

}  // namespace dtm
