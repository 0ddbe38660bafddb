#include "sched/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "core/precedence.hpp"
#include "util/metrics.hpp"

namespace dtm {

namespace {

std::vector<std::size_t> coloring_sequence(const DependencyGraph& h,
                                           ColoringOrder order, Rng* rng) {
  std::vector<std::size_t> seq(h.size());
  std::iota(seq.begin(), seq.end(), 0);
  switch (order) {
    case ColoringOrder::kById:
      break;
    case ColoringOrder::kByDegreeDesc:
      std::stable_sort(seq.begin(), seq.end(),
                       [&](std::size_t a, std::size_t b) {
                         return h.degree(a) > h.degree(b);
                       });
      break;
    case ColoringOrder::kRandom: {
      DTM_REQUIRE(rng != nullptr, "random coloring order needs an Rng");
      std::vector<std::size_t> tmp(seq.begin(), seq.end());
      rng->shuffle(tmp);
      seq = std::move(tmp);
      break;
    }
  }
  return seq;
}

/// Paper rule: pick the smallest k_u in [0, Δ] unused by colored neighbors;
/// color = k_u·h_max + 1.
Time pigeonhole_color(const DependencyGraph& h,
                      const std::vector<Time>& color, std::size_t u,
                      Weight hmax) {
  const std::size_t delta = h.max_degree;
  std::vector<char> used(delta + 1, 0);
  for (const DependencyEdge& e : h.neighbors(u)) {
    const Time c = color[e.neighbor];
    if (c == 0) continue;  // neighbor not colored yet
    const Time slot = (c - 1) / hmax;
    if (slot <= static_cast<Time>(delta)) {
      used[static_cast<std::size_t>(slot)] = 1;
    }
  }
  for (std::size_t k = 0; k <= delta; ++k) {
    if (!used[k]) return static_cast<Time>(k) * hmax + 1;
  }
  DTM_ASSERT_MSG(false, "pigeonhole: no free slot (degree invariant broken)");
  return 0;
}

/// First-fit rule: smallest t >= 1 outside every forbidden interval
/// [t_v − w + 1, t_v + w − 1] of the colored neighbors.
Time first_fit_color(const DependencyGraph& h, const std::vector<Time>& color,
                     std::size_t u) {
  std::vector<std::pair<Time, Time>> forbidden;
  for (const DependencyEdge& e : h.neighbors(u)) {
    const Time c = color[e.neighbor];
    if (c == 0) continue;
    forbidden.emplace_back(c - e.weight + 1, c + e.weight - 1);
  }
  std::sort(forbidden.begin(), forbidden.end());
  Time t = 1;
  for (const auto& [lo, hi] : forbidden) {
    if (lo > t) break;  // gap found before this interval
    t = std::max(t, hi + 1);
  }
  return t;
}

}  // namespace

ColoredSubset greedy_color(const Instance& inst, const Metric& metric,
                           std::span<const TxnId> txns, ColoringRule rule,
                           ColoringOrder order, Rng* rng) {
  const DependencyGraph h = [&] {
    ScopedPhaseTimer timer("phase.decomposition");
    return build_dependency_graph(inst, metric, txns);
  }();
  return greedy_color(h, rule, order, rng);
}

ColoredSubset greedy_color(const DependencyGraph& h, ColoringRule rule,
                           ColoringOrder order, Rng* rng) {
  ScopedPhaseTimer timer("phase.coloring");
  ColoredSubset out;
  out.txns = h.txns;
  out.local_time.assign(h.size(), 0);
  const Weight hmax = std::max<Weight>(h.max_edge_weight, 1);
  std::uint64_t probes = 0;  // neighbors examined while picking colors
  for (std::size_t u : coloring_sequence(h, order, rng)) {
    probes += h.degree(u);
    const Time c =
        rule == ColoringRule::kPaperPigeonhole
            ? pigeonhole_color(h, out.local_time, u, hmax)
            : first_fit_color(h, out.local_time, u);
    out.local_time[u] = c;
    out.duration = std::max(out.duration, c);
  }
  static MetricCounter& color_probes = metrics::counter("greedy.color_probes");
  static MetricCounter& colored_txns = metrics::counter("greedy.colored_txns");
  color_probes.add(probes);
  colored_txns.add(h.size());
  return out;
}

GreedyScheduler::GreedyScheduler(GreedyOptions opts)
    : opts_(opts), rng_(opts.seed) {}

std::string GreedyScheduler::name() const {
  std::string n = "greedy";
  n += opts_.rule == ColoringRule::kFirstFit ? "-ff" : "-paper";
  if (opts_.compact) n += "-compact";
  return n;
}

Schedule GreedyScheduler::run(const Instance& inst, const Metric& metric) {
  ScopedPhaseTimer timer("phase.sched.greedy");
  metrics::count("sched.runs");
  std::vector<TxnId> all(inst.num_transactions());
  std::iota(all.begin(), all.end(), 0);
  const ColoredSubset colored =
      greedy_color(inst, metric, all, opts_.rule, opts_.order, &rng_);

  std::vector<Time> commit(inst.num_transactions(), 1);
  for (std::size_t i = 0; i < colored.txns.size(); ++i) {
    commit[colored.txns[i]] = colored.local_time[i];
  }
  Schedule s = Schedule::from_commit_times(inst, std::move(commit));

  if (opts_.compact) {
    // Earliest times for the color-induced orders; subsumes positioning.
    ScopedPhaseTimer timer("phase.compaction");
    return compact(inst, metric, s);
  }

  // §2.3 assumes objects start at their first scheduled requester. For
  // arbitrary initial placement, shift the whole schedule just enough for
  // every object to reach its first requester in time.
  Time shift = 0;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    if (s.object_order[o].empty()) continue;
    const TxnId first = s.object_order[o].front();
    const Weight d =
        metric.distance(inst.object_home(o), inst.home(first));
    shift = std::max(shift, d - s.commit_time[first]);
  }
  if (shift > 0) {
    for (Time& t : s.commit_time) t += shift;
  }
  return s;
}

}  // namespace dtm
