#include "sim/congestion.hpp"

#include <algorithm>
#include <unordered_map>

#include "sim/engine.hpp"
#include "util/metrics.hpp"

namespace dtm {

namespace {

/// Canonical undirected edge key.
std::uint64_t edge_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

struct Traversal {
  Time start;  // first step on the edge
  Time end;    // last step on the edge (inclusive)
};

struct PerEdge {
  std::vector<Traversal> traversals;
};

/// Peak overlap of a set of closed intervals, by endpoint sweep.
std::size_t peak_overlap(std::vector<Traversal>& ts) {
  std::vector<std::pair<Time, int>> events;
  events.reserve(ts.size() * 2);
  for (const Traversal& t : ts) {
    events.emplace_back(t.start, +1);
    events.emplace_back(t.end + 1, -1);
  }
  std::sort(events.begin(), events.end());
  std::size_t cur = 0, best = 0;
  for (const auto& [time, delta] : events) {
    (void)time;
    cur = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(cur) + delta);
    best = std::max(best, cur);
  }
  return best;
}

}  // namespace

CongestionReport analyze_congestion(const Instance& inst, const Metric& metric,
                                    const Schedule& s, std::size_t top_k) {
  ScopedPhaseTimer timer("phase.congestion");
  MetricCounter& traversals = metrics::counter("congestion.traversals");
  CongestionReport report;
  std::unordered_map<std::uint64_t, PerEdge> edges;

  // Pure analysis pass over the schedule's planned leg trace (the same
  // launches the engine would perform, object-major / leg-minor): each leg
  // departs at the previous holder's commit and occupies each hop's edge
  // for `weight` consecutive steps.
  for (const LegRecord& leg : planned_leg_trace(inst, s)) {
    if (leg.from == leg.to) continue;  // instant handoff, no link pressure
    const auto path = metric.path(leg.from, leg.to);
    Time clock = leg.depart;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const Weight hop = metric.distance(path[i], path[i + 1]);
      edges[edge_key(path[i], path[i + 1])].traversals.push_back(
          {clock + 1, clock + hop});
      traversals.add();
      clock += hop;
      report.total_flow += hop;
    }
  }

  report.edges_used = edges.size();
  std::vector<EdgeLoad> loads;
  loads.reserve(edges.size());
  for (auto& [key, per_edge] : edges) {
    EdgeLoad load;
    load.u = static_cast<NodeId>(key >> 32);
    load.v = static_cast<NodeId>(key & 0xFFFFFFFFu);
    load.traversals = per_edge.traversals.size();
    load.peak = peak_overlap(per_edge.traversals);
    report.peak_load = std::max(report.peak_load, load.peak);
    loads.push_back(load);
  }
  std::sort(loads.begin(), loads.end(), [](const EdgeLoad& a, const EdgeLoad& b) {
    return a.peak != b.peak ? a.peak > b.peak : a.traversals > b.traversals;
  });
  if (loads.size() > top_k) loads.resize(top_k);
  report.hottest = std::move(loads);
  return report;
}

}  // namespace dtm
