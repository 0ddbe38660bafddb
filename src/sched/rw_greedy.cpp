#include "sched/rw_greedy.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/metrics.hpp"

namespace dtm {

namespace {

/// Dependency graph restricted to read/write conflicts: an edge between
/// two requesters of o iff at least one of them writes o.
DependencyGraph build_rw_dependency_graph(const Instance& inst,
                                          const WriteSets& writes,
                                          const Metric& metric) {
  std::vector<TxnId> all(inst.num_transactions());
  std::iota(all.begin(), all.end(), 0);
  // Local index == global TxnId here (all transactions, ascending).
  return detail::assemble_dependency_csr(
      inst, metric, std::move(all), [&](const auto& emit) {
        for (ObjectId o = 0; o < inst.num_objects(); ++o) {
          const auto& reqs = inst.requesters(o);
          for (std::size_t i = 0; i < reqs.size(); ++i) {
            for (std::size_t j = i + 1; j < reqs.size(); ++j) {
              if (is_write(writes, reqs[i], o) ||
                  is_write(writes, reqs[j], o)) {
                emit(reqs[i], reqs[j]);
              }
            }
          }
        }
      });
}

/// First-fit / pigeonhole coloring of a prebuilt dependency graph (the
/// same rules as sched/greedy.cpp, operating on the RW graph).
std::vector<Time> color_graph(const DependencyGraph& h, ColoringRule rule) {
  std::vector<Time> color(h.size(), 0);
  const Weight hmax = std::max<Weight>(h.max_edge_weight, 1);
  for (std::size_t u = 0; u < h.size(); ++u) {
    if (rule == ColoringRule::kPaperPigeonhole) {
      std::vector<char> used(h.max_degree + 1, 0);
      for (const DependencyEdge& e : h.neighbors(u)) {
        const Time c = color[e.neighbor];
        if (c == 0) continue;
        const Time slot = (c - 1) / hmax;
        if (slot <= static_cast<Time>(h.max_degree)) {
          used[static_cast<std::size_t>(slot)] = 1;
        }
      }
      for (std::size_t k = 0; k <= h.max_degree; ++k) {
        if (!used[k]) {
          color[u] = static_cast<Time>(k) * hmax + 1;
          break;
        }
      }
    } else {
      std::vector<std::pair<Time, Time>> forbidden;
      for (const DependencyEdge& e : h.neighbors(u)) {
        const Time c = color[e.neighbor];
        if (c == 0) continue;
        forbidden.emplace_back(c - e.weight + 1, c + e.weight - 1);
      }
      std::sort(forbidden.begin(), forbidden.end());
      Time t = 1;
      for (const auto& [lo, hi] : forbidden) {
        if (lo > t) break;
        t = std::max(t, hi + 1);
      }
      color[u] = t;
    }
    DTM_ASSERT(color[u] >= 1);
  }
  return color;
}

}  // namespace

std::vector<Time> rw_earliest_times(
    const Instance& inst, const Metric& metric,
    const std::vector<std::vector<TxnId>>& writer_order,
    const std::vector<std::vector<std::pair<TxnId, TxnId>>>& reader_source,
    RwPolicy policy) {
  const std::size_t n = inst.num_transactions();
  struct Succ {
    TxnId next;
    Weight dist;
  };
  std::vector<std::vector<Succ>> succ(n);
  std::vector<std::size_t> indegree(n, 0);
  std::vector<Time> time(n, 1);
  auto add_edge = [&](TxnId a, TxnId b, Weight d) {
    succ[a].push_back({b, d});
    ++indegree[b];
  };

  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const NodeId home = inst.object_home(o);
    const auto& chain = writer_order[o];
    if (!chain.empty()) {
      time[chain[0]] = std::max(
          time[chain[0]], metric.distance(home, inst.txn(chain[0]).home));
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        add_edge(chain[i], chain[i + 1],
                 metric.distance(inst.txn(chain[i]).home,
                                 inst.txn(chain[i + 1]).home));
      }
    }
    for (const auto& [reader, source] : reader_source[o]) {
      const NodeId rnode = inst.txn(reader).home;
      std::size_t src_index;
      if (source == kInvalidTxn) {
        time[reader] = std::max(time[reader], metric.distance(home, rnode));
        src_index = static_cast<std::size_t>(-1);
      } else {
        add_edge(source, reader,
                 metric.distance(inst.txn(source).home, rnode));
        const auto it = std::find(chain.begin(), chain.end(), source);
        DTM_REQUIRE(it != chain.end(),
                    "rw_earliest_times: source is not a writer");
        src_index = static_cast<std::size_t>(it - chain.begin());
      }
      if (policy == RwPolicy::kSingleVersion && src_index + 1 < chain.size()) {
        const TxnId wnext = chain[src_index + 1];
        add_edge(reader, wnext,
                 metric.distance(rnode, inst.txn(wnext).home));
      }
    }
  }

  std::queue<TxnId> q;
  for (TxnId t = 0; t < n; ++t) {
    if (indegree[t] == 0) q.push(t);
  }
  std::size_t processed = 0;
  while (!q.empty()) {
    const TxnId t = q.front();
    q.pop();
    ++processed;
    for (const Succ& s : succ[t]) {
      time[s.next] = std::max(time[s.next], time[t] + s.dist);
      if (--indegree[s.next] == 0) q.push(s.next);
    }
  }
  DTM_REQUIRE(processed == n, "rw_earliest_times: dependency cycle");
  return time;
}

RwSchedule schedule_rw_greedy(const Instance& inst, const WriteSets& writes,
                              const Metric& metric,
                              const RwGreedyOptions& opts) {
  DTM_REQUIRE(writes.size() == inst.num_transactions(),
              "write sets size mismatch");
  ScopedPhaseTimer timer("phase.sched.rw_greedy");
  metrics::count("sched.runs");
  const DependencyGraph h = build_rw_dependency_graph(inst, writes, metric);
  std::vector<Time> color = color_graph(h, opts.rule);

  RwSchedule s;
  s.writer_order.resize(inst.num_objects());
  s.reader_source.resize(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    std::vector<TxnId> writers, readers;
    for (TxnId t : inst.requesters(o)) {
      (is_write(writes, t, o) ? writers : readers).push_back(t);
    }
    metrics::count("rw.write_accesses", writers.size());
    metrics::count("rw.read_accesses", readers.size());
    std::sort(writers.begin(), writers.end(), [&](TxnId a, TxnId b) {
      return color[a] != color[b] ? color[a] < color[b] : a < b;
    });
    s.writer_order[o] = writers;
    for (TxnId r : readers) {
      // Freshest version the reader can see: the last writer colored
      // strictly before it (the RW conflict edge guarantees the copy has
      // time to travel). Earlier readers fall back to the initial version.
      TxnId source = kInvalidTxn;
      for (TxnId wtxn : writers) {
        if (color[wtxn] < color[r]) {
          source = wtxn;
        } else {
          break;
        }
      }
      s.reader_source[o].push_back({r, source});
    }
  }

  if (opts.compact) {
    s.commit_time = rw_earliest_times(inst, metric, s.writer_order,
                                      s.reader_source, opts.policy);
    return s;
  }

  // Keep the coloring times, shifted so every initial-version constraint
  // (master to first writer, home to initial readers) is met.
  Time shift = 0;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const NodeId home = inst.object_home(o);
    if (!s.writer_order[o].empty()) {
      const TxnId first = s.writer_order[o].front();
      shift = std::max(shift, metric.distance(home, inst.txn(first).home) -
                                  color[first]);
    }
    for (const auto& [reader, source] : s.reader_source[o]) {
      if (source == kInvalidTxn) {
        shift = std::max(shift,
                         metric.distance(home, inst.txn(reader).home) -
                             color[reader]);
      }
    }
  }
  s.commit_time = std::move(color);
  if (shift > 0) {
    for (Time& t : s.commit_time) t += shift;
  }
  return s;
}

}  // namespace dtm
