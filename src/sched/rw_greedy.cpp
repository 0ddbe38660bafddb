#include "sched/rw_greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>

#include "core/precedence.hpp"
#include "util/metrics.hpp"

namespace dtm {

namespace {

/// Dependency graph restricted to read/write conflicts: an edge between
/// two requesters of o iff at least one of them writes o.
DependencyGraph build_rw_dependency_graph(const Instance& inst,
                                          const WriteSets& writes,
                                          const Metric& metric) {
  // Of an object's r requesters, q only read it: its r(r - 1)/2 pairs less
  // the q(q - 1)/2 read-read ones conflict, two raw arcs each. Check their
  // sum before any pair is emitted.
  std::uint64_t raw_arcs = 0;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const std::span<const TxnId> reqs = inst.requesters(o);
    const std::uint64_t r = reqs.size();
    const std::uint64_t q =
        std::count_if(reqs.begin(), reqs.end(),
                      [&](TxnId t) { return !is_write(writes, t, o); });
    raw_arcs += r * (r - 1) - q * (q - 1);
  }
  detail::require_arc_count(raw_arcs);
  std::vector<TxnId> all(inst.num_transactions());
  std::iota(all.begin(), all.end(), 0);
  // Local index == global TxnId here (all transactions, ascending).
  return detail::assemble_dependency_csr(
      metric, std::move(all), [&](TxnId t) { return inst.home(t); },
      [&](const auto& emit) {
        // Each writer pairs with every reader and every later writer, so
        // no read-read pair is visited: O(writers · r) per object.
        std::vector<char> writes_o;
        for (ObjectId o = 0; o < inst.num_objects(); ++o) {
          const std::span<const TxnId> reqs = inst.requesters(o);
          writes_o.resize(reqs.size());
          for (std::size_t i = 0; i < reqs.size(); ++i) {
            writes_o[i] = is_write(writes, reqs[i], o) ? 1 : 0;
          }
          for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (writes_o[i] == 0) continue;
            for (std::size_t j = 0; j < reqs.size(); ++j) {
              if (j != i && (writes_o[j] == 0 || j > i)) {
                emit(reqs[i], reqs[j]);
              }
            }
          }
        }
      });
}

}  // namespace

std::vector<Time> rw_earliest_times(
    const Instance& inst, const Metric& metric,
    const std::vector<std::vector<TxnId>>& writer_order,
    const std::vector<std::vector<std::pair<TxnId, TxnId>>>& reader_source,
    RwPolicy policy) {
  // Writer chains obey the hop rule; the master's source anchor, reader
  // copies and revocations travel their raw distance.
  std::vector<Time> floor(inst.num_transactions(), 1);
  std::vector<PrecedenceArc> arcs;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    const NodeId home = inst.object_home(o);
    const auto& chain = writer_order[o];
    if (!chain.empty()) {
      floor[chain[0]] = std::max(
          floor[chain[0]], metric.distance(home, inst.home(chain[0])));
      append_chain_arcs(inst, metric, chain, arcs);
    }
    for (const auto& [reader, source] : reader_source[o]) {
      const NodeId rnode = inst.home(reader);
      std::size_t src_index;
      if (source == kInvalidTxn) {
        floor[reader] = std::max(floor[reader], metric.distance(home, rnode));
        src_index = static_cast<std::size_t>(-1);
      } else {
        arcs.push_back(
            {source, reader, metric.distance(inst.home(source), rnode)});
        const auto it = std::find(chain.begin(), chain.end(), source);
        DTM_REQUIRE(it != chain.end(),
                    "rw_earliest_times: source is not a writer");
        src_index = static_cast<std::size_t>(it - chain.begin());
      }
      if (policy == RwPolicy::kSingleVersion && src_index + 1 < chain.size()) {
        const TxnId wnext = chain[src_index + 1];
        arcs.push_back(
            {reader, wnext, metric.distance(rnode, inst.home(wnext))});
      }
    }
  }
  return longest_path_times(std::move(floor), arcs, "rw_earliest_times");
}

RwSchedule schedule_rw_greedy(const Instance& inst, const WriteSets& writes,
                              const Metric& metric,
                              const RwGreedyOptions& opts) {
  DTM_REQUIRE(writes.size() == inst.num_transactions(),
              "write sets size mismatch");
  ScopedPhaseTimer timer("phase.sched.rw_greedy");
  metrics::count("sched.runs");
  const DependencyGraph h = build_rw_dependency_graph(inst, writes, metric);
  // Local index == global TxnId, so the local times index by TxnId.
  std::vector<Time> color = greedy_color(h, opts.rule).local_time;

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
      shift = std::max(shift, metric.distance(home, inst.home(first)) -
                                  color[first]);
    }
    for (const auto& [reader, source] : s.reader_source[o]) {
      if (source == kInvalidTxn) {
        shift = std::max(shift,
                         metric.distance(home, inst.home(reader)) -
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
