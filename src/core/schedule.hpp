// Execution schedule: the output of every scheduling algorithm.
//
// A schedule fixes (a) the commit time of every transaction and (b) a visit
// order per object (the sequence of its requesters). Feasibility (§2.1,
// Definition 1) means every object can reach each requester in time:
//
//   t(first requester of o)  >=  dist(home(o), node(first)),
//   t(next) - t(prev)        >=  dist(node(prev), node(next)).
//
// These constraints are exactly what validate() checks and what the
// simulator re-derives operationally.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/types.hpp"

namespace dtm {

struct Schedule {
  /// commit_time[t] is the step at which transaction t commits (>= 1).
  std::vector<Time> commit_time;
  /// object_order[o] lists o's requesters in visiting order.
  std::vector<std::vector<TxnId>> object_order;

  /// Max commit time; 0 for an empty schedule.
  Time makespan() const;

  /// Derives object orders by sorting each object's requesters by commit
  /// time (ties broken by TxnId). Feasible schedules have no ties among
  /// requesters of one object: consecutive visits are hop_steps >= 1 apart,
  /// shared homes included.
  static Schedule from_commit_times(const Instance& inst,
                                    std::vector<Time> commit_time);
};

/// Per-object visit orders read off commit times, for schedules built
/// window by window (sched/online.hpp, sim/runtime.hpp): object o's order
/// lists the transactions t that request o (`objects_of(t)`) and are
/// placed (commit[t] > 0), by (commit time, id). Unplaced transactions are
/// left out. A count pass sizes each order exactly, a scatter in id order
/// fills it, and a stable sort by commit time orders it.
template <class ObjectsOf>
std::vector<std::vector<TxnId>> placed_object_orders(
    std::size_t num_objects, std::span<const Time> commit,
    const ObjectsOf& objects_of) {
  std::vector<std::size_t> count(num_objects, 0);
  for (std::size_t t = 0; t < commit.size(); ++t) {
    if (commit[t] == 0) continue;
    for (ObjectId o : objects_of(static_cast<TxnId>(t))) ++count[o];
  }
  std::vector<std::vector<TxnId>> order(num_objects);
  for (std::size_t o = 0; o < num_objects; ++o) order[o].reserve(count[o]);
  for (std::size_t t = 0; t < commit.size(); ++t) {
    if (commit[t] == 0) continue;
    for (ObjectId o : objects_of(static_cast<TxnId>(t))) {
      order[o].push_back(static_cast<TxnId>(t));
    }
  }
  for (std::vector<TxnId>& chain : order) {
    std::stable_sort(chain.begin(), chain.end(), [&](TxnId a, TxnId b) {
      return commit[a] < commit[b];
    });
  }
  return order;
}

}  // namespace dtm
