#include "sim/trace_analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <string_view>

#include "util/stats.hpp"

namespace dtm {

namespace {

/// An id as the trace writes it: -1 for the invalid id.
std::int64_t trace_id(std::uint32_t id) {
  return id == static_cast<std::uint32_t>(-1) ? -1
                                              : static_cast<std::int64_t>(id);
}

std::string node_track(NodeId n) {
  std::string out = "node ";
  out += std::to_string(n);
  return out;
}

// The track both directions of link {a, b} share: "link min-max".
// (Concatenation is spelled with append — gcc 12 raises a bogus -Wrestrict
// on `const char* + string&&`.)
std::string link_track(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  std::string out = "link ";
  out += std::to_string(a);
  out += '-';
  out += std::to_string(b);
  return out;
}

// The exported name of each fault kind, indexed by SimEvent::Fault.
constexpr const char* kFaultNames[] = {"", "outage", "reroute", "loss",
                                       "slowdown"};

}  // namespace

std::vector<TraceSpanRecord> trace_records(const std::vector<SimEvent>& log) {
  using Kind = SimEvent::Kind;
  std::vector<TraceSpanRecord> out;
  std::int64_t splices = 0;
  for (const SimEvent& e : log) {
    TraceSpanRecord r;
    r.begin = static_cast<double>(e.since);
    r.end = static_cast<double>(e.time);
    const auto i64 = [](auto v) { return static_cast<std::int64_t>(v); };
    switch (e.kind) {
      case Kind::kLeg:
        r.cat = "leg";
        r.track = link_track(e.from, e.node);
        r.name = "o";
        r.name += std::to_string(e.object);
        r.name += '#';
        r.name += std::to_string(e.leg);
        r.args = {{"from", i64(e.from)}, {"leg", i64(e.leg)},
                  {"object", i64(e.object)}, {"prev", trace_id(e.prev)},
                  {"to", i64(e.node)}, {"txn", i64(e.txn)}};
        if (e.redirect) r.args.push_back({"redirect", 1});
        break;
      case Kind::kCommit:
        r.cat = "txn";
        r.track = node_track(e.node);
        r.name = "T";
        r.name += std::to_string(e.txn);
        r.args = {{"planned", i64(e.planned)}, {"txn", i64(e.txn)}};
        break;
      case Kind::kDegraded:
        r.cat = "fault";
        r.instant = true;
        r.begin = r.end;
        r.track = node_track(e.node);
        r.name = "degraded";
        r.args = {{"stall", i64(e.time - e.planned)}, {"txn", i64(e.txn)}};
        break;
      case Kind::kQueueWait:
        r.cat = "queue";
        r.track = link_track(e.from, e.node);
        r.name = "o";
        r.name += std::to_string(e.object);
        r.name += " wait";
        r.args = {{"leg", i64(e.leg)}, {"object", i64(e.object)}};
        break;
      case Kind::kFault:
        r.cat = "fault";
        r.instant = true;
        r.begin = r.end;
        r.track = link_track(e.from, e.node);
        r.name = kFaultNames[static_cast<int>(e.fault)];
        r.args = {{"object", trace_id(e.object)},
                  {"u", i64(e.from)},
                  {"v", i64(e.node)}};
        break;
      case Kind::kReschedule:
        r.cat = "resched";
        r.instant = true;
        r.begin = r.end;
        r.track = "scheduler";
        r.name = "reschedule";
        r.args = {{"index", ++splices}, {"lag", i64(e.time - e.since)}};
        break;
      default:
        continue;  // moves are not trace records
    }
    out.push_back(std::move(r));
  }
  return out;
}

SimEvent log_record(const TraceSpanRecord& r) {
  using Kind = SimEvent::Kind;
  const auto arg = [&r](const char* key, std::int64_t fallback) {
    for (const TraceArg& a : r.args) {
      if (a.key == key) return a.value;
    }
    return fallback;
  };
  // An id the record does not carry reads back as the invalid id, the
  // field's default. A queue wait's link and a commit's home are only in
  // its track: "link a-b" or "node n".
  unsigned a = kInvalidNode;
  unsigned b = kInvalidNode;
  if (std::sscanf(r.track.c_str(), "link %u-%u", &a, &b) != 2) {
    std::sscanf(r.track.c_str(), "node %u", &b);
  }
  SimEvent e{.time = static_cast<Time>(r.end),
             .object = static_cast<ObjectId>(arg("object", -1)),
             .txn = static_cast<TxnId>(arg("txn", -1)),
             .node = static_cast<NodeId>(arg("to", arg("v", b))),
             .from = static_cast<NodeId>(arg("from", arg("u", a))),
             .prev = static_cast<TxnId>(arg("prev", -1)),
             .leg = static_cast<std::uint32_t>(arg("leg", 0)),
             .redirect = arg("redirect", 0) == 1,
             .since = r.instant ? 0 : static_cast<Time>(r.begin),
             .planned = arg("planned", 0)};
  const std::string_view cat = r.cat;
  if (cat == "leg" && !r.instant) {
    e.kind = Kind::kLeg;
  } else if (cat == "txn" && !r.instant) {
    e.kind = Kind::kCommit;
  } else if (cat == "queue" && !r.instant) {
    e.kind = Kind::kQueueWait;
  } else if (cat == "fault" && r.instant && r.name == "degraded") {
    e.kind = Kind::kDegraded;
    e.planned = e.time - arg("stall", 0);
  } else if (cat == "fault" && r.instant) {
    e.kind = Kind::kFault;
    for (std::size_t f = 1; f < std::size(kFaultNames); ++f) {
      if (r.name == kFaultNames[f]) e.fault = static_cast<SimEvent::Fault>(f);
    }
  } else if (cat == "resched" && r.instant) {
    e.kind = Kind::kReschedule;
    e.since = e.time - arg("lag", 0);
  } else {
    return {};
  }
  return e;
}

void SlackMonitor::reset(const std::vector<Time>& planned,
                         const std::vector<char>& done) {
  done_.assign(done.begin(), done.end());
  done_.resize(planned.size(), 0);
  by_planned_.clear();
  by_planned_.reserve(planned.size());
  for (std::size_t t = 0; t < planned.size(); ++t) {
    if (done_[t] == 0) {
      by_planned_.emplace_back(planned[t], static_cast<TxnId>(t));
    }
  }
  std::sort(by_planned_.begin(), by_planned_.end());
  cursor_ = 0;
  max_stall_ = 0;
}

void SlackMonitor::on_commit(TxnId t, Time stall) {
  if (t < done_.size()) done_[t] = 1;
  max_stall_ = std::max(max_stall_, stall);
}

Time SlackMonitor::lag(Time now) {
  while (cursor_ < by_planned_.size() &&
         done_[by_planned_[cursor_].second] != 0) {
    ++cursor_;
  }
  Time l = max_stall_;
  if (cursor_ < by_planned_.size() && now > by_planned_[cursor_].first) {
    l = std::max(l, now - by_planned_[cursor_].first);
  }
  return l;
}

TraceSummary summarize_trace(const std::vector<SimEvent>& log,
                             std::size_t top_k) {
  using Kind = SimEvent::Kind;
  TraceSummary out;

  // Index the log: commits by txn, legs by served txn and (for the
  // redirect chains reschedules leave behind) by object.
  std::map<TxnId, const SimEvent*> commits;
  std::map<TxnId, std::vector<const SimEvent*>> legs_by_txn;
  std::map<ObjectId, std::vector<const SimEvent*>> legs_by_object;
  std::size_t total_legs = 0;
  std::map<std::string, LinkUtilization> links;
  for (const SimEvent& e : log) {
    if (e.kind == Kind::kReschedule) {
      out.reschedules += 1;
    } else if (e.kind == Kind::kCommit) {
      commits[e.txn] = &e;
      TxnSlack s;
      s.txn = trace_id(e.txn);
      s.assembled = e.since;
      s.planned = e.planned;
      s.realized = e.time;
      s.slack = s.realized - s.assembled;
      out.slack.push_back(s);
    } else if (e.kind == Kind::kLeg) {
      legs_by_txn[e.txn].push_back(&e);
      legs_by_object[e.object].push_back(&e);
      total_legs += 1;
      const std::string track = link_track(e.from, e.node);
      LinkUtilization& lu = links[track];
      lu.track = track;
      lu.busy += e.time - e.since;
      lu.legs += 1;
    } else if (e.kind == Kind::kQueueWait) {
      QueueWaitEntry q;
      q.track = link_track(e.from, e.node);
      q.object = trace_id(e.object);
      q.leg = e.leg;
      q.begin = e.since;
      q.end = e.time;
      out.queue_waits.push_back(q);
    }
  }

  for (auto& [track, lu] : links) out.links.push_back(lu);
  std::stable_sort(out.links.begin(), out.links.end(),
                   [](const LinkUtilization& a, const LinkUtilization& b) {
                     return a.busy != b.busy ? a.busy > b.busy
                                             : a.track < b.track;
                   });
  std::stable_sort(out.queue_waits.begin(), out.queue_waits.end(),
                   [](const QueueWaitEntry& a, const QueueWaitEntry& b) {
                     return a.length() > b.length();
                   });
  if (out.queue_waits.size() > top_k) out.queue_waits.resize(top_k);
  std::stable_sort(out.slack.begin(), out.slack.end(),
                   [](const TxnSlack& a, const TxnSlack& b) {
                     return a.slack != b.slack ? a.slack > b.slack
                                               : a.txn < b.txn;
                   });

  // Arrival→commit latency distribution: batch logs have arrival step 0,
  // so latency is the realized commit step itself.
  if (!out.slack.empty()) {
    std::vector<double> realized;
    realized.reserve(out.slack.size());
    out.latency.min = out.slack.front().realized;
    for (const TxnSlack& s : out.slack) {
      realized.push_back(static_cast<double>(s.realized));
      out.latency.sum += s.realized;
      out.latency.min = std::min(out.latency.min, s.realized);
      out.latency.max = std::max(out.latency.max, s.realized);
    }
    std::sort(realized.begin(), realized.end());
    out.latency.count = realized.size();
    out.latency.mean = static_cast<double>(out.latency.sum) /
                       static_cast<double>(realized.size());
    out.latency.p50 = percentile_of_sorted(realized, 50.0);
    out.latency.p95 = percentile_of_sorted(realized, 95.0);
    out.latency.p99 = percentile_of_sorted(realized, 99.0);
  }

  // The makespan witness: the last realized commit.
  const SimEvent* cur = nullptr;
  for (const auto& [t, rec] : commits) {
    if (cur == nullptr || rec->time > cur->time) cur = rec;
  }
  if (cur == nullptr) return out;  // no commits, nothing to walk
  out.makespan = cur->time;

  // Walk backwards from that commit to time 0 (see header).
  const auto problem = [&out](const std::string& msg) {
    out.problems.push_back(msg);
  };
  // Redirect legs (launched by a mid-run reschedule) do not depart at a
  // releasing commit: the object was parked (or just landed) somewhere and
  // the splice sent it onward. Their chain predecessor is the object's own
  // previous physical leg — the latest same-object leg ending no later
  // than the redirect departs (ties: latest departure, then log order;
  // zero-length handoffs make exact ties real).
  const auto physical_pred = [&legs_by_object](const SimEvent* leg)
      -> const SimEvent* {
    const SimEvent* pred = nullptr;
    for (const SimEvent* cand : legs_by_object[leg->object]) {
      if (cand == leg || cand->time > leg->since) continue;
      if (pred == nullptr || cand->time > pred->time ||
          (cand->time == pred->time && cand->since >= pred->since)) {
        pred = cand;
      }
    }
    return pred;
  };
  const auto push_transfer = [&out](const SimEvent* leg) {
    CriticalSegment tr;
    tr.kind = CriticalSegment::Kind::kTransfer;
    tr.begin = leg->since;
    tr.end = leg->time;
    tr.txn = trace_id(leg->txn);
    tr.object = trace_id(leg->object);
    tr.leg = leg->leg;
    tr.from = trace_id(leg->from);
    tr.to = trace_id(leg->node);
    out.critical_path.push_back(tr);
  };
  const auto push_wait = [&out](Time begin, Time end, TxnId txn) {
    CriticalSegment w;
    w.kind = CriticalSegment::Kind::kWait;
    w.begin = begin;
    w.end = end;
    w.txn = trace_id(txn);
    out.critical_path.push_back(w);
  };

  // Guard covers commit hops plus every physical leg a redirect chain can
  // traverse.
  std::size_t guard = commits.size() + total_legs + 1;
  while (cur != nullptr) {
    if (guard-- == 0) {
      problem("critical-path walk exceeded the event count (cycle?)");
      break;
    }
    const TxnId txn = cur->txn;
    const Time commit = cur->time;

    const auto legs_it = legs_by_txn.find(txn);
    if (legs_it == legs_by_txn.end() || legs_it->second.empty()) {
      // Every object was already in place (arrival step 0): the whole
      // interval up to the commit is commit-side wait.
      if (commit > 0) push_wait(0, commit, txn);
      break;
    }
    const SimEvent* gate = nullptr;
    for (const SimEvent* leg : legs_it->second) {
      if (gate == nullptr || leg->time > gate->time ||
          (leg->time == gate->time && leg->object < gate->object)) {
        gate = leg;
      }
    }
    const Time arrive = gate->time;
    if (arrive > commit) {
      std::ostringstream os;
      os << "T" << txn << " committed at " << commit
         << " before its gating object arrived at " << arrive;
      problem(os.str());
    }
    if (commit > arrive) push_wait(arrive, commit, txn);
    push_transfer(gate);

    // Follow redirect legs down the object's physical chain until a
    // commit-released (or home-departing) leg anchors the walk again.
    const SimEvent* leg = gate;
    bool walk_done = false;
    while (leg->redirect) {
      if (guard-- == 0) {
        problem("critical-path walk exceeded the event count (cycle?)");
        walk_done = true;
        break;
      }
      const SimEvent* pred = physical_pred(leg);
      const Time park_end = leg->since;
      if (pred == nullptr) {
        // The object had never moved: it sat at home from step 0 until
        // the reschedule launched it.
        if (park_end > 0) push_wait(0, park_end, leg->txn);
        walk_done = true;
        break;
      }
      if (pred->time < park_end) {
        // The object was parked (awaiting the splice) between legs.
        push_wait(pred->time, park_end, leg->txn);
      }
      push_transfer(pred);
      leg = pred;
    }
    if (walk_done) break;

    if (leg->prev == kInvalidTxn) {
      // First leg of the chain: departs from home at step 0.
      if (leg->since != 0) {
        std::ostringstream os;
        os << "first leg of o" << leg->object << " departs at " << leg->since
           << " (expected 0)";
        problem(os.str());
      }
      break;
    }
    const auto prev_it = commits.find(leg->prev);
    if (prev_it == commits.end()) {
      std::ostringstream os;
      os << "o" << leg->object << "#" << leg->leg << " was released by T"
         << leg->prev << " which has no commit span";
      problem(os.str());
      break;
    }
    if (prev_it->second->time != leg->since) {
      std::ostringstream os;
      os << "o" << leg->object << "#" << leg->leg << " departs at "
         << leg->since << " but T" << leg->prev << " committed at "
         << prev_it->second->time;
      problem(os.str());
    }
    cur = prev_it->second;
  }

  std::reverse(out.critical_path.begin(), out.critical_path.end());
  for (const CriticalSegment& s : out.critical_path) {
    out.critical_total += s.length();
  }
  return out;
}

}  // namespace dtm
