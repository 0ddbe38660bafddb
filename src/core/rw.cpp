#include "core/rw.hpp"

#include <algorithm>
#include <sstream>

#include "util/metrics.hpp"

namespace dtm {

Time RwSchedule::makespan() const {
  Time best = 0;
  for (Time t : commit_time) best = std::max(best, t);
  return best;
}

WriteSets generate_write_sets(const Instance& inst, double write_fraction,
                              Rng& rng) {
  DTM_REQUIRE(write_fraction >= 0.0 && write_fraction <= 1.0,
              "write_fraction must be in [0,1]");
  WriteSets writes(inst.num_transactions());
  for (const TxnRef t : inst.transactions()) {
    for (ObjectId o : t.objects) {
      if (rng.chance(write_fraction)) writes[t.id].push_back(o);
    }
    // objects are sorted in the transaction, so write_set stays sorted
  }
  return writes;
}

bool is_write(const WriteSets& writes, TxnId t, ObjectId o) {
  DTM_ASSERT(t < writes.size());
  return std::binary_search(writes[t].begin(), writes[t].end(), o);
}

std::string check_rw(const Instance& inst, const WriteSets& writes,
                     const Metric& metric, const RwSchedule& s,
                     RwPolicy policy) {
  ScopedPhaseTimer timer("phase.validation");
  metrics::count("rw.checks");
  if (s.commit_time.size() != inst.num_transactions()) {
    return "commit_time size mismatch";
  }
  if (s.writer_order.size() != inst.num_objects() ||
      s.reader_source.size() != inst.num_objects()) {
    return "per-object vectors size mismatch";
  }
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    if (s.commit_time[t] < 1) {
      std::ostringstream os;
      os << "T" << t << " commits before step 1";
      return os.str();
    }
  }
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    // Partition check: writers + readers == requesters.
    std::vector<TxnId> expected_writers, expected_readers;
    for (TxnId t : inst.requesters(o)) {
      (is_write(writes, t, o) ? expected_writers : expected_readers)
          .push_back(t);
    }
    {
      auto sorted = s.writer_order[o];
      std::sort(sorted.begin(), sorted.end());
      if (sorted != expected_writers) {
        std::ostringstream os;
        os << "o" << o << ": writer_order is not a permutation of the writers";
        return os.str();
      }
      std::vector<TxnId> readers;
      for (const auto& [r, src] : s.reader_source[o]) {
        (void)src;
        readers.push_back(r);
      }
      std::sort(readers.begin(), readers.end());
      if (readers != expected_readers) {
        std::ostringstream os;
        os << "o" << o << ": reader_source does not cover exactly the readers";
        return os.str();
      }
    }

    // Writer (master-copy) chain, as in the single-copy model: the master
    // serves one commit per step (hop_steps) after the first writer; the
    // anchor from the object's home is a raw distance.
    NodeId prev_node = inst.object_home(o);
    Time prev_time = 0;
    bool first = true;
    for (TxnId wtxn : s.writer_order[o]) {
      const NodeId node = inst.home(wtxn);
      const Weight raw = metric.distance(prev_node, node);
      const Weight d = first ? raw : hop_steps(raw);
      if (s.commit_time[wtxn] < prev_time + d) {
        std::ostringstream os;
        os << "o" << o << ": master cannot reach writer T" << wtxn;
        return os.str();
      }
      prev_node = node;
      prev_time = s.commit_time[wtxn];
      first = false;
    }

    // Readers: copy shipped from the source version's node.
    for (const auto& [reader, source] : s.reader_source[o]) {
      NodeId src_node;
      Time src_time;
      std::size_t src_index;  // index in writer_order, or -1 for initial
      if (source == kInvalidTxn) {
        src_node = inst.object_home(o);
        src_time = 0;
        src_index = static_cast<std::size_t>(-1);
      } else {
        const auto it = std::find(s.writer_order[o].begin(),
                                  s.writer_order[o].end(), source);
        if (it == s.writer_order[o].end()) {
          std::ostringstream os;
          os << "o" << o << ": reader T" << reader
             << " cites a non-writer source";
          return os.str();
        }
        src_index = static_cast<std::size_t>(it - s.writer_order[o].begin());
        src_node = inst.home(source);
        src_time = s.commit_time[source];
      }
      const NodeId rnode = inst.home(reader);
      if (s.commit_time[reader] < src_time + metric.distance(src_node, rnode)) {
        std::ostringstream os;
        os << "o" << o << ": copy cannot reach reader T" << reader
           << " from its source";
        return os.str();
      }
      if (policy == RwPolicy::kSingleVersion) {
        // The next writer must wait for this copy's revocation.
        const std::size_t next = src_index + 1;
        if (next < s.writer_order[o].size()) {
          const TxnId wnext = s.writer_order[o][next];
          const Weight d =
              metric.distance(rnode, inst.home(wnext));
          if (s.commit_time[wnext] < s.commit_time[reader] + d) {
            std::ostringstream os;
            os << "o" << o << ": writer T" << wnext
               << " commits before reader T" << reader
               << "'s copy is revoked";
            return os.str();
          }
        }
      }
    }
  }
  return "";
}

}  // namespace dtm
