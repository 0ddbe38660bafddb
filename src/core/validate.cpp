#include "core/validate.hpp"

#include <sstream>

namespace dtm {

std::string ValidationResult::summary() const {
  if (ok) return "feasible";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

ValidationResult validate(const Instance& inst, const Metric& metric,
                          const Schedule& s) {
  ValidationResult r;
  auto fail = [&](const std::string& msg) {
    r.ok = false;
    r.violations.push_back(msg);
  };

  if (s.commit_time.size() != inst.num_transactions()) {
    fail("commit_time size mismatch");
    return r;
  }
  if (s.object_order.size() != inst.num_objects()) {
    fail("object_order size mismatch");
    return r;
  }

  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    if (s.commit_time[t] < 1) {
      std::ostringstream os;
      os << "T" << t << " commits at step " << s.commit_time[t]
         << " (must be >= 1)";
      fail(os.str());
    }
  }

  RequesterPermutationCheck is_permutation(inst);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    // The order must be a permutation of the requester set.
    if (!is_permutation(o, s.object_order[o])) {
      std::ostringstream os;
      os << "o" << o << ": object_order is not a permutation of requesters";
      fail(os.str());
      continue;
    }
    // Timing along the visit chain: each hop takes its distance, and at
    // least one step even between requesters on one node.
    NodeId prev_node = inst.object_home(o);
    Time prev_time = 0;
    for (TxnId t : s.object_order[o]) {
      const NodeId node = inst.home(t);
      const Weight d = hop_steps(metric.distance(prev_node, node));
      if (s.commit_time[t] < prev_time + d) {
        std::ostringstream os;
        os << "o" << o << ": cannot reach T" << t << " @node " << node
           << " by step " << s.commit_time[t] << " (leaves node " << prev_node
           << " at step " << prev_time << ", hop " << d << ")";
        fail(os.str());
      }
      prev_node = node;
      prev_time = s.commit_time[t];
    }
  }
  return r;
}

}  // namespace dtm
