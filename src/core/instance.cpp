#include "core/instance.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace dtm {

namespace {

/// Longest row of a CSR whose row ends are `end`.
std::size_t longest_run(const std::vector<std::uint32_t>& end) {
  std::size_t best = 0;
  std::uint32_t lo = 0;
  for (std::uint32_t hi : end) {
    best = std::max<std::size_t>(best, hi - lo);
    lo = hi;
  }
  return best;
}

}  // namespace

std::size_t Instance::max_requesters() const {
  return longest_run(requester_end_);
}

std::size_t Instance::max_objects_per_txn() const {
  return longest_run(object_end_);
}

std::string Instance::describe() const {
  std::ostringstream os;
  os << "Instance: " << graph_->num_nodes() << " nodes, " << num_transactions()
     << " transactions, " << object_home_.size() << " objects\n";
  for (const TxnRef t : transactions()) {
    os << "  T" << t.id << " @node " << t.home << " uses {";
    for (std::size_t i = 0; i < t.objects.size(); ++i) {
      os << (i ? "," : "") << 'o' << t.objects[i];
    }
    os << "}\n";
  }
  for (ObjectId o = 0; o < object_home_.size(); ++o) {
    os << "  o" << o << " starts @node " << object_home_[o] << '\n';
  }
  return os.str();
}

RequesterPermutationCheck::RequesterPermutationCheck(const Instance& inst)
    : inst_(&inst), seen_(inst.num_transactions(), 0) {}

bool RequesterPermutationCheck::operator()(ObjectId o,
                                           std::span<const TxnId> order) {
  const std::span<const TxnId> req = inst_->requesters(o);
  if (order.size() != req.size()) return false;
  // Mark the order's members (rejecting repeats and foreign ids); with
  // equal sizes and no repeats, it is a permutation iff every requester
  // got marked. The marks are cleared before returning.
  std::size_t marked = 0;
  bool ok = true;
  for (; marked < order.size(); ++marked) {
    const TxnId t = order[marked];
    if (t >= seen_.size() || seen_[t]) {
      ok = false;
      break;
    }
    seen_[t] = 1;
  }
  if (ok) {
    ok = std::all_of(req.begin(), req.end(),
                     [&](TxnId t) { return seen_[t] != 0; });
  }
  for (std::size_t i = 0; i < marked; ++i) seen_[order[i]] = 0;
  return ok;
}

InstanceBuilder::InstanceBuilder(const Graph& graph, std::size_t num_objects) {
  inst_.graph_ = &graph;
  inst_.object_home_.assign(num_objects, 0);
  inst_.txn_at_node_.assign(graph.num_nodes(), kInvalidTxn);
}

InstanceBuilder& InstanceBuilder::allow_shared_homes() {
  shared_homes_ = true;
  return *this;
}

InstanceBuilder& InstanceBuilder::reserve(std::size_t num_transactions,
                                          std::size_t object_entries) {
  inst_.home_.reserve(num_transactions);
  inst_.object_end_.reserve(num_transactions);
  inst_.object_ids_.reserve(object_entries);
  return *this;
}

TxnId InstanceBuilder::add_transaction(NodeId home,
                                       std::span<const ObjectId> objects) {
  DTM_REQUIRE(home < inst_.graph_->num_nodes(),
              "transaction home " << home << " out of range");
  DTM_REQUIRE(shared_homes_ || inst_.txn_at_node_[home] == kInvalidTxn,
              "node " << home << " already hosts transaction "
                      << inst_.txn_at_node_[home]);
  // TxnIds stay below kInvalidTxn, and the 32-bit CSR ends cannot wrap.
  std::vector<ObjectId>& ids = inst_.object_ids_;
  DTM_REQUIRE(inst_.home_.size() < kInvalidTxn,
              "instance is full: " << inst_.home_.size() << " transactions");
  DTM_REQUIRE(ids.size() + objects.size() <=
                  std::numeric_limits<std::uint32_t>::max(),
              "instance is full: " << ids.size() << " object-set entries");
  // Append, then sort and check in place; a rejected set is cut off again.
  const std::size_t lo = ids.size();
  ids.insert(ids.end(), objects.begin(), objects.end());
  const auto first = ids.begin() + static_cast<std::ptrdiff_t>(lo);
  std::sort(first, ids.end());
  const bool duplicate = std::adjacent_find(first, ids.end()) != ids.end();
  const auto foreign = std::lower_bound(
      first, ids.end(), static_cast<ObjectId>(inst_.object_home_.size()));
  const bool in_range = foreign == ids.end();
  const ObjectId bad = in_range ? 0 : *foreign;
  if (duplicate || !in_range) ids.resize(lo);
  DTM_REQUIRE(!duplicate,
              "transaction at node " << home << " requests a duplicate object");
  DTM_REQUIRE(in_range, "object id " << bad << " out of range");
  const auto id = static_cast<TxnId>(inst_.home_.size());
  inst_.home_.push_back(home);
  inst_.object_end_.push_back(static_cast<std::uint32_t>(ids.size()));
  if (inst_.txn_at_node_[home] == kInvalidTxn) inst_.txn_at_node_[home] = id;
  return id;
}

void InstanceBuilder::set_object_home(ObjectId o, NodeId home) {
  DTM_REQUIRE(o < inst_.object_home_.size(),
              "object id " << o << " out of range");
  DTM_REQUIRE(home < inst_.graph_->num_nodes(), "object home out of range");
  inst_.object_home_[o] = home;
}

Instance InstanceBuilder::build() {
  // Counting sort: end[o] first counts o's requesters, then holds the
  // start of o's run, which the scatter (in id order, so each run
  // ascends) advances to its end.
  std::vector<std::uint32_t>& end = inst_.requester_end_;
  end.assign(inst_.object_home_.size(), 0);
  for (ObjectId o : inst_.object_ids_) ++end[o];
  std::uint32_t at = 0;
  for (std::uint32_t& e : end) {
    const std::uint32_t count = e;
    e = at;
    at += count;
  }
  inst_.requester_ids_.resize(inst_.object_ids_.size());
  for (TxnId t = 0; t < inst_.home_.size(); ++t) {
    for (ObjectId o : inst_.objects(t)) inst_.requester_ids_[end[o]++] = t;
  }
  return std::move(inst_);
}

}  // namespace dtm
