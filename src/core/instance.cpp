#include "core/instance.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>

namespace dtm {

namespace {

/// Longest row of a CSR whose row ends are `end`.
std::size_t longest_run(std::span<const std::uint32_t> end) {
  std::size_t best = 0;
  std::uint32_t lo = 0;
  for (std::uint32_t hi : end) {
    best = std::max<std::size_t>(best, hi - lo);
    lo = hi;
  }
  return best;
}

/// Throws dtm::Error unless `home` < num_nodes and `objects` ascends
/// strictly with every id < num_objects: the one check every row of a
/// TxnTable passes, at append and again when an instance adopts the table.
/// Rows are sorted before they are checked, so a pair that does not ascend
/// is a repeated object.
void check_txn_row(NodeId home, std::span<const ObjectId> objects,
                   std::size_t num_nodes, std::size_t num_objects) {
  DTM_REQUIRE(home < num_nodes, "transaction home " << home << " out of range");
  DTM_REQUIRE(std::adjacent_find(objects.begin(), objects.end(),
                                 std::greater_equal<>()) == objects.end(),
              "transaction at node " << home << " requests a duplicate object");
  DTM_REQUIRE(objects.empty() || objects.back() < num_objects,
              "object id " << objects.back() << " out of range");
}

}  // namespace

void TxnTable::reserve(std::size_t rows, std::size_t entries) {
  home_.reserve(rows);
  object_end_.reserve(rows);
  object_ids_.reserve(entries);
}

TxnId TxnTable::append(NodeId home, std::span<const ObjectId> objects,
                       std::size_t num_nodes, std::size_t num_objects) {
  // TxnIds stay below kInvalidTxn, and the 32-bit row ends cannot wrap.
  DTM_REQUIRE(home_.size() < kInvalidTxn,
              "transaction table is full: " << home_.size() << " rows");
  DTM_REQUIRE(object_ids_.size() + objects.size() <=
                  std::numeric_limits<std::uint32_t>::max(),
              "transaction table is full: " << object_ids_.size()
                                            << " object-set entries");
  // Append, then sort and check in place; a rejected set is cut off again.
  const std::size_t lo = object_ids_.size();
  object_ids_.append(objects);
  const std::span<ObjectId> row(object_ids_.data() + lo, objects.size());
  std::sort(row.begin(), row.end());
  try {
    check_txn_row(home, row, num_nodes, num_objects);
  } catch (const Error&) {
    object_ids_.truncate(lo);
    throw;
  }
  const auto id = static_cast<TxnId>(home_.size());
  home_.push_back(home);
  object_end_.push_back(static_cast<std::uint32_t>(object_ids_.size()));
  return id;
}

void Instance::adopt(std::shared_ptr<const TxnTable> txns) {
  txns_ = std::move(txns);
  home_ = txns_->home_;
  object_end_ = txns_->object_end_.data();
  object_ids_ = txns_->object_ids_.data();
  // Counting sort: end[o] first counts o's requesters, then holds the
  // start of o's run, which the scatter (in id order, so each run
  // ascends) advances to its end.
  std::vector<std::uint32_t>& end = requester_end_;
  end.assign(object_home_.size(), 0);
  for (ObjectId o : txns_->object_ids_) ++end[o];
  std::uint32_t at = 0;
  for (std::uint32_t& e : end) {
    const std::uint32_t count = e;
    e = at;
    at += count;
  }
  requester_ids_.resize(txns_->object_ids_.size());
  for (TxnId t = 0; t < home_.size(); ++t) {
    for (ObjectId o : objects(t)) requester_ids_[end[o]++] = t;
  }
}

std::size_t Instance::max_requesters() const {
  return longest_run(requester_end_);
}

std::size_t Instance::max_objects_per_txn() const {
  return longest_run({object_end_, home_.size()});
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

Instance InstanceBuilder::share(const Graph& graph,
                                std::shared_ptr<const TxnTable> txns,
                                std::vector<NodeId> object_home) {
  DTM_REQUIRE(txns, "no transaction table to share");
  const std::size_t n = graph.num_nodes();
  for (NodeId v : object_home) {
    DTM_REQUIRE(v < n, "object home out of range");
  }
  Instance inst;
  inst.graph_ = &graph;
  inst.object_home_ = std::move(object_home);
  inst.txn_at_node_.assign(n, kInvalidTxn);
  for (TxnId t = 0; t < txns->size(); ++t) {
    const NodeId home = txns->home(t);
    check_txn_row(home, txns->objects(t), n, inst.object_home_.size());
    if (inst.txn_at_node_[home] == kInvalidTxn) inst.txn_at_node_[home] = t;
  }
  inst.adopt(std::move(txns));
  return inst;
}

void InstanceBuilder::check_unspent() const {
  DTM_REQUIRE(txns_, "InstanceBuilder used after build()");
}

InstanceBuilder& InstanceBuilder::allow_shared_homes() {
  check_unspent();
  shared_homes_ = true;
  return *this;
}

InstanceBuilder& InstanceBuilder::reserve(std::size_t num_transactions,
                                          std::size_t object_entries) {
  check_unspent();
  txns_->reserve(num_transactions, object_entries);
  return *this;
}

TxnId InstanceBuilder::add_transaction(NodeId home,
                                       std::span<const ObjectId> objects) {
  check_unspent();
  // append() rejects a home out of range; only one in range has a slot.
  std::vector<TxnId>& slot = inst_.txn_at_node_;
  const bool taken = home < slot.size() && slot[home] != kInvalidTxn;
  DTM_REQUIRE(shared_homes_ || !taken,
              "node " << home << " already hosts transaction " << slot[home]);
  const TxnId id =
      txns_->append(home, objects, slot.size(), inst_.object_home_.size());
  if (slot[home] == kInvalidTxn) slot[home] = id;
  return id;
}

void InstanceBuilder::set_object_home(ObjectId o, NodeId home) {
  check_unspent();
  DTM_REQUIRE(o < inst_.object_home_.size(),
              "object id " << o << " out of range");
  DTM_REQUIRE(home < inst_.graph_->num_nodes(), "object home out of range");
  inst_.object_home_[o] = home;
}

Instance InstanceBuilder::build() {
  check_unspent();
  inst_.adopt(std::move(txns_));
  return std::move(inst_);
}

}  // namespace dtm
