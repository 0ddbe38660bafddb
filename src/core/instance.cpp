#include "core/instance.hpp"

#include <algorithm>
#include <sstream>

namespace dtm {

std::size_t Instance::max_requesters() const {
  std::size_t best = 0;
  for (const auto& r : requesters_) best = std::max(best, r.size());
  return best;
}

std::size_t Instance::max_objects_per_txn() const {
  std::size_t best = 0;
  for (const auto& t : txns_) best = std::max(best, t.objects.size());
  return best;
}

std::string Instance::describe() const {
  std::ostringstream os;
  os << "Instance: " << graph_->num_nodes() << " nodes, " << txns_.size()
     << " transactions, " << object_home_.size() << " objects\n";
  for (const auto& t : txns_) {
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

InstanceBuilder::InstanceBuilder(const Graph& graph, std::size_t num_objects)
    : graph_(&graph),
      object_home_(num_objects, 0),
      txn_at_node_(graph.num_nodes(), kInvalidTxn) {}

InstanceBuilder& InstanceBuilder::allow_shared_homes() {
  shared_homes_ = true;
  return *this;
}

InstanceBuilder& InstanceBuilder::reserve(std::size_t num_transactions) {
  txns_.reserve(num_transactions);
  return *this;
}

TxnId InstanceBuilder::add_transaction(NodeId home,
                                       std::vector<ObjectId> objects) {
  DTM_REQUIRE(home < graph_->num_nodes(),
              "transaction home " << home << " out of range");
  DTM_REQUIRE(shared_homes_ || txn_at_node_[home] == kInvalidTxn,
              "node " << home << " already hosts transaction "
                      << txn_at_node_[home]);
  std::sort(objects.begin(), objects.end());
  DTM_REQUIRE(std::adjacent_find(objects.begin(), objects.end()) ==
                  objects.end(),
              "transaction at node " << home << " requests a duplicate object");
  for (ObjectId o : objects) {
    DTM_REQUIRE(o < object_home_.size(), "object id " << o << " out of range");
  }
  const auto id = static_cast<TxnId>(txns_.size());
  txns_.push_back({id, home, std::move(objects)});
  if (txn_at_node_[home] == kInvalidTxn) txn_at_node_[home] = id;
  return id;
}

void InstanceBuilder::set_object_home(ObjectId o, NodeId home) {
  DTM_REQUIRE(o < object_home_.size(), "object id " << o << " out of range");
  DTM_REQUIRE(home < graph_->num_nodes(), "object home out of range");
  object_home_[o] = home;
}

Instance InstanceBuilder::build() {
  Instance inst;
  inst.graph_ = graph_;
  inst.txns_ = std::move(txns_);
  inst.object_home_ = std::move(object_home_);
  inst.txn_at_node_ = std::move(txn_at_node_);
  // A count pass sizes each requester list exactly before it is filled.
  std::vector<std::size_t> count(inst.object_home_.size(), 0);
  for (const auto& t : inst.txns_) {
    for (ObjectId o : t.objects) ++count[o];
  }
  inst.requesters_.resize(inst.object_home_.size());
  for (std::size_t o = 0; o < count.size(); ++o) {
    inst.requesters_[o].reserve(count[o]);
  }
  for (const auto& t : inst.txns_) {
    for (ObjectId o : t.objects) inst.requesters_[o].push_back(t.id);
  }
  return inst;
}

}  // namespace dtm
