// Scheduling problem instance (§2.1): a communication graph G, a set of w
// mobile single-copy objects with initial locations, and a batch of
// transactions — at most one per node — each requesting a subset of the
// objects.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace dtm {

/// An atomic code block pinned to node `home`, requesting `objects`
/// (sorted, duplicate-free). It commits at the step when all requested
/// objects are assembled at `home`.
struct Transaction {
  TxnId id = kInvalidTxn;
  NodeId home = kInvalidNode;
  std::vector<ObjectId> objects;
};

/// Immutable batch problem. Construct via InstanceBuilder.
class Instance {
 public:
  const Graph& graph() const { return *graph_; }
  std::size_t num_transactions() const { return txns_.size(); }
  std::size_t num_objects() const { return object_home_.size(); }

  const Transaction& txn(TxnId t) const {
    DTM_ASSERT(t < txns_.size());
    return txns_[t];
  }
  const std::vector<Transaction>& transactions() const { return txns_; }

  /// Initial node of object o.
  NodeId object_home(ObjectId o) const {
    DTM_ASSERT(o < object_home_.size());
    return object_home_[o];
  }

  /// Transactions requesting object o, in ascending TxnId order.
  /// (The paper's A_i; |A_i| = ℓ_i.)
  const std::vector<TxnId>& requesters(ObjectId o) const {
    DTM_ASSERT(o < requesters_.size());
    return requesters_[o];
  }

  /// max_i |A_i| — the paper's ℓ (0 when no object is requested).
  std::size_t max_requesters() const;

  /// The transaction hosted at node v, or kInvalidTxn.
  TxnId txn_at(NodeId v) const {
    DTM_ASSERT(v < txn_at_node_.size());
    return txn_at_node_[v];
  }

  /// Largest per-transaction object count (the paper's k).
  std::size_t max_objects_per_txn() const;

  /// Human-readable multi-line dump (for test diagnostics).
  std::string describe() const;

 private:
  friend class InstanceBuilder;
  const Graph* graph_ = nullptr;
  std::vector<Transaction> txns_;
  std::vector<NodeId> object_home_;
  std::vector<std::vector<TxnId>> requesters_;
  std::vector<TxnId> txn_at_node_;
};

/// Checks and assembles an Instance. The graph must outlive the instance.
class InstanceBuilder {
 public:
  /// `num_objects` = w. Object homes default to node 0 until set.
  InstanceBuilder(const Graph& graph, std::size_t num_objects);

  /// Lifts the one-transaction-per-node restriction. The batch model (§2.1)
  /// pins at most one transaction to a node, but a *stream* materialized as
  /// a batch (sim/runtime.hpp) naturally revisits homes. Validator, engine,
  /// and greedy coloring never rely on uniqueness; only the topology-aware
  /// schedulers that navigate by txn_at() (grid, star) do, and txn_at()
  /// reports the first transaction added at the node in shared mode.
  InstanceBuilder& allow_shared_homes();

  /// Reserves room for `num_transactions` transactions (a capacity hint).
  InstanceBuilder& reserve(std::size_t num_transactions);

  /// Adds a transaction at `home` requesting `objects` (any order,
  /// duplicates rejected). At most one transaction per node unless
  /// allow_shared_homes() was called.
  TxnId add_transaction(NodeId home, std::vector<ObjectId> objects);

  void set_object_home(ObjectId o, NodeId home);

  Instance build();

 private:
  const Graph* graph_;
  std::vector<Transaction> txns_;
  std::vector<NodeId> object_home_;
  std::vector<TxnId> txn_at_node_;
  bool shared_homes_ = false;
};

}  // namespace dtm
