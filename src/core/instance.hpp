// Scheduling problem instance (§2.1): a communication graph G, a set of w
// mobile single-copy objects with initial locations, and a batch of
// transactions — at most one per node — each requesting a subset of the
// objects.
//
// Storage is flat CSR. The transactions live in a TxnTable: one home per
// transaction and every object set back to back in one id array
// (transaction t's ids end at object_end[t] and start where t - 1's end).
// An Instance holds its table through a shared pointer, so copies of the
// instance share it, and StreamingRuntime::materialize() hands over the
// runtime's own transcript without copying it. The inverse — each
// object's requesters — is per instance, laid out the same way. A table of
// B transactions with k objects each costs about 8 + 4k bytes per
// transaction; the requester lists add 4k more, plus 4 per object and per
// node, with no per-transaction allocation. The table's three arrays are
// MappedArrays (util/mapped_array.hpp): up to 128 KiB each is one heap
// block, beyond that its own memory mapping, grown in place by mremap, so
// a table that keeps growing (a stream transcript) leaves no holes in the
// malloc heap.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"
#include "util/mapped_array.hpp"

namespace dtm {

/// An atomic code block pinned to node `home`, requesting `objects`
/// (sorted, duplicate-free). It commits at the step when all requested
/// objects are assembled at `home`. An owning value, for callers that keep
/// a copy (a TxnRef converts to one); an Instance stores no Transaction.
struct Transaction {
  TxnId id = kInvalidTxn;
  NodeId home = kInvalidNode;
  std::vector<ObjectId> objects;
};

/// A transaction as an Instance stores it: id, home and a view of its
/// object set (ascending) into the instance's arrays. Valid while the
/// instance lives.
struct TxnRef {
  TxnId id = kInvalidTxn;
  NodeId home = kInvalidNode;
  std::span<const ObjectId> objects;

  /// An owning copy.
  operator Transaction() const {
    return {id, home, {objects.begin(), objects.end()}};
  }
};

/// Row i of a CSR whose row ends are `end` (row i - 1 ends where row i
/// starts).
template <class T>
std::span<const T> csr_row(const T* ids, const std::uint32_t* end,
                           std::size_t i) {
  const std::size_t lo = i == 0 ? 0 : end[i - 1];
  return {ids + lo, ids + end[i]};
}

/// The per-transaction arrays of an instance or a stream transcript, flat
/// CSR and append-only: transaction t sits at home(t) and requests
/// objects(t), ascending. Instances share one table read-only
/// (std::shared_ptr<const TxnTable>); whoever appends must hold the only
/// reference.
class TxnTable {
 public:
  std::size_t size() const { return home_.size(); }

  NodeId home(TxnId t) const {
    DTM_ASSERT(t < home_.size());
    return home_[t];
  }
  std::span<const ObjectId> objects(TxnId t) const {
    DTM_ASSERT(t < home_.size());
    return csr_row(object_ids_.data(), object_end_.data(), t);
  }

  void reserve(std::size_t rows, std::size_t entries);

  /// Appends a transaction at `home` requesting `objects` (any order): the
  /// set is sorted in place, then the row is checked (home < num_nodes, no
  /// object twice, every id < num_objects). A rejected row, or one that
  /// would overflow the id space or the 32-bit row ends, leaves the table
  /// unchanged. Returns the new row's id.
  TxnId append(NodeId home, std::span<const ObjectId> objects,
               std::size_t num_nodes, std::size_t num_objects);

 private:
  friend class Instance;

  MappedArray<NodeId> home_;
  MappedArray<std::uint32_t> object_end_;
  MappedArray<ObjectId> object_ids_;
};

/// Immutable batch problem. Construct via InstanceBuilder. Copies share
/// the transaction table; a default-constructed Instance has no
/// transactions.
class Instance {
 public:
  const Graph& graph() const { return *graph_; }
  std::size_t num_transactions() const { return home_.size(); }
  std::size_t num_objects() const { return object_home_.size(); }

  /// Node hosting transaction t.
  NodeId home(TxnId t) const {
    DTM_ASSERT(t < home_.size());
    return home_[t];
  }
  /// Objects transaction t requests, ascending.
  std::span<const ObjectId> objects(TxnId t) const {
    DTM_ASSERT(t < home_.size());
    return csr_row(object_ids_, object_end_, t);
  }
  TxnRef txn(TxnId t) const { return {t, home(t), objects(t)}; }
  /// Every transaction as a TxnRef, in id order.
  auto transactions() const {
    return std::views::iota(TxnId{0}, static_cast<TxnId>(home_.size())) |
           std::views::transform([this](TxnId t) { return txn(t); });
  }

  /// Initial node of object o.
  NodeId object_home(ObjectId o) const {
    DTM_ASSERT(o < object_home_.size());
    return object_home_[o];
  }

  /// Transactions requesting object o, in ascending TxnId order.
  /// (The paper's A_i; |A_i| = ℓ_i.)
  std::span<const TxnId> requesters(ObjectId o) const {
    DTM_ASSERT(o < object_home_.size());
    return csr_row(requester_ids_.data(), requester_end_.data(), o);
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

  /// Takes `txns` (rows already checked) as the transactions and fills the
  /// requester lists with one count pass, at exact size.
  void adopt(std::shared_ptr<const TxnTable> txns);

  const Graph* graph_ = nullptr;
  std::shared_ptr<const TxnTable> txns_;
  // Views of *txns_, taken once in adopt(): the table never changes while
  // it is shared, so home() and objects() read them without a hop through
  // txns_.
  std::span<const NodeId> home_;
  const std::uint32_t* object_end_ = nullptr;
  const ObjectId* object_ids_ = nullptr;
  std::vector<std::uint32_t> requester_end_;
  std::vector<TxnId> requester_ids_;
  std::vector<NodeId> object_home_;
  std::vector<TxnId> txn_at_node_;
};

/// Checks that an object's visit order is a permutation of its requesters
/// — the precondition of validate, the precedence solver, the stepwise
/// engine and the control-flow check. One per-transaction mark array is
/// reused across calls, so checking every object costs O(Σ_i |A_i|).
class RequesterPermutationCheck {
 public:
  explicit RequesterPermutationCheck(const Instance& inst);
  /// True iff `order` lists each of requesters(o) exactly once.
  bool operator()(ObjectId o, std::span<const TxnId> order);

 private:
  const Instance* inst_;
  std::vector<char> seen_;
};

/// Checks and assembles an Instance. The graph must outlive the instance.
/// Every call on a builder after its build() throws dtm::Error.
class InstanceBuilder {
 public:
  /// `num_objects` = w. Object homes default to node 0 until set.
  InstanceBuilder(const Graph& graph, std::size_t num_objects);

  /// An instance over `txns` as it stands, shared rather than copied. Each
  /// row is checked as TxnTable::append checks it, against `graph` and the
  /// object_home.size() objects; homes may repeat as under
  /// allow_shared_homes(), and the requester lists are built. Nothing may
  /// append to the table while the instance or a copy of it lives.
  static Instance share(const Graph& graph,
                        std::shared_ptr<const TxnTable> txns,
                        std::vector<NodeId> object_home);

  /// Lifts the one-transaction-per-node restriction. The batch model (§2.1)
  /// pins at most one transaction to a node, but a *stream* materialized as
  /// a batch (sim/runtime.hpp) naturally revisits homes. Validator, engine,
  /// and greedy coloring never rely on uniqueness; only the topology-aware
  /// schedulers that navigate by txn_at() (grid, star) do, and txn_at()
  /// reports the first transaction added at the node in shared mode.
  InstanceBuilder& allow_shared_homes();

  /// Reserves room for `num_transactions` transactions holding
  /// `object_entries` object ids in all (capacity hints; exact counts
  /// leave the built instance without growth slack).
  InstanceBuilder& reserve(std::size_t num_transactions,
                           std::size_t object_entries = 0);

  /// Adds a transaction at `home` requesting `objects` (any order,
  /// duplicates rejected). At most one transaction per node unless
  /// allow_shared_homes() was called. A rejected transaction leaves the
  /// builder unchanged.
  TxnId add_transaction(NodeId home, std::span<const ObjectId> objects);
  TxnId add_transaction(NodeId home, std::initializer_list<ObjectId> objects) {
    return add_transaction(home, std::span(objects.begin(), objects.size()));
  }

  void set_object_home(ObjectId o, NodeId home);

  /// Fills the requester lists (one count pass, exact size) and hands the
  /// instance over; the builder is spent afterwards.
  Instance build();

 private:
  /// Throws once build() has handed the instance over.
  void check_unspent() const;

  Instance inst_;
  std::shared_ptr<TxnTable> txns_ = std::make_shared<TxnTable>();
  bool shared_homes_ = false;
};

}  // namespace dtm
