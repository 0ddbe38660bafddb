// Equivalence tests for the two-pass CSR dependency-graph assembler: the
// CSR form must encode exactly the conflict relation a naive set-based
// construction produces, with weights matching the metric (at least 1:
// requesters sharing a node are still a step apart), on random instances,
// on subset restrictions and on instances whose homes repeat. Weights and
// raw arc counts past 32 bits must throw dtm::Error.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "core/generators.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/line.hpp"
#include "sched/dependency_graph.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

/// Reference conflict relation: neighbor sets per local index, built the
/// obvious way (no CSR, no batching).
std::vector<std::set<TxnId>> naive_conflicts(const Instance& inst,
                                             const std::vector<TxnId>& txns) {
  std::vector<TxnId> local(inst.num_transactions(), kInvalidTxn);
  for (std::size_t i = 0; i < txns.size(); ++i) {
    local[txns[i]] = static_cast<TxnId>(i);
  }
  std::vector<std::set<TxnId>> adj(txns.size());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    std::vector<TxnId> members;
    for (TxnId t : inst.requesters(o)) {
      if (local[t] != kInvalidTxn) members.push_back(local[t]);
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        adj[members[i]].insert(members[j]);
        adj[members[j]].insert(members[i]);
      }
    }
  }
  return adj;
}

void expect_matches_naive(const Instance& inst, const Metric& metric,
                          const DependencyGraph& h,
                          const std::vector<TxnId>& txns) {
  ASSERT_EQ(h.txns, txns);
  ASSERT_EQ(h.offsets.size(), txns.size() + 1);
  const auto adj = naive_conflicts(inst, txns);
  std::size_t expect_max_degree = 0;
  Weight expect_max_weight = 0;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    const auto nbrs = h.neighbors(i);
    ASSERT_EQ(nbrs.size(), adj[i].size()) << "local node " << i;
    ASSERT_EQ(h.degree(i), adj[i].size());
    // CSR neighbor lists come out sorted and deduplicated.
    std::size_t k = 0;
    for (TxnId expected : adj[i]) {  // std::set iterates ascending
      EXPECT_EQ(nbrs[k].neighbor, expected);
      EXPECT_EQ(nbrs[k].weight,
                std::max<Weight>(metric.distance(inst.txn(txns[i]).home,
                                                 inst.txn(txns[expected]).home),
                                 1));
      expect_max_weight = std::max<Weight>(expect_max_weight, nbrs[k].weight);
      ++k;
    }
    expect_max_degree = std::max(expect_max_degree, adj[i].size());
  }
  EXPECT_EQ(h.max_degree, expect_max_degree);
  EXPECT_EQ(h.max_edge_weight, expect_max_weight);
}

TEST(DependencyGraphCsr, MatchesNaiveOnRandomInstances) {
  const Grid topo(6);
  const DenseMetric metric(topo.graph);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Instance inst = generate_uniform(
        topo.graph, {.num_objects = 12, .objects_per_txn = 3}, rng);
    std::vector<TxnId> all(inst.num_transactions());
    for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
    expect_matches_naive(inst, metric, build_dependency_graph(inst, metric),
                         all);
  }
}

TEST(DependencyGraphCsr, MatchesNaiveOnSubsets) {
  const Clique topo(24);
  const DenseMetric metric(topo.graph);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Instance inst = generate_uniform(
        topo.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
    // Every third transaction, so plenty of requester pairs fall outside
    // the subset and must be skipped.
    std::vector<TxnId> subset;
    for (TxnId t = 0; t < inst.num_transactions(); t += 3) {
      subset.push_back(t);
    }
    expect_matches_naive(inst, metric,
                         build_dependency_graph(inst, metric, subset), subset);
  }
}

TEST(DependencyGraphCsr, MatchesNaiveOnSharedHomes) {
  // Homes drawn from three nodes of a line, so many conflicts join two
  // transactions on one node: those edges weigh 1, not 0.
  const Line topo(5);
  const DenseMetric metric(topo.graph);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    InstanceBuilder b(topo.graph, /*num_objects=*/8);
    b.allow_shared_homes();
    for (std::size_t i = 0; i < 30; ++i) {
      std::vector<ObjectId> objs;
      for (std::size_t o : rng.sample_indices(8, 3)) {
        objs.push_back(static_cast<ObjectId>(o));
      }
      b.add_transaction(static_cast<NodeId>(rng.uniform(0, 2)), objs);
    }
    const Instance inst = b.build();
    std::vector<TxnId> all(inst.num_transactions());
    for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
    const DependencyGraph h = build_dependency_graph(inst, metric);
    expect_matches_naive(inst, metric, h, all);
    std::size_t same_node = 0;
    for (std::size_t i = 0; i < h.size(); ++i) {
      for (const DependencyEdge& e : h.neighbors(i)) {
        if (inst.txn(h.txns[i]).home == inst.txn(h.txns[e.neighbor]).home) {
          EXPECT_EQ(e.weight, 1);
          ++same_node;
        }
      }
    }
    EXPECT_GT(same_node, 0u);
  }
}

TEST(DependencyGraphCsr, WeighingOnceBuildsTheSameGraph) {
  // kOnce copies each edge's weight to its upper end instead of querying
  // it again: the same CSR from half the distance queries.
  const Grid topo(6);
  const DenseMetric metric(topo.graph);
  MetricCounter& queries = metrics::counter("metric.distance_queries");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const Instance inst = generate_uniform(
        topo.graph, {.num_objects = 12, .objects_per_txn = 3}, rng);
    std::vector<TxnId> subset;
    for (TxnId t = 0; t < inst.num_transactions(); t += 2) {
      subset.push_back(t);
    }
    const auto home = [&](TxnId t) { return inst.home(t); };
    const auto objects = [&](TxnId t) { return inst.objects(t); };
    const std::uint64_t q0 = queries.value();
    const DependencyGraph both = build_dependency_graph(
        metric, subset, home, objects, EdgeWeighing::kFromBothEnds);
    const std::uint64_t q1 = queries.value();
    const DependencyGraph once = build_dependency_graph(
        metric, subset, home, objects, EdgeWeighing::kOnce);
    const std::uint64_t q2 = queries.value();
    expect_matches_naive(inst, metric, once, subset);
    ASSERT_EQ(once.offsets, both.offsets);
    for (std::size_t i = 0; i < once.edges.size(); ++i) {
      EXPECT_EQ(once.edges[i].neighbor, both.edges[i].neighbor);
      EXPECT_EQ(once.edges[i].weight, both.edges[i].weight);
    }
    ASSERT_GT(both.edges.size(), 0u);
    EXPECT_EQ(q1 - q0, both.edges.size());
    EXPECT_EQ(q2 - q1, once.edges.size() / 2);
  }
}

TEST(DependencyGraphCsr, ParallelEdgesCollapseToOne) {
  // Two transactions sharing several objects must still produce a single
  // CSR edge each way.
  const Clique topo(4);
  const DenseMetric metric(topo.graph);
  InstanceBuilder b(topo.graph, /*num_objects=*/3);
  b.set_object_home(0, 0);
  b.set_object_home(1, 1);
  b.set_object_home(2, 2);
  b.add_transaction(1, {0, 1, 2});
  b.add_transaction(2, {0, 1, 2});
  const Instance inst = b.build();
  const DependencyGraph h = build_dependency_graph(inst, metric);
  EXPECT_EQ(h.degree(0), 1u);
  EXPECT_EQ(h.degree(1), 1u);
  EXPECT_EQ(h.edges.size(), 2u);
  EXPECT_EQ(h.neighbors(0)[0].neighbor, 1u);
  EXPECT_EQ(h.neighbors(1)[0].neighbor, 0u);
}

TEST(DependencyGraphCsr, EmptyAndConflictFreeInstances) {
  const Clique topo(4);
  const DenseMetric metric(topo.graph);
  InstanceBuilder b(topo.graph, /*num_objects=*/2);
  b.set_object_home(1, 1);
  b.add_transaction(0, {0});
  b.add_transaction(3, {1});
  const Instance inst = b.build();
  const DependencyGraph h = build_dependency_graph(inst, metric);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.edges.size(), 0u);
  EXPECT_EQ(h.max_degree, 0u);
  EXPECT_EQ(h.max_edge_weight, 0);
  EXPECT_EQ(h.weighted_degree(), 0);
}

/// Every pair of nodes at one fixed distance.
class FixedMetric final : public Metric {
 public:
  FixedMetric(const Graph& g, Weight d) : Metric(g), d_(d) {}
  Weight distance(NodeId, NodeId) const override { return d_; }
  std::vector<NodeId> path(NodeId u, NodeId v) const override {
    return {u, v};
  }

 private:
  Weight d_;
};

/// Two transactions on nodes 0 and 1 sharing object 0, weighed by
/// `metric`.
DependencyGraph one_conflict(const Metric& metric, EdgeWeighing weighing) {
  static constexpr ObjectId kObject = 0;
  const std::vector<TxnId> txns{0, 1};
  return build_dependency_graph(
      metric, txns, [](TxnId t) { return static_cast<NodeId>(t); },
      [](TxnId) { return std::span<const ObjectId>(&kObject, 1); },
      weighing);
}

TEST(DependencyGraphCsr, HopWeightOf32BitsReadsBackExactly) {
  const Clique topo(2);
  constexpr Weight kMax = (Weight{1} << 32) - 1;
  const FixedMetric metric(topo.graph, kMax);
  for (EdgeWeighing weighing :
       {EdgeWeighing::kFromBothEnds, EdgeWeighing::kOnce}) {
    const DependencyGraph h = one_conflict(metric, weighing);
    ASSERT_EQ(h.edges.size(), 2u);
    EXPECT_EQ(h.edges[0].weight, 0xFFFFFFFFu);
    EXPECT_EQ(h.edges[1].weight, 0xFFFFFFFFu);
    EXPECT_EQ(h.max_edge_weight, kMax);
  }
}

TEST(DependencyGraphCsr, HopWeightPast32BitsThrows) {
  const Clique topo(2);
  const FixedMetric metric(topo.graph, Weight{1} << 32);
  for (EdgeWeighing weighing :
       {EdgeWeighing::kFromBothEnds, EdgeWeighing::kOnce}) {
    EXPECT_THROW(one_conflict(metric, weighing), Error);
  }
}

TEST(DependencyGraphCsr, RawArcCountPast32BitsThrowsBeforeEmitting) {
  // 65537 requesters of one object make 65537 * 65536 > 2^32 - 1 raw arcs.
  // The builder counts them from the object's member count, so it throws
  // without emitting the 2^31 pairs.
  const Clique topo(2);
  const FixedMetric metric(topo.graph, 1);
  std::vector<TxnId> txns(65537);
  for (TxnId t = 0; t < txns.size(); ++t) txns[t] = t;
  static constexpr ObjectId kObject = 0;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      build_dependency_graph(
          metric, txns, [](TxnId) { return NodeId{0}; },
          [](TxnId) { return std::span<const ObjectId>(&kObject, 1); },
          EdgeWeighing::kOnce),
      Error);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  // The assembler's own check (the read/write builder's guard) sits at the
  // same bound.
  EXPECT_NO_THROW(detail::require_arc_count(0xFFFFFFFFu));
  EXPECT_THROW(detail::require_arc_count(std::uint64_t{1} << 32), Error);
}

}  // namespace
}  // namespace dtm
