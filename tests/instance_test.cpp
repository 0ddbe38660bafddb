// Tests for Instance/InstanceBuilder and the workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>

#include "core/generators.hpp"
#include "core/instance.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace dtm {
namespace {

TEST(InstanceBuilder, BasicAssembly) {
  const Clique c(4);
  InstanceBuilder b(c.graph, 3);
  const TxnId t0 = b.add_transaction(0, {2, 0});
  const TxnId t1 = b.add_transaction(2, {0});
  b.set_object_home(0, 1);
  const Instance inst = b.build();

  EXPECT_EQ(inst.num_transactions(), 2u);
  EXPECT_EQ(inst.num_objects(), 3u);
  EXPECT_EQ(inst.txn(t0).home, 0u);
  // Objects are stored sorted.
  EXPECT_EQ(test::to_vector(inst.objects(t0)), (std::vector<ObjectId>{0, 2}));
  EXPECT_EQ(inst.object_home(0), 1u);
  EXPECT_EQ(inst.object_home(1), 0u);  // default
  EXPECT_EQ(test::to_vector(inst.requesters(0)), (std::vector<TxnId>{t0, t1}));
  EXPECT_TRUE(inst.requesters(1).empty());
  EXPECT_EQ(inst.max_requesters(), 2u);
  EXPECT_EQ(inst.max_objects_per_txn(), 2u);
  EXPECT_EQ(inst.txn_at(0), t0);
  EXPECT_EQ(inst.txn_at(1), kInvalidTxn);
  EXPECT_EQ(inst.txn_at(2), t1);
}

TEST(InstanceBuilder, RejectsSecondTransactionOnNode) {
  const Clique c(3);
  InstanceBuilder b(c.graph, 1);
  b.add_transaction(1, {0});
  EXPECT_THROW(b.add_transaction(1, {0}), Error);
}

TEST(InstanceBuilder, RejectsBadIds) {
  const Clique c(3);
  InstanceBuilder b(c.graph, 2);
  EXPECT_THROW(b.add_transaction(5, {0}), Error);
  EXPECT_THROW(b.add_transaction(0, {2}), Error);
  EXPECT_THROW(b.add_transaction(0, {1, 1}), Error);
  EXPECT_THROW(b.set_object_home(2, 0), Error);
  EXPECT_THROW(b.set_object_home(0, 9), Error);
}

TEST(InstanceBuilder, RejectedTransactionLeavesBuilderUnchanged) {
  const Clique c(4);
  InstanceBuilder b(c.graph, 3);
  b.add_transaction(0, {2, 1});
  EXPECT_THROW(b.add_transaction(1, {0, 2, 0}), Error);
  EXPECT_THROW(b.add_transaction(1, {0, 3}), Error);
  b.add_transaction(1, {0});
  const Instance inst = b.build();
  ASSERT_EQ(inst.num_transactions(), 2u);
  EXPECT_EQ(test::to_vector(inst.objects(0)), (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(test::to_vector(inst.objects(1)), (std::vector<ObjectId>{0}));
  EXPECT_EQ(test::to_vector(inst.requesters(0)), (std::vector<TxnId>{1}));
}

TEST(InstanceBuilder, SpentBuilderThrows) {
  const Clique c(3);
  InstanceBuilder b(c.graph, 2);
  b.add_transaction(0, {1});
  const Instance inst = b.build();
  EXPECT_THROW(b.add_transaction(1, {0}), Error);
  EXPECT_THROW(b.set_object_home(0, 1), Error);
  EXPECT_THROW(b.build(), Error);
  EXPECT_THROW(b.reserve(4), Error);
  EXPECT_THROW(b.allow_shared_homes(), Error);
  // The built instance is untouched by the rejected calls.
  ASSERT_EQ(inst.num_transactions(), 1u);
  EXPECT_EQ(test::to_vector(inst.objects(0)), (std::vector<ObjectId>{1}));
  EXPECT_EQ(inst.object_home(0), 0u);
}

TEST(Instance, DefaultConstructedIsEmpty) {
  const Instance inst;
  EXPECT_EQ(inst.num_transactions(), 0u);
  EXPECT_EQ(inst.num_objects(), 0u);
  EXPECT_TRUE(std::ranges::empty(inst.transactions()));
}

Instance three_txn_instance(const Graph& g) {
  InstanceBuilder b(g, 3);
  b.add_transaction(0, {2, 0});
  b.add_transaction(1, {1});
  b.add_transaction(3, {0, 1, 2});
  b.set_object_home(2, 2);
  return b.build();
}

TEST(Instance, CopiesShareTheTransactionTable) {
  const Clique c(4);
  const Instance a = three_txn_instance(c.graph);
  const Instance b = a;
  Instance d;
  d = b;
  for (TxnId t = 0; t < a.num_transactions(); ++t) {
    EXPECT_EQ(b.objects(t).data(), a.objects(t).data()) << "T" << t;
    EXPECT_EQ(d.objects(t).data(), a.objects(t).data()) << "T" << t;
  }
  test::expect_same_instance(b, a);
  test::expect_same_instance(d, a);
  // A copy outlives the original and keeps the table alive.
  auto original = std::make_unique<Instance>(three_txn_instance(c.graph));
  const Instance kept = *original;
  original.reset();
  test::expect_same_instance(kept, a);
}

// share() adopts a table without copying it and checks every row against
// the instance's own graph and object count.
TEST(InstanceBuilder, ShareAdoptsTheTableAndChecksRows) {
  const Clique c(4);
  auto txns = std::make_shared<TxnTable>();
  txns->append(1, std::vector<ObjectId>{2, 0}, 4, 3);
  txns->append(1, std::vector<ObjectId>{1}, 4, 3);  // a shared home
  txns->append(3, std::vector<ObjectId>{}, 4, 3);
  const Instance inst = InstanceBuilder::share(c.graph, txns, {0, 2, 3});
  EXPECT_EQ(inst.objects(0).data(), txns->objects(0).data());
  EXPECT_EQ(txns.use_count(), 2);
  InstanceBuilder b(c.graph, 3);
  b.allow_shared_homes();
  b.add_transaction(1, {0, 2});
  b.add_transaction(1, {1});
  b.add_transaction(3, {});
  b.set_object_home(1, 2);
  b.set_object_home(2, 3);
  test::expect_same_instance(inst, b.build());

  EXPECT_THROW(InstanceBuilder::share(c.graph, txns, {0, 2}), Error);
  EXPECT_THROW(InstanceBuilder::share(Clique(3).graph, txns, {0, 0, 0}),
               Error);
  EXPECT_THROW(InstanceBuilder::share(c.graph, txns, {0, 0, 4}), Error);
  EXPECT_THROW(InstanceBuilder::share(c.graph, nullptr, {}), Error);
}

// Eight threads copy one instance and read their copies at once; the
// copies share the table and its reference count. Run under
// ThreadSanitizer in CI.
TEST(Instance, ConcurrentCopiesReadOneTable) {
  const Grid g(8);
  Rng rng(3);
  const Instance shared = generate_uniform(
      g.graph, {.num_objects = 16, .objects_per_txn = 3}, rng);
  ASSERT_GT(shared.num_transactions(), 0u);
  std::size_t expected = 0;
  for (const TxnRef t : shared.transactions()) {
    expected += t.home;
    for (ObjectId o : t.objects) expected += o;
  }
  constexpr int kThreads = 8;
  std::vector<std::size_t> sums(kThreads, 0);
  std::vector<char> aliased(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 50; ++round) {
        const Instance mine = shared;
        std::size_t sum = 0;
        for (const TxnRef t : mine.transactions()) {
          sum += t.home;
          for (ObjectId o : t.objects) sum += o;
        }
        sums[i] = sum;
        aliased[i] = mine.objects(0).data() == shared.objects(0).data();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(sums[i], expected) << i;
    EXPECT_TRUE(aliased[i]) << i;
  }
}

// The flat arrays against a per-transaction reference: k = 0..4, objects
// in any order, shared homes on every other seed, and the last two
// objects never requested.
TEST(Instance, FlatArraysMatchNaiveReference) {
  const Grid g(4, 5);
  const std::size_t n = g.graph.num_nodes();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const bool shared = seed % 2 == 0;
    const std::size_t w = 6 + rng.index(6);
    InstanceBuilder b(g.graph, w);
    if (shared) b.allow_shared_homes();
    std::vector<Transaction> ref;
    for (std::size_t i = 0; i < (shared ? 2 * n : n); ++i) {
      const auto home = static_cast<NodeId>(shared ? rng.index(n) : i);
      if (!shared && rng.chance(0.2)) continue;  // an empty node
      std::vector<ObjectId> objs;
      for (std::size_t o : rng.sample_indices(w - 2, rng.index(5))) {
        objs.push_back(static_cast<ObjectId>(o));
      }
      rng.shuffle(objs);
      const TxnId id = b.add_transaction(home, objs);
      std::sort(objs.begin(), objs.end());
      ref.push_back({id, home, objs});
    }
    for (ObjectId o = 0; o < w; ++o) {
      b.set_object_home(o, static_cast<NodeId>(rng.index(n)));
    }
    const Instance inst = b.build();

    ASSERT_EQ(inst.num_transactions(), ref.size());
    std::size_t k = 0, ell = 0;
    std::vector<std::vector<TxnId>> requesters(w);
    std::vector<TxnId> at(n, kInvalidTxn);
    for (const Transaction& t : ref) {
      ASSERT_EQ(t.id, &t - ref.data());
      EXPECT_EQ(inst.home(t.id), t.home);
      EXPECT_EQ(test::to_vector(inst.objects(t.id)), t.objects);
      const Transaction copy = inst.txn(t.id);  // TxnRef -> Transaction
      EXPECT_EQ(copy.id, t.id);
      EXPECT_EQ(copy.home, t.home);
      EXPECT_EQ(copy.objects, t.objects);
      for (ObjectId o : t.objects) requesters[o].push_back(t.id);
      if (at[t.home] == kInvalidTxn) at[t.home] = t.id;
      k = std::max(k, t.objects.size());
    }
    for (ObjectId o = 0; o < w; ++o) {
      EXPECT_EQ(test::to_vector(inst.requesters(o)), requesters[o]);
      ell = std::max(ell, requesters[o].size());
    }
    EXPECT_TRUE(inst.requesters(static_cast<ObjectId>(w - 1)).empty());
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(inst.txn_at(v), at[v]);
    EXPECT_EQ(inst.max_objects_per_txn(), k);
    EXPECT_EQ(inst.max_requesters(), ell);
    TxnId next = 0;
    for (const TxnRef t : inst.transactions()) {
      EXPECT_EQ(t.id, next++);
      EXPECT_EQ(t.home, inst.home(t.id));
      EXPECT_EQ(t.objects.data(), inst.objects(t.id).data());
    }
    EXPECT_EQ(next, ref.size());
  }
}

TEST(RequesterPermutationCheck, AcceptsOnlyPermutations) {
  const Clique c(5);
  InstanceBuilder b(c.graph, 2);
  b.add_transaction(0, {0});
  b.add_transaction(1, {0, 1});
  b.add_transaction(2, {0});
  b.add_transaction(3, {1});
  const Instance inst = b.build();
  RequesterPermutationCheck is_permutation(inst);
  using Order = std::vector<TxnId>;
  EXPECT_TRUE(is_permutation(0, Order{2, 0, 1}));
  EXPECT_FALSE(is_permutation(0, Order{2, 0, 0}));  // repeat
  EXPECT_FALSE(is_permutation(0, Order{2, 0, 3}));  // not a requester
  EXPECT_FALSE(is_permutation(0, Order{2, 0, 9}));  // no such transaction
  EXPECT_FALSE(is_permutation(0, Order{2, 0}));     // one short
  EXPECT_FALSE(is_permutation(1, Order{}));
  // The marks a rejected order left are cleared for the next call.
  EXPECT_TRUE(is_permutation(1, Order{3, 1}));
  EXPECT_TRUE(is_permutation(0, Order{0, 1, 2}));
}

TEST(Instance, DescribeMentionsEveryTransaction) {
  const Clique c(3);
  InstanceBuilder b(c.graph, 2);
  b.add_transaction(0, {0, 1});
  b.add_transaction(2, {1});
  const std::string d = b.build().describe();
  EXPECT_NE(d.find("T0"), std::string::npos);
  EXPECT_NE(d.find("T1"), std::string::npos);
  EXPECT_NE(d.find("o1"), std::string::npos);
}

// ------------------------------------------------------------ generators

TEST(GenerateUniform, EveryTxnHasExactlyKDistinctObjects) {
  const Grid g(6);
  Rng rng(5);
  const Instance inst =
      generate_uniform(g.graph, {.num_objects = 10, .objects_per_txn = 3}, rng);
  EXPECT_EQ(inst.num_transactions(), 36u);
  for (const Transaction& t : inst.transactions()) {
    EXPECT_EQ(t.objects.size(), 3u);
    std::set<ObjectId> uniq(t.objects.begin(), t.objects.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(GenerateUniform, PlacementAtRequester) {
  const Grid g(5);
  Rng rng(6);
  const Instance inst =
      generate_uniform(g.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    if (inst.requesters(o).empty()) continue;
    bool at_requester = false;
    for (TxnId t : inst.requesters(o)) {
      at_requester |= inst.txn(t).home == inst.object_home(o);
    }
    EXPECT_TRUE(at_requester) << "o" << o;
  }
}

TEST(GenerateUniform, DensityControlsTransactionCount) {
  const Grid g(10);
  Rng rng(7);
  const Instance inst = generate_uniform(
      g.graph,
      {.num_objects = 5, .objects_per_txn = 1, .txn_density = 0.3}, rng);
  EXPECT_LT(inst.num_transactions(), 60u);
  EXPECT_GT(inst.num_transactions(), 10u);
}

TEST(GenerateUniform, RejectsBadParameters) {
  const Grid g(3);
  Rng rng(8);
  EXPECT_THROW(
      generate_uniform(g.graph, {.num_objects = 2, .objects_per_txn = 3}, rng),
      Error);
  EXPECT_THROW(generate_uniform(g.graph,
                                {.num_objects = 2,
                                 .objects_per_txn = 1,
                                 .txn_density = 0.0},
                                rng),
               Error);
}

TEST(GenerateUniform, DeterministicForSeed) {
  const Grid g(5);
  Rng r1(99), r2(99);
  const Instance a =
      generate_uniform(g.graph, {.num_objects = 7, .objects_per_txn = 2}, r1);
  const Instance b =
      generate_uniform(g.graph, {.num_objects = 7, .objects_per_txn = 2}, r2);
  ASSERT_EQ(a.num_transactions(), b.num_transactions());
  for (TxnId t = 0; t < a.num_transactions(); ++t) {
    EXPECT_EQ(test::to_vector(a.objects(t)), test::to_vector(b.objects(t)));
  }
  for (ObjectId o = 0; o < a.num_objects(); ++o) {
    EXPECT_EQ(a.object_home(o), b.object_home(o));
  }
}

TEST(GenerateClusterLocal, ObjectsStayInOneCluster) {
  const ClusterGraph cg(4, 6, 8);
  Rng rng(10);
  const Instance inst = generate_cluster_local(cg, 16, 2, rng);
  EXPECT_EQ(max_cluster_spread(cg, inst), 1u);
  EXPECT_EQ(inst.num_transactions(), cg.num_nodes());
}

TEST(GenerateClusterLocal, RejectsTooSmallPools) {
  const ClusterGraph cg(4, 3, 5);
  Rng rng(11);
  EXPECT_THROW(generate_cluster_local(cg, 4, 2, rng), Error);
}

TEST(GenerateClusterSpread, RealizedSigmaNearRequest) {
  const ClusterGraph cg(6, 4, 7);
  Rng rng(12);
  const Instance inst = generate_cluster_spread(cg, 24, 2, 3, rng);
  const std::size_t sigma = max_cluster_spread(cg, inst);
  EXPECT_GE(sigma, 1u);
  EXPECT_LE(sigma, 6u);
  for (const Transaction& t : inst.transactions()) {
    EXPECT_EQ(t.objects.size(), 2u);
  }
}

TEST(GenerateClusterSpread, SigmaOneIsLocal) {
  const ClusterGraph cg(4, 3, 6);
  Rng rng(13);
  const Instance inst = generate_cluster_spread(cg, 40, 2, 1, rng);
  // With sigma=1 each object is offered to exactly one cluster (top-ups can
  // nudge a few objects wider, but most stay local).
  EXPECT_LE(max_cluster_spread(cg, inst), 2u);
}

TEST(GenerateHotspot, ObjectZeroEverywhere) {
  const Clique c(9);
  Rng rng(14);
  const Instance inst = generate_hotspot(c.graph, 5, 3, rng);
  EXPECT_EQ(inst.requesters(0).size(), 9u);
  for (const Transaction& t : inst.transactions()) {
    EXPECT_EQ(t.objects.size(), 3u);
    EXPECT_EQ(t.objects.front(), 0u);  // sorted, so hot object is first
  }
}

TEST(GenerateHotspot, KOneIsPureContention) {
  const Clique c(5);
  Rng rng(15);
  const Instance inst = generate_hotspot(c.graph, 3, 1, rng);
  for (const Transaction& t : inst.transactions()) {
    EXPECT_EQ(t.objects, (std::vector<ObjectId>{0}));
  }
}

}  // namespace
}  // namespace dtm
