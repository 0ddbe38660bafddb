// Tests for the read/write (replicated / multi-versioned) model extension.
#include <gtest/gtest.h>

#include <chrono>

#include "core/generators.hpp"
#include "core/rw.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/line.hpp"
#include "sched/greedy.hpp"
#include "sched/rw_greedy.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace dtm {
namespace {

TEST(WriteSets, FractionZeroAndOne) {
  const Clique c(8);
  Rng rng(1);
  const Instance inst =
      generate_uniform(c.graph, {.num_objects = 4, .objects_per_txn = 2}, rng);
  const WriteSets none = generate_write_sets(inst, 0.0, rng);
  const WriteSets all = generate_write_sets(inst, 1.0, rng);
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    EXPECT_TRUE(none[t].empty());
    EXPECT_EQ(all[t], test::to_vector(inst.objects(t)));
  }
  EXPECT_TRUE(is_write(all, 0, inst.txn(0).objects[0]));
  EXPECT_FALSE(is_write(none, 0, inst.txn(0).objects[0]));
}

/// Line fixture: o0 written by T0@0 and T2@4, read by T1@2.
struct RwFixture {
  Line line{5};
  Instance inst;
  WriteSets writes;

  RwFixture() {
    InstanceBuilder b(line.graph, 1);
    b.add_transaction(0, {0});
    b.add_transaction(2, {0});
    b.add_transaction(4, {0});
    b.set_object_home(0, 0);
    inst = b.build();
    writes = {{0}, {}, {0}};  // T1 only reads
  }
};

TEST(RwSchedule, HandBuiltMultiVersionIsFeasible) {
  RwFixture f;
  const DenseMetric m(f.line.graph);
  RwSchedule s;
  s.writer_order = {{0, 2}};
  s.reader_source = {{{1, 0}}};  // T1 reads T0's version
  // Master 0 -> T0(1) -> T2(1+4=5); copy T0 -> T1 arrives 1+2=3.
  s.commit_time = {1, 3, 5};
  EXPECT_EQ(check_rw(f.inst, f.writes, m, s, RwPolicy::kMultiVersion), "");
  // Under single-version, T2 must also wait for T1's revocation:
  // t(T2) >= t(T1) + dist(2,4) = 5 — exactly met.
  EXPECT_EQ(check_rw(f.inst, f.writes, m, s, RwPolicy::kSingleVersion), "");
  s.commit_time = {1, 4, 5};  // now revocation (4+2=6) > 5 fails
  EXPECT_EQ(check_rw(f.inst, f.writes, m, s, RwPolicy::kMultiVersion), "");
  EXPECT_NE(check_rw(f.inst, f.writes, m, s, RwPolicy::kSingleVersion), "");
}

TEST(RwSchedule, CheckerCatchesStructuralErrors) {
  RwFixture f;
  const DenseMetric m(f.line.graph);
  RwSchedule s;
  s.writer_order = {{0, 2}};
  s.reader_source = {{{1, 0}}};
  s.commit_time = {1, 3, 5};
  {
    RwSchedule bad = s;
    bad.writer_order = {{0}};  // dropped writer T2
    EXPECT_NE(check_rw(f.inst, f.writes, m, bad, RwPolicy::kMultiVersion), "");
  }
  {
    RwSchedule bad = s;
    bad.reader_source = {{{1, 1}}};  // source is not a writer
    EXPECT_NE(check_rw(f.inst, f.writes, m, bad, RwPolicy::kMultiVersion), "");
  }
  {
    RwSchedule bad = s;
    bad.commit_time = {1, 2, 5};  // copy cannot reach T1 by 2
    EXPECT_NE(check_rw(f.inst, f.writes, m, bad, RwPolicy::kMultiVersion), "");
  }
}

TEST(RwGreedy, FeasibleBothPoliciesOnRandomWorkloads) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  Rng rng(7);
  for (double frac : {0.0, 0.3, 0.7, 1.0}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Instance inst = generate_uniform(
          g.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
      const WriteSets writes = generate_write_sets(inst, frac, rng);
      for (RwPolicy policy :
           {RwPolicy::kSingleVersion, RwPolicy::kMultiVersion}) {
        for (bool compact : {false, true}) {
          RwGreedyOptions opts;
          opts.policy = policy;
          opts.compact = compact;
          const RwSchedule s = schedule_rw_greedy(inst, writes, m, opts);
          EXPECT_EQ(check_rw(inst, writes, m, s, policy), "")
              << "frac=" << frac << " compact=" << compact << '\n'
              << inst.describe();
        }
      }
    }
  }
}

TEST(RwGreedy, AllWritesMatchesSingleCopyGreedy) {
  // With every access a write, the RW conflict graph equals the single-copy
  // dependency graph, so the makespans coincide (same rule, no compaction).
  const Clique c(12);
  const DenseMetric m(c.graph);
  Rng rng(9);
  const Instance inst =
      generate_uniform(c.graph, {.num_objects = 5, .objects_per_txn = 2}, rng);
  WriteSets all(inst.num_transactions());
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    all[t] = test::to_vector(inst.objects(t));
  }
  RwGreedyOptions opts;
  opts.rule = ColoringRule::kFirstFit;
  opts.compact = false;
  const RwSchedule rw = schedule_rw_greedy(inst, all, m, opts);
  GreedyOptions gopts;
  gopts.rule = ColoringRule::kFirstFit;
  GreedyScheduler plain(gopts);
  const Schedule s = plain.run(inst, m);
  EXPECT_EQ(rw.makespan(), s.makespan());
}

TEST(RwGreedy, ReadsMakeItFaster) {
  // Hot object read by everyone: multi-version serves all readers from the
  // initial version in parallel; the all-write case serializes everything.
  const Clique c(16);
  const DenseMetric m(c.graph);
  Rng rng(11);
  const Instance inst = generate_hotspot(c.graph, 1, 1, rng);
  WriteSets reads(inst.num_transactions());  // all empty = all reads
  WriteSets writes(inst.num_transactions());
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    writes[t] = test::to_vector(inst.objects(t));
  }
  const RwSchedule read_s = schedule_rw_greedy(inst, reads, m);
  const RwSchedule write_s = schedule_rw_greedy(inst, writes, m);
  EXPECT_EQ(check_rw(inst, reads, m, read_s, RwPolicy::kMultiVersion), "");
  EXPECT_LE(read_s.makespan(), 2);  // everyone reads the initial version
  EXPECT_GE(write_s.makespan(), 16);  // full serialization
}

TEST(RwGreedy, MultiVersionNeverSlowerThanSingleVersion) {
  const Grid g(5);
  const DenseMetric m(g.graph);
  Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    const Instance inst = generate_uniform(
        g.graph, {.num_objects = 5, .objects_per_txn = 2}, rng);
    const WriteSets writes = generate_write_sets(inst, 0.4, rng);
    RwGreedyOptions sv;
    sv.policy = RwPolicy::kSingleVersion;
    RwGreedyOptions mv;
    mv.policy = RwPolicy::kMultiVersion;
    const RwSchedule a = schedule_rw_greedy(inst, writes, m, sv);
    const RwSchedule b = schedule_rw_greedy(inst, writes, m, mv);
    EXPECT_EQ(check_rw(inst, writes, m, a, RwPolicy::kSingleVersion), "");
    EXPECT_EQ(check_rw(inst, writes, m, b, RwPolicy::kMultiVersion), "");
    EXPECT_LE(b.makespan(), a.makespan());
  }
}

TEST(RwGreedy, WriterChainObeysHopRuleOnSharedHomes) {
  // Two writers of o0 on node 0, master at node 2: the master serves one
  // commit per step, so the writers commit at 2 and 3, never together.
  const Line line(3);
  const DenseMetric m(line.graph);
  InstanceBuilder b(line.graph, 1);
  b.allow_shared_homes();
  b.add_transaction(0, {0});
  b.add_transaction(0, {0});
  b.set_object_home(0, 2);
  const Instance inst = b.build();
  const WriteSets writes = {{0}, {0}};
  const RwSchedule s = schedule_rw_greedy(inst, writes, m);
  EXPECT_EQ(s.commit_time, (std::vector<Time>{2, 3}));
  EXPECT_EQ(check_rw(inst, writes, m, s, RwPolicy::kMultiVersion), "");

  RwSchedule same_step = s;
  same_step.commit_time = {2, 2};
  EXPECT_NE(check_rw(inst, writes, m, same_step, RwPolicy::kMultiVersion),
            "");
  EXPECT_NE(check_rw(inst, writes, m, same_step, RwPolicy::kSingleVersion),
            "");
}

TEST(RwGreedy, OneWriterManyReadersBuildsInLinearTime) {
  // One writer and 65536 readers of one object: 65536 conflicting pairs
  // among 2^31 requester pairs. Only pairs with a writer are visited.
  const Clique c(2);
  const DenseMetric m(c.graph);
  constexpr std::size_t kTxns = 65537;
  InstanceBuilder b(c.graph, 1);
  b.allow_shared_homes().reserve(kTxns, kTxns);
  b.add_transaction(0, {0});
  for (std::size_t i = 1; i < kTxns; ++i) b.add_transaction(1, {0});
  const Instance inst = b.build();
  WriteSets writes(kTxns);
  writes[0] = {0};
  const auto start = std::chrono::steady_clock::now();
  const RwSchedule s = schedule_rw_greedy(inst, writes, m);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(check_rw(inst, writes, m, s, RwPolicy::kMultiVersion), "");
}

TEST(RwGreedy, RawArcCountPast32BitsThrowsBeforeEmitting) {
  // 65537 writers of one object conflict pairwise: 65537 * 65536 raw arcs
  // exceed 2^32 - 1. The builder counts them per object before emitting
  // any of the 2^31 pairs, so it throws at once.
  const Clique c(2);
  const DenseMetric m(c.graph);
  constexpr std::size_t kTxns = 65537;
  InstanceBuilder b(c.graph, 1);
  b.allow_shared_homes().reserve(kTxns, kTxns);
  for (std::size_t i = 0; i < kTxns; ++i) b.add_transaction(0, {0});
  const Instance inst = b.build();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(schedule_rw_greedy(inst, WriteSets(kTxns, {0}), m), Error);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

}  // namespace
}  // namespace dtm
