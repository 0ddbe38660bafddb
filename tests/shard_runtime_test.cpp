// Tests for the streaming runtime's shard accounting (DESIGN.md §10).
//
//  * ShardMap unit properties: cluster partitions keep clusters whole, grid
//    partitions tile the mesh, everything else falls back to contiguous
//    id ranges; shard counts clamp to [1, n] and every shard is non-empty.
//  * shard_aligned_homes places object o inside shard o mod S, and a
//    group-local arrival source keeps each transaction's objects in one
//    group's pool.
//  * AdmissionController unit behavior: the fixed policy is constant; AIMD
//    raises additively while deferred work exists and the backlog grows,
//    cuts multiplicatively once caught up, and respects floor and cap.
//  * The shard split is accounting only: shards=1 and shards=k produce
//    bit-identical schedules and StreamStats on every topology fixture,
//    arrival model, and coloring rule — with fixed and with adaptive
//    admission.
//  * The split itself, pinned with exact numbers on a hand-built window.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "core/schedule.hpp"
#include "graph/metric.hpp"
#include "graph/partition.hpp"
#include "graph/topologies/butterfly.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "sim/admission.hpp"
#include "sim/runtime.hpp"
#include "util/metrics.hpp"

namespace dtm {
namespace {

// ------------------------------------------------------------------------
// Shard map.

TEST(ShardMap, ClusterPartitionKeepsClustersWhole) {
  const ClusterGraph cg(4, 3, 6);
  const ShardMap map = make_shard_map(cg.graph, 2);
  EXPECT_EQ(map.scheme, "cluster");
  EXPECT_EQ(map.num_shards, 2u);
  for (NodeId v = 0; v < cg.graph.num_nodes(); ++v) {
    // Every node of a cluster shares the shard of the cluster's first node.
    const NodeId head = cg.node_at(cg.cluster_of(v), 0);
    EXPECT_EQ(map.shard_of(v), map.shard_of(head)) << "node " << v;
  }
  // Clusters are assigned in contiguous blocks: c -> c*S/alpha.
  for (std::size_t c = 0; c < cg.alpha; ++c) {
    EXPECT_EQ(map.shard_of(cg.node_at(c, 0)), c * 2 / cg.alpha);
  }
}

TEST(ShardMap, GridPartitionTilesTheMesh) {
  const Grid g(6, 6);
  const ShardMap map = make_shard_map(g.graph, 4);
  EXPECT_EQ(map.scheme, "grid");
  // 4 shards on a square mesh = a 2x2 tile grid of 3x3 blocks.
  for (std::size_t r = 0; r < g.rows; ++r) {
    for (std::size_t c = 0; c < g.cols; ++c) {
      const std::uint32_t want =
          static_cast<std::uint32_t>((r / 3) * 2 + (c / 3));
      EXPECT_EQ(map.shard_of(g.node_at(r, c)), want) << "(" << r << "," << c
                                                  << ")";
    }
  }
}

TEST(ShardMap, RangeFallbackOnUnstructuredGraphs) {
  const Clique k(10);
  const ShardMap map = make_shard_map(k.graph, 4);
  EXPECT_EQ(map.scheme, "range");
  // Contiguous ascending blocks: shard ids never decrease along node ids.
  for (NodeId v = 1; v < k.graph.num_nodes(); ++v) {
    EXPECT_LE(map.shard_of(v - 1), map.shard_of(v));
  }
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(9), 3u);
}

TEST(ShardMap, ClampsAndCoversEveryFixture) {
  const Clique k(6);
  EXPECT_EQ(make_shard_map(k.graph, 0).num_shards, 1u);
  EXPECT_EQ(make_shard_map(k.graph, 100).num_shards, 6u);
  for (int which = 0; which <= 6; ++which) {
    const struct {
      std::unique_ptr<Clique> clique;
      std::unique_ptr<Line> line;
      std::unique_ptr<Grid> grid;
      std::unique_ptr<ClusterGraph> cluster;
      std::unique_ptr<Hypercube> hypercube;
      std::unique_ptr<Butterfly> butterfly;
      std::unique_ptr<Star> star;
    } f = {
        which == 0 ? std::make_unique<Clique>(10) : nullptr,
        which == 1 ? std::make_unique<Line>(16) : nullptr,
        which == 2 ? std::make_unique<Grid>(5) : nullptr,
        which == 3 ? std::make_unique<ClusterGraph>(3, 4, 6) : nullptr,
        which == 4 ? std::make_unique<Hypercube>(4) : nullptr,
        which == 5 ? std::make_unique<Butterfly>(2) : nullptr,
        which == 6 ? std::make_unique<Star>(4, 4) : nullptr,
    };
    const Graph& g = f.clique       ? f.clique->graph
                     : f.line       ? f.line->graph
                     : f.grid       ? f.grid->graph
                     : f.cluster    ? f.cluster->graph
                     : f.hypercube  ? f.hypercube->graph
                     : f.butterfly  ? f.butterfly->graph
                                    : f.star->graph;
    for (std::size_t s : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      const ShardMap map = make_shard_map(g, s);
      ASSERT_EQ(map.node_shard.size(), g.num_nodes());
      const auto members = map.members();
      ASSERT_EQ(members.size(), map.num_shards);
      std::size_t covered = 0;
      for (std::size_t shard = 0; shard < members.size(); ++shard) {
        EXPECT_FALSE(members[shard].empty()) << "fixture " << which;
        covered += members[shard].size();
        for (std::size_t i = 0; i < members[shard].size(); ++i) {
          EXPECT_EQ(map.shard_of(members[shard][i]), shard);
          if (i > 0) {
            EXPECT_LT(members[shard][i - 1], members[shard][i]);
          }
        }
      }
      EXPECT_EQ(covered, g.num_nodes());
      // Pure function of (graph, S): a second call agrees exactly.
      EXPECT_EQ(make_shard_map(g, s).node_shard, map.node_shard);
    }
  }
}

TEST(ShardMap, ShardAlignedHomesLandInTheirShard) {
  const ClusterGraph cg(3, 4, 6);
  const ShardMap map = make_shard_map(cg.graph, 3);
  const std::vector<NodeId> homes = shard_aligned_homes(map, 10);
  ASSERT_EQ(homes.size(), 10u);
  for (ObjectId o = 0; o < homes.size(); ++o) {
    EXPECT_EQ(map.shard_of(homes[o]), o % 3) << "object " << o;
  }
}

// ------------------------------------------------------------------------
// Group-local arrivals.

TEST(ArrivalSources, GroupLocalDrawsStayInOneGroupPool) {
  const ClusterGraph cg(4, 4, 6);
  ArrivalStreamOptions opt;
  opt.num_txns = 64;
  opt.num_objects = 16;
  opt.objects_per_txn = 3;
  opt.rate = 2.0;
  opt.groups = 4;
  for (ArrivalModel model : {ArrivalModel::kPoisson, ArrivalModel::kBursty}) {
    auto src = make_arrival_source(model, cg.graph, opt, 21);
    ArrivingTxn txn;
    std::size_t pulled = 0;
    while (src->next(txn)) {
      ++pulled;
      ASSERT_EQ(txn.objects.size(), 3u);
      const ObjectId group = txn.objects[0] % 4;
      for (ObjectId o : txn.objects) {
        EXPECT_EQ(o % 4, group) << src->name();
        EXPECT_LT(o, 16u);
      }
    }
    EXPECT_EQ(pulled, 64u);
  }
}

// ------------------------------------------------------------------------
// Admission controllers.

TEST(Admission, FixedPolicyIsConstant) {
  AdmissionConfig cfg;
  cfg.max_live = 5;
  const auto ctl = make_admission_controller(cfg);
  EXPECT_EQ(ctl->name(), "fixed");
  EXPECT_EQ(ctl->quota(), 5u);
  ctl->on_window({.backlog = 100, .waiting = 50, .live = 5,
                  .committed_delta = 0});
  EXPECT_EQ(ctl->quota(), 5u);
  EXPECT_EQ(ctl->raises(), 0u);
  EXPECT_EQ(ctl->cuts(), 0u);
}

TEST(Admission, AimdRaisesWhileBehindAndCutsOnceCaughtUp) {
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicy::kAimd;
  cfg.min_live = 4;
  cfg.increase = 4;
  cfg.decrease = 0.5;
  cfg.cap = 32;
  const auto ctl = make_admission_controller(cfg);
  EXPECT_EQ(ctl->quota(), 4u);  // max_live 0 starts at the floor

  // Deferred work + growing backlog: additive raises, capped at 32.
  std::size_t backlog = 10;
  for (int i = 0; i < 10; ++i) {
    ctl->on_window({.backlog = backlog, .waiting = 3, .live = 4,
                    .committed_delta = 1});
    backlog += 5;
  }
  EXPECT_EQ(ctl->quota(), 32u);
  EXPECT_EQ(ctl->raises(), 7u);  // 4 -> 32 in steps of 4
  EXPECT_EQ(ctl->cuts(), 0u);

  // Growing backlog but nothing waiting: the quota was not the bottleneck.
  ctl->on_window({.backlog = backlog, .waiting = 0, .live = 4,
                  .committed_delta = 0});
  EXPECT_EQ(ctl->quota(), 32u);

  // Caught up (no waiters, backlog at the watermark): multiplicative cuts
  // down to the floor, never below.
  ctl->on_window({.backlog = 0, .waiting = 0, .live = 0,
                  .committed_delta = 8});
  EXPECT_EQ(ctl->quota(), 16u);
  ctl->on_window({.backlog = 0, .waiting = 0, .live = 0,
                  .committed_delta = 0});
  ctl->on_window({.backlog = 0, .waiting = 0, .live = 0,
                  .committed_delta = 0});
  EXPECT_EQ(ctl->quota(), 4u);
  const std::size_t cuts = ctl->cuts();
  ctl->on_window({.backlog = 0, .waiting = 0, .live = 0,
                  .committed_delta = 0});
  EXPECT_EQ(ctl->quota(), 4u);     // floor holds
  EXPECT_EQ(ctl->cuts(), cuts);    // a no-op cut is not counted
}

TEST(Admission, ParsePolicyNames) {
  EXPECT_EQ(parse_admission_policy("fixed"), AdmissionPolicy::kFixed);
  EXPECT_EQ(parse_admission_policy("adaptive"), AdmissionPolicy::kAimd);
  EXPECT_EQ(parse_admission_policy("aimd"), AdmissionPolicy::kAimd);
  EXPECT_THROW(parse_admission_policy("bogus"), Error);
}

// ------------------------------------------------------------------------
// Shard-count bit-identity on the golden fixtures.

struct Fixture {
  std::string name;
  std::unique_ptr<Line> line;
  std::unique_ptr<Grid> grid;
  std::unique_ptr<ClusterGraph> cluster;
  std::unique_ptr<Star> star;
  std::unique_ptr<Clique> clique;
  std::unique_ptr<Hypercube> hypercube;
  std::unique_ptr<Butterfly> butterfly;

  const Graph& graph() const {
    if (line) return line->graph;
    if (grid) return grid->graph;
    if (cluster) return cluster->graph;
    if (star) return star->graph;
    if (clique) return clique->graph;
    if (hypercube) return hypercube->graph;
    return butterfly->graph;
  }
};

Fixture make_fixture(int which) {
  Fixture f;
  switch (which) {
    case 0:
      f.name = "clique";
      f.clique = std::make_unique<Clique>(10);
      break;
    case 1:
      f.name = "line";
      f.line = std::make_unique<Line>(16);
      break;
    case 2:
      f.name = "grid";
      f.grid = std::make_unique<Grid>(5);
      break;
    case 3:
      f.name = "cluster";
      f.cluster = std::make_unique<ClusterGraph>(3, 4, 6);
      break;
    case 4:
      f.name = "hypercube";
      f.hypercube = std::make_unique<Hypercube>(4);
      break;
    case 5:
      f.name = "butterfly";
      f.butterfly = std::make_unique<Butterfly>(2);
      break;
    default:
      f.name = "star";
      f.star = std::make_unique<Star>(4, 4);
      break;
  }
  return f;
}

struct RunResult {
  Schedule sched;
  StreamStats stats;
  ShardLoadStats shard;
  std::size_t raises = 0;
  std::size_t cuts = 0;
};

RunResult run_stream(const Graph& g, const Metric& m, ArrivalModel model,
                     std::uint64_t seed, const StreamingRuntimeOptions& opts) {
  constexpr std::size_t kObjects = 12;
  ArrivalStreamOptions so;
  so.num_txns = 120;
  so.num_objects = kObjects;
  so.objects_per_txn = 2;
  so.rate = 1.5;
  so.burst_size = 8;
  auto src = make_arrival_source(model, g, so, seed);
  StreamingRuntime rt(g, m, StreamingRuntime::spread_homes(g, kObjects),
                      opts);
  rt.ingest_all(*src);
  rt.drain();
  return {rt.schedule(), rt.stats(), rt.shard_stats(),
          rt.admission().raises(), rt.admission().cuts()};
}

void expect_same_stats(const StreamStats& a, const StreamStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.arrived, b.arrived) << label;
  EXPECT_EQ(a.admitted, b.admitted) << label;
  EXPECT_EQ(a.committed, b.committed) << label;
  EXPECT_EQ(a.deferrals, b.deferrals) << label;
  EXPECT_EQ(a.windows, b.windows) << label;
  EXPECT_EQ(a.last_arrival, b.last_arrival) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.peak_backlog, b.peak_backlog) << label;
  EXPECT_DOUBLE_EQ(a.mean_backlog, b.mean_backlog) << label;
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput) << label;
  EXPECT_EQ(a.dep_edges, b.dep_edges) << label;
  EXPECT_EQ(a.dep_max_weight, b.dep_max_weight) << label;
}

class ShardIdentity : public ::testing::TestWithParam<int> {};

TEST_P(ShardIdentity, SchedulesAndStatsMatchEverySingleShardRun) {
  const Fixture f = make_fixture(GetParam());
  const DenseMetric m(f.graph());
  const std::uint64_t seed = 7 + static_cast<std::uint64_t>(GetParam());
  for (ArrivalModel model : {ArrivalModel::kPoisson, ArrivalModel::kBursty,
                             ArrivalModel::kHotObject}) {
    for (ColoringRule rule :
         {ColoringRule::kFirstFit, ColoringRule::kPaperPigeonhole}) {
      StreamingRuntimeOptions base;
      base.window = 8;
      base.rule = rule;
      base.max_live_admitted = 24;  // exercise backpressure + deferrals
      const RunResult ref = run_stream(f.graph(), m, model, seed, base);
      for (std::size_t shards :
           {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        StreamingRuntimeOptions opts = base;
        opts.shards = shards;
        const RunResult got = run_stream(f.graph(), m, model, seed, opts);
        const std::string label = f.name + "/" +
                                  std::to_string(static_cast<int>(model)) +
                                  "/rule" +
                                  std::to_string(static_cast<int>(rule)) +
                                  "/shards" + std::to_string(shards);
        EXPECT_EQ(ref.sched.commit_time, got.sched.commit_time) << label;
        EXPECT_EQ(ref.sched.object_order, got.sched.object_order) << label;
        expect_same_stats(ref.stats, got.stats, label);
        // Every admitted transaction is either shard-local or cross-shard,
        // and every cross-shard transaction seeds the fix-up set.
        EXPECT_EQ(got.shard.local_txns + got.shard.cross_txns,
                  got.stats.admitted)
            << label;
        EXPECT_GE(got.shard.fixup_txns, got.shard.cross_txns) << label;
      }
    }
  }
}

TEST_P(ShardIdentity, AdaptiveAdmissionIsShardCountInvariant) {
  const Fixture f = make_fixture(GetParam());
  const DenseMetric m(f.graph());
  const std::uint64_t seed = 40 + static_cast<std::uint64_t>(GetParam());
  StreamingRuntimeOptions base;
  base.window = 8;
  base.admission.policy = AdmissionPolicy::kAimd;
  base.admission.min_live = 8;
  base.admission.increase = 8;
  base.admission.decrease = 0.5;
  const RunResult ref =
      run_stream(f.graph(), m, ArrivalModel::kPoisson, seed, base);
  StreamingRuntimeOptions opts = base;
  opts.shards = 4;
  const RunResult got =
      run_stream(f.graph(), m, ArrivalModel::kPoisson, seed, opts);
  EXPECT_EQ(ref.sched.commit_time, got.sched.commit_time) << f.name;
  EXPECT_EQ(ref.sched.object_order, got.sched.object_order) << f.name;
  expect_same_stats(ref.stats, got.stats, f.name);
  // The controller saw identical feedback, so it took identical actions.
  EXPECT_EQ(ref.raises, got.raises) << f.name;
  EXPECT_EQ(ref.cuts, got.cuts) << f.name;
}

// The metrics spine inherits the shard-count invariance: the
// dtm-metrics-v1 JSONL a sink receives from a shards=k run is
// byte-identical to the shards=1 run once the (explicitly per-shard)
// "shard" series rows are dropped — histograms, gauges, and the "window"
// series never see the shard count.
TEST_P(ShardIdentity, MetricsJsonlIsShardCountInvariant) {
  const Fixture f = make_fixture(GetParam());
  const DenseMetric m(f.graph());
  const std::uint64_t seed = 70 + static_cast<std::uint64_t>(GetParam());
  MetricsRegistry& mreg = MetricsRegistry::global();
  const auto run_jsonl = [&](std::size_t shards) {
    StreamingRuntimeOptions opts;
    opts.window = 8;
    opts.max_live_admitted = 24;
    opts.shards = shards;
    mreg.reset();
    std::ostringstream doc;
    MetricsSink sink(doc, mreg);
    run_stream(f.graph(), m, ArrivalModel::kBursty, seed, opts);
    sink.finish();
    mreg.reset();
    const std::string jsonl = doc.str();
    // Drop the per-shard split series; everything else must be invariant.
    std::string out;
    std::size_t pos = 0;
    while (pos < jsonl.size()) {
      std::size_t nl = jsonl.find('\n', pos);
      if (nl == std::string::npos) nl = jsonl.size();
      const std::string line = jsonl.substr(pos, nl - pos);
      if (line.rfind("{\"series\":\"shard\"", 0) != 0) {
        out += line;
        out += '\n';
      }
      pos = nl + 1;
    }
    return out;
  };
  const std::string ref = run_jsonl(1);
  EXPECT_NE(ref.find("\"series\":\"window\""), std::string::npos);
  EXPECT_NE(ref.find("\"hist\":\"stream.latency.arrival_to_commit\""),
            std::string::npos);
  for (std::size_t shards : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    EXPECT_EQ(run_jsonl(shards), ref)
        << f.name << " shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFixtures, ShardIdentity,
                         ::testing::Range(0, 7));

// The sharded schedule is not just self-consistent — it survives the
// engine's stepwise replay (queued links, planned-degraded discipline).
TEST(ShardedRuntime, ReplayCheckPassesWithShards) {
  const ClusterGraph cg(4, 4, 6);
  const DenseMetric m(cg.graph);
  StreamingRuntimeOptions opts;
  opts.window = 8;
  opts.shards = 4;
  opts.replay_check = true;
  EXPECT_NO_THROW(
      run_stream(cg.graph, m, ArrivalModel::kPoisson, 11, opts));
}

// Group-local load on a shard-aligned placement stays shard-local.
TEST(ShardedRuntime, GroupLocalLoadIsShardLocal) {
  const ClusterGraph cg(4, 4, 6);
  const DenseMetric m(cg.graph);
  const ShardMap map = make_shard_map(cg.graph, 4);
  ArrivalStreamOptions so;
  so.num_txns = 200;
  so.num_objects = 16;
  so.objects_per_txn = 2;
  so.rate = 2.0;
  so.groups = 4;
  auto src = make_arrival_source(ArrivalModel::kPoisson, cg.graph, so, 13);
  StreamingRuntimeOptions opts;
  opts.window = 8;
  opts.shards = 4;
  StreamingRuntime rt(cg.graph, m, shard_aligned_homes(map, 16), opts);
  rt.ingest_all(*src);
  const StreamStats& st = rt.drain();
  const ShardLoadStats& shard = rt.shard_stats();
  EXPECT_EQ(shard.num_shards, 4u);
  EXPECT_EQ(shard.scheme, "cluster");
  EXPECT_EQ(shard.local_txns, st.admitted);  // no cross-shard transactions
  EXPECT_EQ(shard.cross_txns, 0u);
  EXPECT_EQ(shard.fixup_txns, 0u);
  EXPECT_GT(shard.peak_shard_members, 0u);
  EXPECT_EQ(st.committed, 200u);
}

// One window on two shards (one cluster each): T0 is local to shard 0 and
// conflicts with the cross-shard T1 on o0; T2 is local to shard 1 and
// conflicts with nothing. The cross member taints its component {T0, T1};
// only T2 stays shard-confined.
TEST(ShardedRuntime, AccountsOneWindowExactly) {
  const ClusterGraph cg(2, 2, 4);
  const DenseMetric m(cg.graph);
  const NodeId a0 = cg.node_at(0, 0), a1 = cg.node_at(0, 1);
  const NodeId b0 = cg.node_at(1, 0), b1 = cg.node_at(1, 1);
  StreamingRuntimeOptions opts;
  opts.window = 8;
  opts.shards = 2;
  // o0 lives in shard 0, o1 and o2 in shard 1.
  StreamingRuntime rt(cg.graph, m, {a0, b0, b1}, opts);
  ASSERT_EQ(rt.shard_stats().scheme, "cluster");

  std::ostringstream out;
  MetricsSink sink(out);
  rt.ingest({.arrival = 0, .home = a1, .objects = {0}});     // T0: local s0
  rt.ingest({.arrival = 1, .home = b0, .objects = {0, 1}});  // T1: cross
  rt.ingest({.arrival = 2, .home = b1, .objects = {2}});     // T2: local s1
  const StreamStats st = rt.drain();
  sink.finish();

  EXPECT_EQ(st.windows, 1u);
  EXPECT_EQ(st.committed, 3u);
  const ShardLoadStats& shard = rt.shard_stats();
  EXPECT_EQ(shard.num_shards, 2u);
  EXPECT_EQ(shard.local_txns, 2u);
  EXPECT_EQ(shard.cross_txns, 1u);
  EXPECT_EQ(shard.fixup_txns, 2u);
  EXPECT_EQ(shard.peak_shard_members, 1u);

  std::vector<std::string> rows;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("{\"series\":\"shard\"", 0) == 0) rows.push_back(line);
  }
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0],
            "{\"series\":\"shard\",\"t\":8,\"shards\":2,\"batch\":3,"
            "\"local\":2,\"cross\":1,\"fixup\":2,\"peak_members\":1}");
}

}  // namespace
}  // namespace dtm
