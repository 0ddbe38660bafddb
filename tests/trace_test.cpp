// Tests for the structured tracing subsystem (util/trace.hpp) and the
// analysis and export of an engine run's log (sim/trace_analysis.hpp).
//
//  * Recorder semantics: disabled-by-default no-op, provenance merging,
//    wall-domain exclusion from the JSONL export, and concurrent
//    wall-span recording (exercised under TSan in CI).
//  * Log export: every record kind formats into its track, name and args,
//    a stepwise leg spans its hops plus its queue waits, and reading the
//    export back (log_record) gives the analysis the same log.
//  * Determinism: the JSONL export of a seeded run is byte-identical
//    across two executions — the property that makes traces diffable.
//  * The critical-path invariant: on every topology fixture (the
//    faults_test recipe), fault-free and faulted, and on a composed
//    faults x capacity run, the reconstructed critical path tiles
//    [0, makespan] exactly and its segment lengths sum to the realized
//    makespan reported by the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/generators.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/butterfly.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "sched/registry.hpp"
#include "sched/reschedule.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_analysis.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace dtm {
namespace {

// The global recorder is shared across tests in this binary; every test
// starts from a clean, disabled recorder and leaves it disabled.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().clear();
  }
  void TearDown() override { TraceRecorder::global().set_enabled(false); }
};

// ------------------------------------------------------------- recorder

TEST_F(TraceTest, DisabledRecorderIsANoOp) {
  TraceRecorder& rec = TraceRecorder::global();
  EXPECT_FALSE(rec.enabled());
  const auto now = std::chrono::steady_clock::now();
  rec.wall_span("phase.test", now, now);
  EXPECT_EQ(rec.size(), 0u);
}

TEST_F(TraceTest, ProvenanceMergesBuildInfoWithRunFields) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_provenance({{"seed", "9"}, {"scheduler", "greedy-ff"}});
  const auto prov = rec.provenance();
  EXPECT_EQ(prov.at("seed"), "9");
  EXPECT_EQ(prov.at("scheduler"), "greedy-ff");
  // Build info is always stamped (values depend on the build, but the
  // keys must be present and non-empty).
  for (const char* key : {"git_sha", "build_type", "compiler"}) {
    ASSERT_TRUE(prov.count(key)) << key;
    EXPECT_FALSE(prov.at(key).empty()) << key;
  }
}

TEST_F(TraceTest, JsonlSkipsWallDomainChromeKeepsIt) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  const auto now = std::chrono::steady_clock::now();
  rec.wall_span("phase.test", now, now);
  const std::vector<SimEvent> log = {{.time = 4,
                                      .kind = SimEvent::Kind::kLeg,
                                      .object = 0,
                                      .txn = 0,
                                      .node = 1,
                                      .from = 0}};
  const std::vector<TraceSpanRecord> sim = trace_records(log);

  const std::string jsonl = rec.to_jsonl(sim);
  EXPECT_NE(jsonl.find("dtm-trace-jsonl-v1"), std::string::npos);
  EXPECT_NE(jsonl.find("o0#0"), std::string::npos);
  EXPECT_EQ(jsonl.find("phase.test"), std::string::npos);

  const std::string chrome = rec.to_chrome_json(sim);
  EXPECT_NE(chrome.find("dtm-trace-chrome-v1"), std::string::npos);
  EXPECT_NE(chrome.find("o0#0"), std::string::npos);
  EXPECT_NE(chrome.find("phase.test"), std::string::npos);
  EXPECT_NE(chrome.find("host phases"), std::string::npos);
}

// Many threads record wall spans concurrently (the ThreadPool pattern);
// every span must land, on the right track. This is the test the CI TSan
// job leans on.
TEST_F(TraceTest, ConcurrentWallSpansFromManyThreads) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      TraceRecorder::set_thread_track("worker " + std::to_string(i));
      for (int j = 0; j < kSpansPerThread; ++j) {
        const auto now = std::chrono::steady_clock::now();
        TraceRecorder::global().wall_span("phase.work", now, now);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto evs = rec.events();
  ASSERT_EQ(evs.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::vector<int> per_track(kThreads, 0);
  for (const auto& e : evs) {
    EXPECT_EQ(std::string(e.cat), "phase");
    ASSERT_EQ(e.track.rfind("worker ", 0), 0u) << e.track;
    ++per_track[std::stoi(e.track.substr(7))];
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(per_track[i], kSpansPerThread) << "worker " << i;
  }
}

// ------------------------------------------------------------ log export

std::map<std::string, std::int64_t> args_of(const TraceSpanRecord& r) {
  std::map<std::string, std::int64_t> out;
  for (const TraceArg& a : r.args) out[a.key] = a.value;
  return out;
}

// One record of every trace kind, plus the moves (which export nothing).
TEST(TraceRecords, FormatEveryRecordKind) {
  using Kind = SimEvent::Kind;
  const std::vector<SimEvent> log = {
      {.time = 0, .kind = Kind::kDepart, .object = 2, .node = 5},
      {.time = 6,
       .kind = Kind::kLeg,
       .object = 2,
       .txn = 7,
       .node = 3,
       .from = 5,
       .prev = 4,
       .leg = 1,
       .redirect = true,
       .since = 2},
      {.time = 6, .kind = Kind::kArrive, .object = 2, .node = 3},
      {.time = 9, .kind = Kind::kCommit, .txn = 7, .node = 3, .since = 6,
       .planned = 8},
      {.time = 9, .kind = Kind::kDegraded, .txn = 7, .node = 3, .planned = 8},
      {.time = 5,
       .kind = Kind::kQueueWait,
       .object = 2,
       .node = 3,
       .from = 4,
       .leg = 1,
       .since = 3},
      {.time = 4,
       .kind = Kind::kFault,
       .object = kInvalidObject,
       .node = 1,
       .from = 2,
       .fault = SimEvent::Fault::kSlowdown},
      {.time = 10, .kind = Kind::kReschedule, .since = 7},
      {.time = 12, .kind = Kind::kReschedule, .since = 12},
  };
  const std::vector<TraceSpanRecord> r = trace_records(log);
  ASSERT_EQ(r.size(), 7u);

  EXPECT_EQ(std::string(r[0].cat), "leg");
  EXPECT_FALSE(r[0].instant);
  EXPECT_EQ(r[0].track, "link 3-5");
  EXPECT_EQ(r[0].name, "o2#1");
  EXPECT_EQ(r[0].begin, 2);
  EXPECT_EQ(r[0].end, 6);
  EXPECT_EQ(args_of(r[0]),
            (std::map<std::string, std::int64_t>{{"from", 5},
                                                 {"leg", 1},
                                                 {"object", 2},
                                                 {"prev", 4},
                                                 {"redirect", 1},
                                                 {"to", 3},
                                                 {"txn", 7}}));

  EXPECT_EQ(std::string(r[1].cat), "txn");
  EXPECT_EQ(r[1].track, "node 3");
  EXPECT_EQ(r[1].name, "T7");
  EXPECT_EQ(r[1].begin, 6);
  EXPECT_EQ(r[1].end, 9);
  EXPECT_EQ(args_of(r[1]), (std::map<std::string, std::int64_t>{
                               {"planned", 8}, {"txn", 7}}));

  EXPECT_EQ(std::string(r[2].cat), "fault");
  EXPECT_TRUE(r[2].instant);
  EXPECT_EQ(r[2].name, "degraded");
  EXPECT_EQ(r[2].begin, 9);
  EXPECT_EQ(args_of(r[2]), (std::map<std::string, std::int64_t>{
                               {"stall", 1}, {"txn", 7}}));

  EXPECT_EQ(std::string(r[3].cat), "queue");
  EXPECT_EQ(r[3].track, "link 3-4");
  EXPECT_EQ(r[3].name, "o2 wait");
  EXPECT_EQ(r[3].begin, 3);
  EXPECT_EQ(r[3].end, 5);

  EXPECT_EQ(r[4].name, "slowdown");
  EXPECT_EQ(r[4].track, "link 1-2");
  EXPECT_EQ(args_of(r[4]), (std::map<std::string, std::int64_t>{
                               {"object", -1}, {"u", 2}, {"v", 1}}));

  EXPECT_EQ(std::string(r[5].cat), "resched");
  EXPECT_EQ(r[5].track, "scheduler");
  EXPECT_EQ(r[5].begin, 10);
  EXPECT_EQ(args_of(r[5]), (std::map<std::string, std::int64_t>{
                               {"index", 1}, {"lag", 3}}));
  EXPECT_EQ(args_of(r[6]), (std::map<std::string, std::int64_t>{
                               {"index", 2}, {"lag", 0}}));
}

// -------------------------------------------------------------- fixtures
// The faults_test / engine_test topology recipe: seed = which * 131 + 7,
// 6 objects, 2 objects per transaction, greedy-ff.

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

Instance fixture_instance(const Fixture& topo, int which) {
  Rng rng(static_cast<std::uint64_t>(which) * 131 + 7);
  return generate_uniform(topo.graph(),
                          {.num_objects = 6, .objects_per_txn = 2}, rng);
}

FaultConfig fixture_faults(int which) {
  FaultConfig fc;
  fc.link_outage_rate = 0.2;
  fc.loss_rate = 0.05;
  fc.seed = static_cast<std::uint64_t>(which) * 131 + 7;
  return fc;
}

// ------------------------------------------------- critical-path invariant

class CriticalPathInvariant : public ::testing::TestWithParam<int> {};

// Fault-free: the analytic engine path. Segment lengths must sum to the
// realized makespan with no chain violations.
TEST_P(CriticalPathInvariant, FaultFreeRunTilesMakespan) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);

  const SimResult r = simulate(inst, metric, s, {.record_events = true});
  ASSERT_TRUE(r.ok) << topo.name << ": " << r.summary();

  const TraceSummary sum = summarize_trace(r.events);
  EXPECT_TRUE(sum.problems.empty())
      << topo.name << ": " << sum.problems.front();
  EXPECT_EQ(sum.makespan, r.realized_makespan) << topo.name;
  EXPECT_EQ(sum.critical_total, r.realized_makespan) << topo.name;
  EXPECT_TRUE(sum.consistent()) << topo.name;
  EXPECT_FALSE(sum.critical_path.empty()) << topo.name;
}

// Faulted: outages, loss and retries drive the stepwise engine path; the
// invariant must survive reroutes and degraded commits.
TEST_P(CriticalPathInvariant, FaultedRunTilesMakespan) {
  const int which = GetParam();
  const Fixture topo = make_fixture(which);
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, which);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);

  const FaultModel model(fixture_faults(which));
  SimOptions opts;
  opts.record_events = true;
  opts.faults = &model;
  const SimResult r = simulate(inst, metric, s, opts);
  ASSERT_TRUE(r.ok) << topo.name << ": " << r.summary();

  const TraceSummary sum = summarize_trace(r.events);
  EXPECT_TRUE(sum.problems.empty())
      << topo.name << ": " << sum.problems.front();
  EXPECT_EQ(sum.makespan, r.realized_makespan) << topo.name;
  EXPECT_EQ(sum.critical_total, r.realized_makespan) << topo.name;
  EXPECT_TRUE(sum.consistent()) << topo.name;
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, CriticalPathInvariant,
                         ::testing::Range(0, 7));

// Composed faults x capacity-1 FIFO links: queue waits appear in the trace
// and the transfer spans absorb them, so the invariant still holds.
TEST_F(TraceTest, CriticalPathHoldsUnderFaultsTimesCapacity) {
  const Fixture topo = make_fixture(2);  // grid
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, 2);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);

  const FaultModel model(fixture_faults(2));
  const SimResult r = simulate(inst, metric, s,
                               {.record_events = true,
                                .faults = &model,
                                .capacity = 1,
                                .earliest_commit = true});
  ASSERT_TRUE(r.ok) << r.summary();

  const TraceSummary sum = summarize_trace(r.events);
  EXPECT_TRUE(sum.problems.empty()) << sum.problems.front();
  EXPECT_EQ(sum.critical_total, r.realized_makespan);
  EXPECT_TRUE(sum.consistent());
  // Capacity-1 links on this fixture force queueing; the queue-wait spans
  // must surface in the summary.
  EXPECT_EQ(r.total_queue_wait > 0, !sum.queue_waits.empty());
}

// A stepwise leg is logged at launch and ends at its arrival: on
// fault-free capacity-1 links it lasts its hops' distance plus its queue
// waits. A commit's assembly step is its last object's arrival, and the
// commit follows it.
TEST(TraceRecords, StepwiseLegSpansItsHopsAndQueueWaits) {
  const Fixture topo = make_fixture(2);  // grid
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, 2);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);
  const SimResult r = simulate(
      inst, metric, s,
      {.record_events = true, .capacity = 1, .earliest_commit = true});
  ASSERT_TRUE(r.ok) << r.summary();

  std::map<std::pair<ObjectId, std::uint32_t>, Time> waited;
  Time total_wait = 0;
  for (const SimEvent& e : r.events) {
    if (e.kind == SimEvent::Kind::kQueueWait) {
      waited[std::make_pair(e.object, e.leg)] += e.time - e.since;
      total_wait += e.time - e.since;
    }
  }
  ASSERT_GT(total_wait, 0);
  std::size_t legs = 0;
  std::size_t commits = 0;
  std::map<TxnId, Time> last_arrival;
  for (const SimEvent& e : r.events) {
    if (e.kind == SimEvent::Kind::kLeg) {
      ++legs;
      const Time wait = waited[std::make_pair(e.object, e.leg)];
      EXPECT_EQ(e.time - e.since, metric.distance(e.from, e.node) + wait)
          << "o" << e.object << "#" << e.leg;
      last_arrival[e.txn] = std::max(last_arrival[e.txn], e.time);
    } else if (e.kind == SimEvent::Kind::kCommit) {
      ++commits;
      EXPECT_EQ(e.since, last_arrival[e.txn]) << "T" << e.txn;
      EXPECT_GE(e.time, e.since) << "T" << e.txn;
    }
  }
  EXPECT_GT(legs, 0u);
  EXPECT_EQ(commits, inst.num_transactions());
}

// -------------------------------------------------------------- read-back

/// Every field of a summary, one line each, for whole-summary equality.
std::string render(const TraceSummary& s) {
  std::ostringstream os;
  os << "makespan " << s.makespan << " reschedules " << s.reschedules
     << " total " << s.critical_total << "\n";
  for (const CriticalSegment& c : s.critical_path) {
    os << "seg " << static_cast<int>(c.kind) << ' ' << c.begin << ' '
       << c.end << ' ' << c.txn << ' ' << c.object << ' ' << c.leg << ' '
       << c.from << ' ' << c.to << "\n";
  }
  for (const LinkUtilization& l : s.links) {
    os << "link " << l.track << ' ' << l.busy << ' ' << l.legs << "\n";
  }
  for (const QueueWaitEntry& q : s.queue_waits) {
    os << "wait " << q.track << ' ' << q.object << ' ' << q.leg << ' '
       << q.begin << ' ' << q.end << "\n";
  }
  for (const TxnSlack& t : s.slack) {
    os << "slack " << t.txn << ' ' << t.assembled << ' ' << t.planned << ' '
       << t.realized << ' ' << t.slack << "\n";
  }
  const LatencySummary& l = s.latency;
  os << "latency " << l.count << ' ' << l.sum << ' ' << l.min << ' ' << l.max
     << ' ' << l.mean << ' ' << l.p50 << ' ' << l.p95 << ' ' << l.p99 << "\n";
  for (const std::string& p : s.problems) os << "problem " << p << "\n";
  return os.str();
}

// log_record inverts trace_records: on a faulted, capacity-bounded,
// rescheduled run, reading the exported records back gives the log minus
// its moves (a queue wait's link as min -> max), and the summary of the
// read-back log equals the summary of the run's own. The run's moves and
// commits are in time order.
TEST(TraceRecords, ReadBackLogSummarizesLikeTheRunsLog) {
  const Fixture topo = make_fixture(2);  // grid
  const DenseMetric metric(topo.graph());
  const Instance inst = fixture_instance(topo, 2);
  const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);
  const FaultModel model(fixture_faults(2));
  SimOptions opts;
  opts.record_events = true;
  opts.faults = &model;
  opts.capacity = 1;
  opts.reschedule = make_rescheduler(inst, metric, "greedy-ff");
  opts.reschedule_policy.slack_threshold = 1;
  opts.reschedule_policy.cooldown = 4;
  opts.reschedule_policy.max_reschedules = 8;
  const SimResult r = simulate(inst, metric, s, opts);
  ASSERT_TRUE(r.ok) << r.summary();
  ASSERT_GT(r.reschedules, 0u);
  ASSERT_GT(r.total_queue_wait, 0);
  ASSERT_GT(r.faults.injected, 0u);

  std::vector<SimEvent> expected;
  Time prev = 0;
  for (SimEvent e : r.events) {
    if (e.chronological()) {
      EXPECT_GE(e.time, prev);
      prev = e.time;
      if (e.kind != SimEvent::Kind::kCommit) continue;
    }
    if (e.kind == SimEvent::Kind::kQueueWait && e.from > e.node) {
      std::swap(e.from, e.node);
    }
    expected.push_back(e);
  }
  std::vector<SimEvent> read_back;
  for (const TraceSpanRecord& rec : trace_records(r.events)) {
    read_back.push_back(log_record(rec));
  }
  ASSERT_EQ(read_back.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(read_back[i] == expected[i]) << "record " << i;
  }
  const TraceSummary sum = summarize_trace(r.events);
  EXPECT_TRUE(sum.consistent());
  EXPECT_EQ(render(summarize_trace(read_back)), render(sum));
}

// A wall-domain phase span, or a shape no log record formats to, reads
// back as a kNone record.
TEST(TraceRecords, ReadBackRejectsNonLogRecords) {
  TraceSpanRecord phase;
  phase.track = "main";
  phase.name = "schedule";
  EXPECT_EQ(log_record(phase).kind, SimEvent::Kind::kNone);
  TraceSpanRecord leg_instant;
  leg_instant.cat = "leg";
  leg_instant.instant = true;
  EXPECT_EQ(log_record(leg_instant).kind, SimEvent::Kind::kNone);
}

// ----------------------------------------------------------- determinism

// The JSONL export of a seeded faulted run is byte-identical across two
// executions — the property that makes traces diffable artifacts.
TEST_F(TraceTest, JsonlExportIsByteIdenticalAcrossRuns) {
  const auto run_once = [] {
    const Fixture topo = make_fixture(2);
    const DenseMetric metric(topo.graph());
    const Instance inst = fixture_instance(topo, 2);
    const Schedule s = make_scheduler("greedy-ff")->run(inst, metric);
    const FaultModel model(fixture_faults(2));
    SimOptions opts;
    opts.record_events = true;
    opts.faults = &model;
    TraceRecorder& rec = TraceRecorder::global();
    rec.clear();
    rec.set_provenance({{"seed", "269"}});
    const SimResult r = simulate(inst, metric, s, opts);
    EXPECT_TRUE(r.ok) << r.summary();
    return rec.to_jsonl(trace_records(r.events));
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dtm
