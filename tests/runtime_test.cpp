// Streaming runtime: arrival sources, window scheduling, the window-graph
// conflict counts, backpressure, and the engine replay check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/generators.hpp"
#include "core/online.hpp"
#include "core/validate.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "sched/online.hpp"
#include "sim/runtime.hpp"
#include "test_util.hpp"
#include "util/metrics.hpp"

namespace dtm {
namespace {

ArrivalStreamOptions small_stream(std::size_t n, double rate) {
  ArrivalStreamOptions opt;
  opt.num_txns = n;
  opt.num_objects = 8;
  opt.objects_per_txn = 2;
  opt.rate = rate;
  return opt;
}

TEST(ArrivalSources, NonDecreasingAndExhausting) {
  const Grid g(6);
  for (ArrivalModel model : {ArrivalModel::kPoisson, ArrivalModel::kBursty,
                             ArrivalModel::kHotObject}) {
    auto src = make_arrival_source(model, g.graph, small_stream(50, 1.5), 7);
    ArrivingTxn t;
    Time prev = 0;
    std::size_t count = 0;
    while (src->next(t)) {
      EXPECT_GE(t.arrival, prev);
      EXPECT_LT(t.home, g.graph.num_nodes());
      EXPECT_FALSE(t.objects.empty());
      for (ObjectId o : t.objects) EXPECT_LT(o, 8u);
      prev = t.arrival;
      ++count;
    }
    EXPECT_EQ(count, 50u);
    EXPECT_FALSE(src->next(t));  // stays exhausted
  }
}

TEST(ArrivalSources, DeterministicPerSeed) {
  const Grid g(5);
  for (std::uint64_t seed : {1ull, 42ull}) {
    auto a = make_arrival_source(ArrivalModel::kPoisson, g.graph,
                                 small_stream(30, 2.0), seed);
    auto b = make_arrival_source(ArrivalModel::kPoisson, g.graph,
                                 small_stream(30, 2.0), seed);
    ArrivingTxn ta, tb;
    while (a->next(ta)) {
      ASSERT_TRUE(b->next(tb));
      EXPECT_EQ(ta.arrival, tb.arrival);
      EXPECT_EQ(ta.home, tb.home);
      EXPECT_EQ(ta.objects, tb.objects);
    }
    EXPECT_FALSE(b->next(tb));
  }
}

TEST(ArrivalSources, HotObjectAlwaysTouchesObjectZero) {
  const Grid g(4);
  auto src = make_arrival_source(ArrivalModel::kHotObject, g.graph,
                                 small_stream(20, 1.0), 3);
  ArrivingTxn t;
  while (src->next(t)) {
    EXPECT_EQ(t.objects.front(), 0u);
  }
}

StreamingRuntime run_stream(const Graph& g, const Metric& m,
                            ArrivalModel model, double rate, std::size_t n,
                            StreamingRuntimeOptions opts,
                            std::uint64_t seed = 5) {
  StreamingRuntime rt(g, m, StreamingRuntime::spread_homes(g, 8), opts);
  auto src = make_arrival_source(model, g, small_stream(n, rate), seed);
  rt.ingest_all(*src);
  rt.drain();
  return rt;
}

TEST(StreamingRuntime, FeasibleValidatedAndReplayable) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  for (ArrivalModel model : {ArrivalModel::kPoisson, ArrivalModel::kBursty,
                             ArrivalModel::kHotObject}) {
    StreamingRuntimeOptions opts;
    opts.replay_check = true;  // drain() throws on a missed commit
    const StreamingRuntime rt = run_stream(g.graph, m, model, 1.0, 80, opts);
    const Instance inst = rt.materialize();
    const auto vr = validate_online(inst, m, rt.arrivals(), rt.schedule());
    EXPECT_TRUE(vr.ok) << vr.summary();
    EXPECT_EQ(rt.stats().committed, 80u);
    EXPECT_EQ(rt.stats().arrived, 80u);
    EXPECT_GT(rt.stats().windows, 0u);
    EXPECT_GT(rt.stats().throughput, 0.0);
  }
}

TEST(StreamingRuntime, MatchesOnlineBatchSchedulerWithoutBackpressure) {
  // With unbounded admission the runtime IS the window-batched online
  // scheduler run over the materialized stream: same windows, and the same
  // window step (build, color, place). One transaction per node here;
  // MatchesOnlineBatchSchedulerOnSharedHomes below lets homes repeat.
  const Grid g(6);
  const DenseMetric m(g.graph);
  Rng rng(23);
  for (Time window : {Time{4}, Time{16}}) {
    StreamingRuntimeOptions opts;
    opts.window = window;
    StreamingRuntime rt(g.graph, m, StreamingRuntime::spread_homes(g.graph, 8),
                        opts);
    Time arrival = 0;
    for (TxnId t = 0; t < 30; ++t) {
      ArrivingTxn in;
      in.arrival = arrival;
      in.home = static_cast<NodeId>(t);  // one txn per node, like a batch
      for (std::size_t o : rng.sample_indices(8, 2)) {
        in.objects.push_back(static_cast<ObjectId>(o));
      }
      std::sort(in.objects.begin(), in.objects.end());
      rt.ingest(in);
      arrival += rng.uniform(0, 2);
    }
    rt.drain();
    const Instance inst = rt.materialize();
    OnlineBatchScheduler batch({.window = window});
    const Schedule expect = batch.run_online(inst, m, rt.arrivals());
    const Schedule got = rt.schedule();
    EXPECT_EQ(got.commit_time, expect.commit_time) << "window=" << window;
    EXPECT_EQ(got.object_order, expect.object_order) << "window=" << window;
  }
}

// Streams revisit homes, so requesters of one object share nodes. Both
// paths weigh such a conflict 1 (an object serves one commit per step) and
// must still agree commit for commit.
TEST(StreamingRuntime, MatchesOnlineBatchSchedulerOnSharedHomes) {
  const Clique c(4);
  const DenseMetric m(c.graph);
  Rng rng(31);
  StreamingRuntimeOptions opts;
  opts.window = 4;
  StreamingRuntime rt(c.graph, m, StreamingRuntime::spread_homes(c.graph, 6),
                      opts);
  Time arrival = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    ArrivingTxn in;
    in.arrival = arrival;
    in.home = static_cast<NodeId>(rng.uniform(0, 1));
    for (std::size_t o : rng.sample_indices(6, 2)) {
      in.objects.push_back(static_cast<ObjectId>(o));
    }
    std::sort(in.objects.begin(), in.objects.end());
    rt.ingest(in);
    arrival += rng.uniform(0, 2);
  }
  rt.drain();
  EXPECT_GT(rt.stats().windows, 5u);
  EXPECT_EQ(rt.stats().deferrals, 0u);
  const Instance inst = rt.materialize();
  OnlineBatchScheduler batch({.window = opts.window});
  const Schedule expect = batch.run_online(inst, m, rt.arrivals());
  EXPECT_EQ(rt.schedule().commit_time, expect.commit_time);
  const auto vr = validate_online(inst, m, rt.arrivals(), expect);
  EXPECT_TRUE(vr.ok) << vr.summary();
}

// StreamStats' conflict counts are the window graphs' edges, summed over
// windows: exactly what the dep.csr_edges counter adds for the stream.
// Pinned here because bench_compare flags only counter growth: a drop
// would slip past the stream baselines.
TEST(StreamingRuntime, ConflictCountsPinned) {
  const Grid g(10);
  const DenseMetric m(g.graph);
  MetricCounter& csr_edges = metrics::counter("dep.csr_edges");
  ArrivalStreamOptions so = small_stream(120, 1.0);
  so.num_objects = 64;
  {
    StreamingRuntime rt(g.graph, m,
                        StreamingRuntime::spread_homes(g.graph, 64));
    auto src = make_arrival_source(ArrivalModel::kPoisson, g.graph, so, 5);
    const std::uint64_t before = csr_edges.value();
    rt.ingest_all(*src);
    const StreamStats& st = rt.drain();
    EXPECT_EQ(st.dep_edges, csr_edges.value() - before);
    EXPECT_EQ(st.dep_edges, 43u);
    EXPECT_EQ(st.dep_max_weight, 14);
    EXPECT_EQ(st.makespan, 213);
  }
  {
    StreamingRuntimeOptions opts;
    opts.admission = {.policy = AdmissionPolicy::kAimd};
    StreamingRuntime rt(g.graph, m,
                        StreamingRuntime::spread_homes(g.graph, 64), opts);
    so.rate = 2.0;
    auto src = make_arrival_source(ArrivalModel::kBursty, g.graph, so, 5);
    const std::uint64_t before = csr_edges.value();
    rt.ingest_all(*src);
    const StreamStats& st = rt.drain();
    EXPECT_GT(st.deferrals, 0u);  // the backlog path ran
    EXPECT_EQ(st.dep_edges, csr_edges.value() - before);
    EXPECT_EQ(st.dep_edges, 57u);
    EXPECT_EQ(st.dep_max_weight, 14);
    EXPECT_EQ(st.makespan, 233);
  }
}

// Object o's placed requesters (commit > 0) by (commit, id), computed
// directly from the instance.
std::vector<std::vector<TxnId>> placed_by_commit(
    const Instance& inst, const std::vector<Time>& commit) {
  std::vector<std::vector<TxnId>> out(inst.num_objects());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    for (TxnId t : inst.requesters(o)) {
      if (commit[t] > 0) out[o].push_back(t);
    }
    std::sort(out[o].begin(), out[o].end(), [&](TxnId a, TxnId b) {
      return std::pair(commit[a], a) < std::pair(commit[b], b);
    });
  }
  return out;
}

// Ingests `stream`, checking schedule()'s visit chains every few arrivals
// (while some transactions are still unplaced) and once drained.
void expect_chains_follow_commits(StreamingRuntime& rt,
                                  const std::vector<ArrivingTxn>& stream) {
  std::size_t mid_stream_checks = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rt.ingest(stream[i]);
    if (i % 5 != 4) continue;
    const Schedule s = rt.schedule();
    const auto unplaced = static_cast<std::size_t>(
        std::count(s.commit_time.begin(), s.commit_time.end(), Time{0}));
    if (unplaced > 0 && unplaced < s.commit_time.size()) ++mid_stream_checks;
    EXPECT_EQ(s.object_order, placed_by_commit(rt.materialize(), s.commit_time))
        << "after " << i + 1 << " arrivals";
  }
  EXPECT_GT(mid_stream_checks, 0u);
  rt.drain();
  const Schedule s = rt.schedule();
  EXPECT_EQ(std::count(s.commit_time.begin(), s.commit_time.end(), Time{0}),
            0);
  EXPECT_EQ(s.object_order,
            Schedule::from_commit_times(rt.materialize(), s.commit_time)
                .object_order);
}

std::vector<ArrivingTxn> collect(ArrivalSource& src) {
  std::vector<ArrivingTxn> out;
  ArrivingTxn t;
  while (src.next(t)) out.push_back(t);
  return out;
}

TEST(StreamingRuntime, VisitChainsFollowCommitTimes) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  {
    SCOPED_TRACE("bursty under AIMD");
    StreamingRuntimeOptions opts;
    opts.admission = {.policy = AdmissionPolicy::kAimd};
    StreamingRuntime rt(g.graph, m, StreamingRuntime::spread_homes(g.graph, 8),
                        opts);
    auto src = make_arrival_source(ArrivalModel::kBursty, g.graph,
                                   small_stream(150, 2.0), 5);
    expect_chains_follow_commits(rt, collect(*src));
    EXPECT_GT(rt.stats().deferrals, 0u);  // the backlog path ran
  }
  {
    SCOPED_TRACE("Poisson");
    StreamingRuntime rt(g.graph, m,
                        StreamingRuntime::spread_homes(g.graph, 8));
    auto src = make_arrival_source(ArrivalModel::kPoisson, g.graph,
                                   small_stream(150, 1.0), 7);
    expect_chains_follow_commits(rt, collect(*src));
  }
  {
    // Every transaction on node 0 or 1 and every object homed at node 0:
    // requesters of one object share homes, so hops cost 0 or 1.
    SCOPED_TRACE("shared homes");
    StreamingRuntime rt(g.graph, m, std::vector<NodeId>(8, 0));
    Rng rng(11);
    std::vector<ArrivingTxn> stream;
    Time arrival = 0;
    for (std::size_t i = 0; i < 120; ++i) {
      ArrivingTxn in;
      in.arrival = arrival;
      in.home = static_cast<NodeId>(rng.uniform(0, 1));
      for (std::size_t o : rng.sample_indices(8, 2)) {
        in.objects.push_back(static_cast<ObjectId>(o));
      }
      std::sort(in.objects.begin(), in.objects.end());
      stream.push_back(std::move(in));
      arrival += rng.uniform(0, 1);
    }
    expect_chains_follow_commits(rt, stream);
  }
}

// materialize() hands the runtime's transcript to the instance and builds
// only the requester lists; the instance must hold exactly what an
// InstanceBuilder makes of the same arrivals.
void expect_materialize_matches_builder(const Graph& g, const Metric& m,
                                        std::vector<NodeId> object_home,
                                        const std::vector<ArrivingTxn>& stream,
                                        StreamingRuntimeOptions opts = {}) {
  InstanceBuilder b(g, object_home.size());
  b.allow_shared_homes();
  for (const ArrivingTxn& t : stream) b.add_transaction(t.home, t.objects);
  for (ObjectId o = 0; o < object_home.size(); ++o) {
    b.set_object_home(o, object_home[o]);
  }
  const Instance expected = b.build();
  StreamingRuntime rt(g, m, std::move(object_home), opts);
  for (const ArrivingTxn& t : stream) rt.ingest(t);
  test::expect_same_instance(rt.materialize(), expected);  // mid-stream
  rt.drain();
  test::expect_same_instance(rt.materialize(), expected);
}

TEST(StreamingRuntime, MaterializeMatchesBuilder) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  {
    SCOPED_TRACE("bursty under AIMD");
    StreamingRuntimeOptions opts;
    opts.admission = {.policy = AdmissionPolicy::kAimd};
    ArrivalStreamOptions so = small_stream(150, 2.0);
    so.objects_per_txn = 3;
    auto src = make_arrival_source(ArrivalModel::kBursty, g.graph, so, 5);
    // The stream draws from objects 0..7, so 8..11 have no requesters.
    expect_materialize_matches_builder(
        g.graph, m, StreamingRuntime::spread_homes(g.graph, 12),
        collect(*src), opts);
  }
  {
    // Two homes for every transaction, objects given in descending order.
    SCOPED_TRACE("shared homes");
    Rng rng(13);
    std::vector<ArrivingTxn> stream;
    Time arrival = 0;
    for (std::size_t i = 0; i < 90; ++i) {
      ArrivingTxn in;
      in.arrival = arrival;
      in.home = static_cast<NodeId>(rng.uniform(0, 1));
      for (std::size_t o : rng.sample_indices(6, 1 + i % 3)) {
        in.objects.push_back(static_cast<ObjectId>(o));
      }
      std::sort(in.objects.rbegin(), in.objects.rend());
      stream.push_back(std::move(in));
      arrival += rng.uniform(0, 2);
    }
    expect_materialize_matches_builder(g.graph, m, std::vector<NodeId>(6, 3),
                                       stream);
  }
}

// The builder-built batch of a stream's first `n` arrivals (shared homes).
Instance builder_prefix(const Graph& g, const std::vector<NodeId>& object_home,
                        const std::vector<ArrivingTxn>& stream, std::size_t n) {
  InstanceBuilder b(g, object_home.size());
  b.allow_shared_homes();
  for (std::size_t i = 0; i < n; ++i) {
    b.add_transaction(stream[i].home, stream[i].objects);
  }
  for (ObjectId o = 0; o < object_home.size(); ++o) {
    b.set_object_home(o, object_home[o]);
  }
  return b.build();
}

TEST(StreamingRuntime, MaterializeSharesTheTranscript) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  StreamingRuntime rt(g.graph, m, StreamingRuntime::spread_homes(g.graph, 8));
  auto src = make_arrival_source(ArrivalModel::kPoisson, g.graph,
                                 small_stream(60, 1.5), 2);
  rt.ingest_all(*src);
  const Instance a = rt.materialize();
  const Instance b = rt.materialize();
  ASSERT_EQ(a.num_transactions(), 60u);
  EXPECT_EQ(a.objects(0).data(), b.objects(0).data());
  rt.drain();  // drain() schedules but appends nothing
  EXPECT_EQ(rt.materialize().objects(0).data(), a.objects(0).data());
}

// An instance materialized mid-stream is a snapshot: later ingests copy the
// transcript before appending (enough of them to reallocate every array),
// so its spans stay valid and its contents stay the prefix it was taken
// at. Run under ASan/UBSan in CI.
TEST(StreamingRuntime, MaterializedInstanceSurvivesLaterIngests) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  const std::vector<NodeId> homes = StreamingRuntime::spread_homes(g.graph, 8);
  StreamingRuntimeOptions opts;
  opts.admission = {.policy = AdmissionPolicy::kAimd};
  auto src = make_arrival_source(ArrivalModel::kBursty, g.graph,
                                 small_stream(600, 2.0), 9);
  const std::vector<ArrivingTxn> stream = collect(*src);
  StreamingRuntime rt(g.graph, m, homes, opts);
  constexpr std::size_t kPrefix = 40;
  for (std::size_t i = 0; i < kPrefix; ++i) rt.ingest(stream[i]);
  const Instance early = rt.materialize();
  const ObjectId* early_ids = early.objects(0).data();
  const Instance expected = builder_prefix(g.graph, homes, stream, kPrefix);

  for (std::size_t i = kPrefix; i < stream.size(); ++i) rt.ingest(stream[i]);
  EXPECT_EQ(early.objects(0).data(), early_ids);
  test::expect_same_instance(early, expected);
  const Instance late = rt.materialize();
  EXPECT_NE(late.objects(0).data(), early_ids);  // the copy, not the snapshot
  test::expect_same_instance(
      late, builder_prefix(g.graph, homes, stream, stream.size()));

  rt.drain();
  EXPECT_EQ(early.objects(0).data(), early_ids);
  test::expect_same_instance(early, expected);
  EXPECT_TRUE(validate_online(rt.materialize(), m, rt.arrivals(),
                              rt.schedule())
                  .ok);
}

// The same snapshot guarantee where the transcript lives in memory
// mappings (util/mapped_array.hpp): at 40000 transactions every transcript
// array is past the 128 KiB floor, and by 120000 each has grown in place
// (mremap) at least once more: the copied table from its exact size, the
// arrival and commit arrays past their 65536 capacity.
TEST(StreamingRuntime, MaterializedInstanceSurvivesMappedGrowth) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  const std::vector<NodeId> homes = StreamingRuntime::spread_homes(g.graph, 8);
  auto src = make_arrival_source(ArrivalModel::kPoisson, g.graph,
                                 small_stream(120000, 2.0), 5);
  const std::vector<ArrivingTxn> stream = collect(*src);
  StreamingRuntime rt(g.graph, m, homes);
  constexpr std::size_t kPrefix = 40000;
  static_assert(kPrefix * sizeof(NodeId) > kMappedArrayFloor);
  for (std::size_t i = 0; i < kPrefix; ++i) rt.ingest(stream[i]);
  const Instance early = rt.materialize();
  const ObjectId* early_ids = early.objects(0).data();
  const std::vector<Time> early_arrivals(rt.arrivals().begin(),
                                         rt.arrivals().end());

  for (std::size_t i = kPrefix; i < stream.size(); ++i) rt.ingest(stream[i]);
  rt.drain();
  EXPECT_EQ(early.objects(0).data(), early_ids);
  test::expect_same_instance(early,
                             builder_prefix(g.graph, homes, stream, kPrefix));
  const Instance late = rt.materialize();
  test::expect_same_instance(
      late, builder_prefix(g.graph, homes, stream, stream.size()));
  ASSERT_EQ(rt.arrivals().size(), stream.size());
  EXPECT_TRUE(std::equal(early_arrivals.begin(), early_arrivals.end(),
                         rt.arrivals().begin()));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(rt.arrivals()[i], stream[i].arrival);
  }
  const ValidationResult vr =
      validate_online(late, m, rt.arrivals(), rt.schedule());
  EXPECT_TRUE(vr.ok) << vr.summary();
}

TEST(StreamingRuntime, DeterministicAcrossRuns) {
  const Clique c(16);
  const DenseMetric m(c.graph);
  StreamingRuntimeOptions opts;
  const StreamingRuntime a =
      run_stream(c.graph, m, ArrivalModel::kBursty, 2.0, 70, opts);
  const StreamingRuntime b =
      run_stream(c.graph, m, ArrivalModel::kBursty, 2.0, 70, opts);
  EXPECT_EQ(a.schedule().commit_time, b.schedule().commit_time);
  EXPECT_EQ(a.stats().makespan, b.stats().makespan);
  EXPECT_EQ(a.stats().peak_backlog, b.stats().peak_backlog);
}

TEST(StreamingRuntime, BacklogBoundedBelowMeasuredCapacity) {
  // Measure windowed service capacity by overloading (rate well above what
  // the scheduler sustains, spread across many windows so the measurement
  // includes per-window transition overhead), then rerun at 0.8x that
  // rate. Note the window size matters: small windows pay the object
  // transition on tiny batches, so capacity is measured at the same window
  // the loaded runs use.
  const Grid g(6);
  const DenseMetric m(g.graph);
  StreamingRuntimeOptions opts;
  opts.window = 64;
  const std::size_t n = 400;
  const StreamingRuntime sat =
      run_stream(g.graph, m, ArrivalModel::kPoisson, 2.0, n, opts);
  const double mu = sat.stats().throughput;
  ASSERT_GT(mu, 0.0);

  for (double factor : {0.5, 0.8}) {
    const StreamingRuntime loaded =
        run_stream(g.graph, m, ArrivalModel::kPoisson, factor * mu, n, opts);
    EXPECT_EQ(loaded.stats().committed, n);
    EXPECT_LT(loaded.stats().peak_backlog, n / 2);

    // The real boundedness statement: doubling the stream length leaves
    // the peak backlog essentially unchanged — the queue reaches steady
    // state instead of growing with the stream.
    const StreamingRuntime twice =
        run_stream(g.graph, m, ArrivalModel::kPoisson, factor * mu, 2 * n,
                   opts);
    EXPECT_EQ(twice.stats().committed, 2 * n);
    EXPECT_LT(static_cast<double>(twice.stats().peak_backlog),
              1.5 * static_cast<double>(loaded.stats().peak_backlog) + 16.0)
        << "factor=" << factor << " peak(n)=" << loaded.stats().peak_backlog
        << " peak(2n)=" << twice.stats().peak_backlog;
  }
}

TEST(StreamingRuntime, BackpressureDefersAndEventuallyDrains) {
  const Grid g(5);
  const DenseMetric m(g.graph);
  StreamingRuntimeOptions opts;
  opts.admission.max_live = 4;
  opts.replay_check = true;
  const StreamingRuntime rt =
      run_stream(g.graph, m, ArrivalModel::kBursty, 4.0, 60, opts);
  EXPECT_GT(rt.stats().deferrals, 0u);
  EXPECT_EQ(rt.stats().committed, 60u);
  const Instance inst = rt.materialize();
  const auto vr = validate_online(inst, m, rt.arrivals(), rt.schedule());
  EXPECT_TRUE(vr.ok) << vr.summary();
}

TEST(StreamingRuntime, RejectsOutOfOrderAndLateIngest) {
  const Grid g(4);
  const DenseMetric m(g.graph);
  StreamingRuntime rt(g.graph, m, StreamingRuntime::spread_homes(g.graph, 4));
  rt.ingest({.arrival = 10, .home = 1, .objects = {0}});
  EXPECT_THROW(rt.ingest({.arrival = 5, .home = 2, .objects = {1}}), Error);
  rt.drain();
  EXPECT_THROW(rt.ingest({.arrival = 20, .home = 2, .objects = {1}}), Error);
}

// Malformed rows are rejected before any window flushes, and a rejected
// ingest leaves the transcript as it was.
TEST(StreamingRuntime, RejectsMalformedRowsUnchanged) {
  const Grid g(4);
  const DenseMetric m(g.graph);
  StreamingRuntime rt(g.graph, m, StreamingRuntime::spread_homes(g.graph, 4));
  EXPECT_EQ(rt.ingest({.arrival = 0, .home = 1, .objects = {2, 0}}), 0u);
  const std::vector<ArrivingTxn> bad = {
      {.arrival = 40, .home = 16, .objects = {1}},      // home
      {.arrival = 40, .home = 2, .objects = {3, 1, 3}},  // duplicate
      {.arrival = 40, .home = 2, .objects = {1, 4}}};    // object id
  for (const ArrivingTxn& t : bad) {
    EXPECT_THROW(rt.ingest(t), Error);
    EXPECT_EQ(rt.stats().arrived, 1u);
    EXPECT_EQ(rt.stats().windows, 0u);  // the window at step 16 stays open
  }
  EXPECT_EQ(rt.ingest({.arrival = 1, .home = 1, .objects = {3}}), 1u);
  const Instance inst = rt.materialize();
  ASSERT_EQ(inst.num_transactions(), 2u);
  EXPECT_EQ(test::to_vector(inst.objects(0)), (std::vector<ObjectId>{0, 2}));
  EXPECT_EQ(test::to_vector(inst.objects(1)), (std::vector<ObjectId>{3}));
}

TEST(StreamingRuntime, EmptyStreamDrainsClean) {
  const Grid g(4);
  const DenseMetric m(g.graph);
  StreamingRuntime rt(g.graph, m, StreamingRuntime::spread_homes(g.graph, 4));
  const StreamStats& st = rt.drain();
  EXPECT_EQ(st.arrived, 0u);
  EXPECT_EQ(st.makespan, 0);
  EXPECT_TRUE(rt.verify_by_replay());
}

TEST(SharedHomes, BuilderAcceptsWhenOptedIn) {
  const Grid g(4);
  InstanceBuilder strict(g.graph, 2);
  strict.add_transaction(0, {0});
  EXPECT_THROW(strict.add_transaction(0, {1}), Error);

  InstanceBuilder shared(g.graph, 2);
  shared.allow_shared_homes();
  shared.add_transaction(0, {0});
  shared.add_transaction(0, {1});
  const Instance inst = shared.build();
  EXPECT_EQ(inst.num_transactions(), 2u);
  EXPECT_EQ(inst.txn_at(0), 0u);  // first added wins the node slot
}

}  // namespace
}  // namespace dtm
