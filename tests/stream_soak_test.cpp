// Bounded-state soak: the streaming runtime's conflict-graph state is sized
// by the unplaced work, not by the stream length.
//
// Below capacity (Poisson at 0.8x the measured service rate, and bursty
// arrivals under AIMD admission) the backlog reaches a steady state, so
// doubling the stream must leave the arc pool's high-water mark and the
// chain ring's size essentially unchanged while the counted conflict edges
// double. Above capacity with a fixed quota the backlog grows linearly;
// the pool and the ring may then grow no faster than the peak backlog.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/generators.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/grid.hpp"
#include "sim/runtime.hpp"

namespace dtm {
namespace {

constexpr std::size_t kObjects = 64;
constexpr std::size_t kTxns = 10000;

struct SoakResult {
  StreamStats stats;
  std::size_t pool_bytes = 0;
  std::size_t ring_slots = 0;
};

SoakResult soak(const Graph& g, const Metric& m, ArrivalModel model,
                double rate, std::size_t n, StreamingRuntimeOptions opts) {
  StreamingRuntime rt(g, m, StreamingRuntime::spread_homes(g, kObjects),
                      opts);
  ArrivalStreamOptions so;
  so.num_txns = n;
  so.num_objects = kObjects;
  so.objects_per_txn = 2;
  so.rate = rate;
  so.burst_size = 16;
  auto src = make_arrival_source(model, g, so, 17);
  rt.ingest_all(*src);
  SoakResult r;
  r.stats = rt.drain();
  r.pool_bytes = rt.conflict_graph().arc_pool_bytes();
  r.ring_slots = rt.conflict_graph().ring_slots();
  return r;
}

double ratio(std::size_t a, std::size_t b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

/// At 2n the pool and the ring stay within 10% of their size at n, while
/// the conflict edges counted over the stream roughly double. The pool's
/// high-water mark is set by the most conflicted window, so it still creeps
/// up with the extremes of the arrival process; the streams are long
/// enough that those have settled.
void expect_flat(const SoakResult& at_n, const SoakResult& at_2n,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_GT(at_n.pool_bytes, 0u);
  EXPECT_LE(ratio(at_2n.pool_bytes, at_n.pool_bytes), 1.1)
      << at_n.pool_bytes << " -> " << at_2n.pool_bytes;
  EXPECT_LE(ratio(at_2n.ring_slots, at_n.ring_slots), 1.1)
      << at_n.ring_slots << " -> " << at_2n.ring_slots;
  const double edges = ratio(at_2n.stats.dep_edges, at_n.stats.dep_edges);
  EXPECT_GT(edges, 1.8) << at_n.stats.dep_edges << " -> "
                        << at_2n.stats.dep_edges;
  EXPECT_LT(edges, 2.2) << at_n.stats.dep_edges << " -> "
                        << at_2n.stats.dep_edges;
}

/// The windowed runtime serves faster as its batches grow, so the commit
/// rate read under a heavy overload overstates what it sustains at lower
/// load. Its capacity is the fixed point rate = throughput(rate): start
/// from an overload and feed each run's throughput back as the next
/// offered rate until it stops falling by more than 5%.
double measured_capacity(const Graph& g, const Metric& m, ArrivalModel model,
                         StreamingRuntimeOptions opts) {
  double rate = 2.0;
  for (int i = 0; i < 10; ++i) {
    const double mu = soak(g, m, model, rate, kTxns, opts).stats.throughput;
    if (mu >= 0.95 * rate) return mu;
    rate = mu;
  }
  return rate;
}

TEST(StreamSoak, PoissonBelowCapacityKeepsStateFlat) {
  const Grid grid(8);
  const DenseMetric m(grid.graph);
  StreamingRuntimeOptions opts;
  opts.window = 32;
  const double mu =
      measured_capacity(grid.graph, m, ArrivalModel::kPoisson, opts);
  ASSERT_GT(mu, 0.0);
  const SoakResult a =
      soak(grid.graph, m, ArrivalModel::kPoisson, 0.8 * mu, kTxns, opts);
  const SoakResult b =
      soak(grid.graph, m, ArrivalModel::kPoisson, 0.8 * mu, 2 * kTxns, opts);
  EXPECT_EQ(b.stats.committed, 2 * kTxns);
  expect_flat(a, b, "poisson at 0.8x capacity");
}

TEST(StreamSoak, BurstyUnderAimdKeepsStateFlat) {
  const Grid grid(8);
  const DenseMetric m(grid.graph);
  StreamingRuntimeOptions opts;
  opts.window = 32;
  opts.admission = {.policy = AdmissionPolicy::kAimd, .max_live = 16};
  const double mu =
      measured_capacity(grid.graph, m, ArrivalModel::kBursty, opts);
  ASSERT_GT(mu, 0.0);
  const SoakResult a =
      soak(grid.graph, m, ArrivalModel::kBursty, 0.8 * mu, kTxns, opts);
  const SoakResult b =
      soak(grid.graph, m, ArrivalModel::kBursty, 0.8 * mu, 2 * kTxns, opts);
  EXPECT_EQ(b.stats.committed, 2 * kTxns);
  expect_flat(a, b, "bursty under AIMD at 0.8x capacity");
}

TEST(StreamSoak, AboveCapacityStateGrowsNoFasterThanBacklog) {
  const Grid grid(8);
  const DenseMetric m(grid.graph);
  StreamingRuntimeOptions opts;
  opts.window = 32;
  opts.max_live_admitted = 32;
  const double mu =
      measured_capacity(grid.graph, m, ArrivalModel::kPoisson, opts);
  ASSERT_GT(mu, 0.0);
  const SoakResult a =
      soak(grid.graph, m, ArrivalModel::kPoisson, 2.0 * mu, kTxns, opts);
  const SoakResult b =
      soak(grid.graph, m, ArrivalModel::kPoisson, 2.0 * mu, 2 * kTxns, opts);
  // Overloaded: the backlog grows with the stream.
  const double backlog = ratio(b.stats.peak_backlog, a.stats.peak_backlog);
  EXPECT_GT(backlog, 1.5);
  EXPECT_LE(ratio(b.pool_bytes, a.pool_bytes), 1.1 * backlog)
      << "pool " << a.pool_bytes << " -> " << b.pool_bytes << ", backlog "
      << a.stats.peak_backlog << " -> " << b.stats.peak_backlog;
  EXPECT_LE(ratio(b.ring_slots, a.ring_slots), 1.1 * backlog)
      << "ring " << a.ring_slots << " -> " << b.ring_slots;
}

}  // namespace
}  // namespace dtm
