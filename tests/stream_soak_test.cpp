// Bounded-state soak: the streaming runtime's conflict state — the live
// requester lists of its conflict tally — is sized by the live work, not
// by the stream length.
//
// Below capacity (Poisson at 0.8x the measured service rate, and bursty
// arrivals under AIMD admission) the backlog reaches a steady state, so
// doubling the stream must leave the lists' capacity essentially
// unchanged while the counted conflict edges double. Above capacity with a
// fixed quota the backlog grows linearly; the lists may then grow no
// faster than the peak backlog.
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
  std::size_t requester_bytes = 0;
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
  r.requester_bytes = rt.conflict_graph().requester_bytes();
  return r;
}

double ratio(std::size_t a, std::size_t b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

/// At 2n the live requester lists stay within 10% of their capacity at n,
/// while the conflict edges counted over the stream roughly double. Each
/// list keeps the capacity of its longest live run, so it still creeps up
/// with the extremes of the arrival process; the streams are long enough
/// that those have settled.
void expect_flat(const SoakResult& at_n, const SoakResult& at_2n,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_GT(at_n.requester_bytes, 0u);
  EXPECT_LE(ratio(at_2n.requester_bytes, at_n.requester_bytes), 1.1)
      << at_n.requester_bytes << " -> " << at_2n.requester_bytes;
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
  EXPECT_LE(ratio(b.requester_bytes, a.requester_bytes), 1.1 * backlog)
      << "requesters " << a.requester_bytes << " -> " << b.requester_bytes
      << ", backlog " << a.stats.peak_backlog << " -> "
      << b.stats.peak_backlog;
}

}  // namespace
}  // namespace dtm
