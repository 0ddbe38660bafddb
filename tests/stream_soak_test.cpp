// Bounded-state soak: the streaming runtime's live state — the retire FIFO
// of commit steps not yet passed — is sized by the live work, not by the
// stream length.
//
// The FIFO's length is sampled after every ingest and averaged: a deque
// frees its blocks as it pops, so that is its mean footprint. (Its peak is
// one extreme of the arrival process; without admission bounds it equals
// the peak backlog, which still creeps up as the stream doubles.)
//
// Below capacity (Poisson at 0.8x the measured service rate, and bursty
// arrivals under AIMD admission) the backlog reaches a steady state, so
// doubling the stream must leave the FIFO's mean length essentially
// unchanged while the window graphs' conflict edges double. Above capacity
// with a fixed quota the backlog grows linearly; the FIFO may then grow no
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
  /// The retire FIFO's length, averaged over samples after every ingest.
  double mean_pending = 0;
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
  std::size_t pending_sum = 0;
  ArrivingTxn t;
  while (src->next(t)) {
    rt.ingest(t);
    pending_sum += rt.pending_commits();
  }
  SoakResult r;
  r.stats = rt.drain();
  r.mean_pending = static_cast<double>(pending_sum) /
                   static_cast<double>(r.stats.arrived);
  return r;
}

double ratio(double a, double b) { return a / b; }

/// At 2n the retire FIFO's mean length stays within 10% of its mean at n,
/// while the conflict edges counted over the stream roughly double. The
/// streams are long enough that the warm-up from an empty runtime has
/// settled.
void expect_flat(const SoakResult& at_n, const SoakResult& at_2n,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_GT(at_n.mean_pending, 0.0);
  EXPECT_LE(ratio(at_2n.mean_pending, at_n.mean_pending), 1.1)
      << at_n.mean_pending << " -> " << at_2n.mean_pending;
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
  opts.admission.max_live = 32;
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
  EXPECT_LE(ratio(b.mean_pending, a.mean_pending), 1.1 * backlog)
      << "pending commits " << a.mean_pending << " -> " << b.mean_pending
      << ", backlog " << a.stats.peak_backlog << " -> "
      << b.stats.peak_backlog;
}

}  // namespace
}  // namespace dtm
