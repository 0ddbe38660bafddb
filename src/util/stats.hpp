// Small descriptive-statistics accumulator used by benches and tests to
// summarize repeated randomized runs (mean/min/max/stddev/percentiles).
#pragma once

#include <cstddef>
#include <vector>

namespace dtm {

/// Linear-interpolated percentile of an ascending-sorted sample vector,
/// p in [0, 100]: rank = p/100 * (n-1), interpolating between the
/// surrounding samples. Shared by Stats::percentile and the trace
/// analyzer's latency block, which keep every sample; the metrics
/// registry's histograms and timers use nearest-rank bucket lower bounds
/// instead (HistogramSnapshot::percentile). Returns 0 on an empty vector.
double percentile_of_sorted(const std::vector<double>& sorted, double p);

/// Online accumulator plus exact percentiles (keeps all samples; our sweeps
/// are at most a few thousand samples each).
class Stats {
 public:
  void add(double x);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  /// Sample standard deviation (n-1 denominator); 0 when count < 2.
  double stddev() const;
  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;  // cache for percentile queries
  mutable bool sorted_valid_ = false;
};

/// Chernoff-bound helpers mirroring Lemma 1 of the paper. These are used by
/// tests to check that empirical tail frequencies of the randomized
/// schedulers stay below the analytic bounds.
namespace chernoff {

/// Pr(X >= (1+delta) mu) <= exp(-delta^2 mu / 3), for 0 < delta < 1.
double upper_tail_bound(double mu, double delta);

/// Pr(X <= (1-delta) mu) <= exp(-delta^2 mu / 2), for 0 < delta < 1.
double lower_tail_bound(double mu, double delta);

}  // namespace chernoff

}  // namespace dtm
