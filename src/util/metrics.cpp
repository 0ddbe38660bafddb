#include "util/metrics.hpp"

#include <cmath>
#include <limits>
#include <ostream>

#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/provenance.hpp"

namespace dtm {

std::uint64_t HistogramSnapshot::percentile(double p) const {
  DTM_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]");
  if (count == 0) return 0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (const auto& [idx, c] : buckets) {
    seen += c;
    if (seen >= rank) return hdr::bucket_lower(idx);
  }
  DTM_ASSERT_MSG(false, "histogram bucket counts disagree with total");
  return 0;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0, b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b == other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a == buckets.size() ||
               other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

MetricHistogram::MetricHistogram(const std::atomic<bool>* enabled)
    : buckets_(new std::atomic<std::uint64_t>[hdr::kNumBuckets]),
      min_(std::numeric_limits<std::uint64_t>::max()),
      enabled_(enabled) {
  for (std::uint32_t i = 0; i < hdr::kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void MetricHistogram::reset() {
  for (std::uint32_t i = 0; i < hdr::kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::uint64_t>::max(),
             std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot MetricHistogram::snapshot() const {
  HistogramSnapshot snap;
  for (std::uint32_t i = 0; i < hdr::kNumBuckets; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) {
      snap.buckets.emplace_back(i, c);
      snap.count += c;
    }
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  const std::uint64_t mn = min_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : mn;
  return snap;
}

TimerStats TimerStats::of(const HistogramSnapshot& h) {
  TimerStats ts;
  ts.count = h.count;
  ts.total_ns = static_cast<double>(h.sum);
  ts.mean_ns = h.mean();
  ts.min_ns = static_cast<double>(h.min);
  ts.max_ns = static_cast<double>(h.max);
  ts.p50_ns = static_cast<double>(h.percentile(50));
  ts.p90_ns = static_cast<double>(h.percentile(90));
  ts.p95_ns = static_cast<double>(h.percentile(95));
  ts.p99_ns = static_cast<double>(h.percentile(99));
  return ts;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  return reg;
}

template <class T>
T& MetricsRegistry::find_or_add(Named<T>& map, const std::string& name) {
  std::lock_guard lock(mu_);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(name, std::unique_ptr<T>(new T(&enabled_))).first;
  }
  return *it->second;
}

MetricCounter& MetricsRegistry::counter(const std::string& name) {
  return find_or_add(counters_, name);
}

MetricGauge& MetricsRegistry::gauge(const std::string& name) {
  return find_or_add(gauges_, name);
}

MetricHistogram& MetricsRegistry::histogram(const std::string& name) {
  return find_or_add(histograms_, name);
}

MetricHistogram& MetricsRegistry::timer(const std::string& name) {
  return find_or_add(timers_, name);
}

void MetricsRegistry::sample(
    std::string_view series,
    std::initializer_list<std::pair<const char*, std::int64_t>> fields) {
  if (!sink_open_.load(std::memory_order_relaxed) || !enabled()) return;
  JsonWriter w;
  w.begin_object().key("series").value(std::string(series));
  for (const auto& [k, v] : fields) w.key(k).value(v);
  w.end_object();
  std::lock_guard lock(mu_);
  if (sink_ != nullptr) *sink_ << w.str() << '\n';
}

void MetricsRegistry::set_sink(std::ostream* out) {
  std::lock_guard lock(mu_);
  DTM_REQUIRE(out == nullptr || sink_ == nullptr,
              "a metrics sink is already open on this registry");
  sink_ = out;
  sink_open_.store(out != nullptr, std::memory_order_relaxed);
}

MetricsSink::MetricsSink(std::ostream& out, MetricsRegistry& reg)
    : out_(&out), reg_(&reg) {
  JsonWriter w;
  w.begin_object().key("schema").value("dtm-metrics-v1");
  w.key("provenance").begin_object();
  for (const auto& [k, v] : build_provenance()) w.key(k).value(v);
  w.end_object().end_object();
  out << w.str() << '\n';
  reg.set_sink(out_);
}

MetricsSink::~MetricsSink() {
  if (reg_ != nullptr) reg_->set_sink(nullptr);
}

void MetricsSink::finish() {
  DTM_REQUIRE(reg_ != nullptr, "metrics sink already finished");
  reg_->set_sink(nullptr);
  const MetricsSnapshot snap = reg_->snapshot();
  reg_ = nullptr;
  for (const auto& [name, v] : snap.gauges) {
    JsonWriter w;
    w.begin_object().key("gauge").value(name).key("value").value(v);
    w.end_object();
    *out_ << w.str() << '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    JsonWriter w;
    w.begin_object().key("hist").value(name);
    w.key("count").value(h.count).key("sum").value(h.sum);
    w.key("min").value(h.min).key("max").value(h.max);
    w.key("buckets").begin_array();
    for (const auto& [idx, c] : h.buckets) {
      w.begin_array()
          .value(static_cast<std::uint64_t>(idx))
          .value(c)
          .end_array();
    }
    w.end_array().end_object();
    *out_ << w.str() << '\n';
  }
  out_->flush();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs = h->snapshot();
    if (hs.count != 0) snap.histograms[name] = std::move(hs);
  }
  for (const auto& [name, h] : timers_) {
    const HistogramSnapshot hs = h->snapshot();
    if (hs.count != 0) snap.timers[name] = TimerStats::of(hs);
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) {
    (void)name;
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    (void)name;
    g->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    (void)name;
    h->reset();
  }
  for (auto& [name, h] : timers_) {
    (void)name;
    h->reset();
  }
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) {
    if (v > 0) w.key(name).value(v);
  }
  w.end_object();
  w.key("timers").begin_object();
  for (const auto& [name, ts] : timers) {
    w.key(name).begin_object();
    w.key("count").value(ts.count);
    w.key("total_ns").value(ts.total_ns);
    w.key("mean_ns").value(ts.mean_ns);
    w.key("min_ns").value(ts.min_ns);
    w.key("max_ns").value(ts.max_ns);
    w.key("p50_ns").value(ts.p50_ns);
    w.key("p90_ns").value(ts.p90_ns);
    w.key("p95_ns").value(ts.p95_ns);
    w.key("p99_ns").value(ts.p99_ns);
    w.end_object();
  }
  w.end_object();
  if (gauges.empty() && histograms.empty()) return;
  w.key("metrics").begin_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : gauges) w.key(name).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.key("p50").value(h.percentile(50));
    w.key("p95").value(h.percentile(95));
    w.key("p99").value(h.percentile(99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  write_json(w);
  w.end_object();
  return w.str();
}

}  // namespace dtm
