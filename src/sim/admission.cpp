#include "sim/admission.hpp"

#include <algorithm>

#include "util/metrics.hpp"

namespace dtm {

namespace {

/// Mirrors the live quota into the "admission.quota" gauge so AIMD
/// oscillation shows up in metrics snapshots. One relaxed load when metrics
/// are off (the gauge handle is resolved once per process).
void publish_quota(std::size_t quota) {
  static MetricGauge& g = metrics::gauge("admission.quota");
  g.set(static_cast<std::int64_t>(quota));
}

class FixedAdmission final : public AdmissionController {
 public:
  explicit FixedAdmission(std::size_t max_live) : max_live_(max_live) {
    publish_quota(max_live_);
  }
  std::string name() const override { return "fixed"; }
  std::size_t quota() const override { return max_live_; }
  void on_window(const AdmissionFeedback&) override {}

 private:
  std::size_t max_live_;
};

class AimdAdmission final : public AdmissionController {
 public:
  explicit AimdAdmission(const AdmissionConfig& cfg) : cfg_(cfg) {
    DTM_REQUIRE(cfg.min_live >= 1, "aimd admission: min_live must be >= 1");
    DTM_REQUIRE(cfg.increase >= 1, "aimd admission: increase must be >= 1");
    DTM_REQUIRE(cfg.decrease > 0.0 && cfg.decrease < 1.0,
                "aimd admission: decrease factor must be in (0, 1)");
    quota_ = cfg.max_live != 0 ? cfg.max_live : cfg.min_live;
    quota_ = std::max(quota_, cfg.min_live);
    if (cfg.cap != 0) quota_ = std::min(quota_, cfg.cap);
    publish_quota(quota_);
  }

  std::string name() const override { return "aimd"; }
  std::size_t quota() const override { return quota_; }
  std::size_t raises() const override { return raises_; }
  std::size_t cuts() const override { return cuts_; }

  void on_window(const AdmissionFeedback& fb) override {
    const bool backlog_growing = fb.backlog > prev_backlog_;
    if (fb.waiting > 0 && backlog_growing) {
      // Work is deferred and the backlog still grew: the quota is the
      // bottleneck. Open up additively (a raise parked at the cap is not
      // counted, mirroring the no-op-cut rule below).
      std::size_t next = quota_ + cfg_.increase;
      if (cfg_.cap != 0) next = std::min(next, cfg_.cap);
      if (next > quota_) {
        quota_ = next;
        ++raises_;
        metrics::count("admission.raises");
        publish_quota(quota_);
      }
    } else if (fb.waiting == 0 && fb.backlog <= cfg_.low_watermark) {
      // Caught up: shrink toward the floor so windows color small live
      // batches again.
      const auto cut = static_cast<std::size_t>(
          static_cast<double>(quota_) * cfg_.decrease);
      const std::size_t next = std::max(cfg_.min_live, cut);
      if (next < quota_) {
        quota_ = next;
        ++cuts_;
        metrics::count("admission.cuts");
        publish_quota(quota_);
      }
    }
    prev_backlog_ = fb.backlog;
  }

 private:
  AdmissionConfig cfg_;
  std::size_t quota_;
  std::size_t prev_backlog_ = 0;
  std::size_t raises_ = 0;
  std::size_t cuts_ = 0;
};

}  // namespace

std::unique_ptr<AdmissionController> make_admission_controller(
    const AdmissionConfig& cfg) {
  switch (cfg.policy) {
    case AdmissionPolicy::kFixed:
      return std::make_unique<FixedAdmission>(cfg.max_live);
    case AdmissionPolicy::kAimd:
      return std::make_unique<AimdAdmission>(cfg);
  }
  DTM_ASSERT_MSG(false, "unknown admission policy");
  return nullptr;
}

AdmissionPolicy parse_admission_policy(std::string_view name) {
  if (name == "fixed") return AdmissionPolicy::kFixed;
  if (name == "adaptive" || name == "aimd") return AdmissionPolicy::kAimd;
  DTM_REQUIRE(false, "unknown admission policy '"
                         << name << "' (expected fixed|adaptive)");
  return AdmissionPolicy::kFixed;
}

const char* admission_policy_name(AdmissionPolicy policy) {
  return policy == AdmissionPolicy::kFixed ? "fixed" : "adaptive";
}

}  // namespace dtm
