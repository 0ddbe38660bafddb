// E22 — streaming runtime (ROADMAP item 2 / open question #1): sustained
// throughput and backlog under continual arrivals, window-batched
// scheduling vs the TL2-style optimistic baseline.
//
// Series:
//  * capacity  — per (topology, arrival model): service capacity mu of the
//    window-batched StreamingRuntime, measured by overloading the runtime
//    (arrivals well above what it sustains, spread across many windows so
//    the measurement includes per-window object-transition overhead).
//  * backlog   — runs at 0.5x and 0.8x that measured capacity, at stream
//    lengths n and 2n. Bounded backlog means doubling the stream leaves
//    the peak backlog essentially unchanged (steady state) instead of
//    doubling it (divergence); the bench REQUIREs this at both factors, so
//    the CI gate is semantic, not just cell-identity.
//  * throughput — sustained txns/step at 0.8x capacity: scheduler vs the
//    optimistic executor on the identical stream (same arrivals, homes,
//    and read sets), plus the optimistic abort/wasted-work cost.
//
// Expected shape: the scheduler sustains higher throughput than the
// optimistic baseline on contended streams (hot-object especially, where
// validation aborts burn work) while keeping backlog flat below capacity.
//
// E23 — shard accounting + closed-loop admission (DESIGN.md §10), emitted
// as a second artifact behind --shard-json FILE:
//  * shard_identity — the same stream scheduled at shards 1/2/4/8: every
//    result cell is REQUIREd identical to the shards=1 row (the shard
//    split is accounting only and never perturbs the schedule; gated in
//    CI by cell comparison).
//  * shard_balance — per-shard load split (local/cross/fix-up transactions,
//    peak shard batch) of those runs.
//  * admission — fixed tight bound vs AIMD at 0.9x measured capacity: the
//    fixed bound defers work without bound while AIMD opens the quota and
//    keeps the backlog bounded, then cuts back once caught up.
//
// --smoke runs the reduced stream lengths; the recorded BENCH_stream.json
// baseline is the smoke artifact so CI can re-run and diff it cheaply.
#include "bench_common.hpp"

#include "core/online.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "sim/optimistic.hpp"
#include "sim/runtime.hpp"
#include "util/metrics.hpp"

namespace {

using namespace dtm;

constexpr std::size_t kObjects = 8;
constexpr std::size_t kObjectsPerTxn = 2;
constexpr Time kWindow = 64;
constexpr std::uint64_t kSeed = 5;

ArrivalStreamOptions stream_options(std::size_t n, double rate) {
  ArrivalStreamOptions opt;
  opt.num_txns = n;
  opt.num_objects = kObjects;
  opt.objects_per_txn = kObjectsPerTxn;
  opt.rate = rate;
  return opt;
}

StreamingRuntime run_stream_opts(const Graph& g, const Metric& m,
                                 ArrivalModel model, double rate,
                                 std::size_t n,
                                 const StreamingRuntimeOptions& opts) {
  StreamingRuntime rt(g, m, StreamingRuntime::spread_homes(g, kObjects),
                      opts);
  auto src = make_arrival_source(model, g, stream_options(n, rate), kSeed);
  rt.ingest_all(*src);
  rt.drain();
  const auto vr =
      validate_online(rt.materialize(), m, rt.arrivals(), rt.schedule());
  DTM_REQUIRE(vr.ok, "infeasible streaming schedule: " << vr.summary());
  return rt;
}

StreamingRuntime run_stream(const Graph& g, const Metric& m,
                            ArrivalModel model, double rate, std::size_t n) {
  StreamingRuntimeOptions opts;
  opts.window = kWindow;
  return run_stream_opts(g, m, model, rate, n, opts);
}

/// The identical stream as an offline instance + arrival vector, for the
/// optimistic executor (streams revisit nodes, hence shared homes).
std::pair<Instance, ArrivalTimes> materialize_stream(const Graph& g,
                                                     ArrivalModel model,
                                                     double rate,
                                                     std::size_t n) {
  InstanceBuilder b(g, kObjects);
  b.allow_shared_homes();
  ArrivalTimes arrival;
  auto src = make_arrival_source(model, g, stream_options(n, rate), kSeed);
  ArrivingTxn t;
  while (src->next(t)) {
    b.add_transaction(t.home, t.objects);
    arrival.push_back(t.arrival);
  }
  const std::vector<NodeId> homes =
      StreamingRuntime::spread_homes(g, kObjects);
  for (ObjectId o = 0; o < kObjects; ++o) b.set_object_home(o, homes[o]);
  return {b.build(), std::move(arrival)};
}

/// Measured capacity: the highest rate the runtime actually services. The
/// overload throughput alone overstates it — overloaded windows carry far
/// larger batches than steady state, and bigger batches amortize the
/// per-window object transition better — so iterate to the fixed point:
/// feed at the current estimate, and if the achieved throughput falls
/// short (service-limited, backlog building), the achieved value becomes
/// the new estimate. Converges once the runtime sustains the offered rate.
double measure_capacity(const Graph& g, const Metric& m, ArrivalModel model,
                        std::size_t n) {
  double mu = run_stream(g, m, model, 2.0, n).stats().throughput;
  for (int i = 0; i < 6; ++i) {
    const double achieved = run_stream(g, m, model, mu, n).stats().throughput;
    if (achieved >= 0.97 * mu) break;
    mu = achieved;
  }
  return mu;
}

const char* model_name(ArrivalModel model) {
  switch (model) {
    case ArrivalModel::kPoisson: return "poisson";
    case ArrivalModel::kBursty: return "bursty";
    case ArrivalModel::kHotObject: return "hot";
  }
  return "?";
}

void print_series(bool smoke) {
  benchutil::print_header(
      "E22 — streaming runtime (open question #1)",
      "window-batched incremental scheduling under continual arrivals: "
      "measured capacity, backlog boundedness at 0.5x/0.8x capacity, and "
      "sustained throughput vs the TL2-style optimistic baseline");

  const std::size_t n = smoke ? 200 : 500;
  const Grid grid(6);
  const DenseMetric grid_metric(grid.graph);
  const ClusterGraph cluster(4, 8, 16);
  const DenseMetric cluster_metric(cluster.graph);
  const std::tuple<const char*, const Graph&, const Metric&> topologies[] = {
      {"grid6", grid.graph, grid_metric},
      {"cluster4x8", cluster.graph, cluster_metric},
  };
  const ArrivalModel models[] = {ArrivalModel::kPoisson,
                                 ArrivalModel::kBursty,
                                 ArrivalModel::kHotObject};

  Table capacity({"graph", "arrivals", "window", "txns", "capacity"});
  Table backlog({"graph", "arrivals", "factor", "rate", "peak(n)",
                 "peak(2n)", "mean(2n)"});
  Table throughput({"graph", "arrivals", "executor", "rate", "committed",
                    "makespan", "throughput", "aborts", "wasted"});

  for (const auto& [gname, g, metric] : topologies) {
    for (ArrivalModel model : models) {
      const double mu = measure_capacity(g, metric, model, n);
      capacity.add_row(gname, model_name(model), kWindow, n, mu);

      for (double factor : {0.5, 0.8}) {
        const double rate = factor * mu;
        const StreamingRuntime one = run_stream(g, metric, model, rate, n);
        const StreamingRuntime two =
            run_stream(g, metric, model, rate, 2 * n);
        DTM_REQUIRE(one.stats().committed == n &&
                        two.stats().committed == 2 * n,
                    "stream did not fully commit");
        // Bounded backlog: steady state, not linear growth in the stream.
        const auto peak1 = static_cast<double>(one.stats().peak_backlog);
        const auto peak2 = static_cast<double>(two.stats().peak_backlog);
        DTM_REQUIRE(peak2 < 1.5 * peak1 + 16.0,
                    "backlog diverges at " << factor << "x capacity on "
                                           << gname << "/"
                                           << model_name(model) << ": peak "
                                           << peak1 << " -> " << peak2);
        backlog.add_row(gname, model_name(model), factor, rate,
                        one.stats().peak_backlog, two.stats().peak_backlog,
                        two.stats().mean_backlog);

        if (factor == 0.8) {
          throughput.add_row(gname, model_name(model), "stream-batch", rate,
                             two.stats().committed,
                             static_cast<double>(two.stats().makespan),
                             two.stats().throughput, 0, 0);
          const auto [inst, arrival] =
              materialize_stream(g, model, rate, 2 * n);
          OptimisticOptions oopts;
          oopts.seed = kSeed;
          const OptimisticResult r =
              run_optimistic(inst, metric, arrival, oopts);
          DTM_REQUIRE(r.ok, "optimistic baseline failed: " << r.error);
          throughput.add_row(gname, model_name(model), "tl2-optimistic",
                             rate, r.commits,
                             static_cast<double>(r.makespan), r.throughput,
                             r.aborts, static_cast<double>(r.wasted_steps));
        }
      }
    }
  }
  benchutil::emit_table("capacity", capacity);
  benchutil::emit_table("backlog", backlog);
  benchutil::emit_table("throughput", throughput);
}

// --- E23: shard accounting + closed-loop admission ----------------------

void print_shard_series(bool smoke) {
  benchutil::print_header(
      "E23 — shard accounting + closed-loop admission (DESIGN.md §10)",
      "shard-count invariance of the schedule, per-shard load split, and "
      "AIMD admission vs a fixed bound at 0.9x measured capacity");

  const ClusterGraph cluster(4, 8, 16);
  const DenseMetric cluster_metric(cluster.graph);
  // The artifact's counters start after the cluster fixture's APSP, as in
  // the recorded BENCH_stream_shard.json baseline.
  MetricsRegistry::global().reset();

  // Identity + balance: the E22 stream re-scheduled at every shard count.
  const std::size_t n = smoke ? 200 : 500;
  const Grid grid(6);
  const DenseMetric grid_metric(grid.graph);
  const std::tuple<const char*, const Graph&, const Metric&> topologies[] = {
      {"grid6", grid.graph, grid_metric},
      {"cluster4x8", cluster.graph, cluster_metric},
  };

  Table identity({"graph", "arrivals", "shards", "committed", "makespan",
                  "throughput", "deferrals", "peak_backlog"});
  Table balance({"graph", "arrivals", "shards", "scheme", "local", "cross",
                 "fixup", "peak_members"});
  for (const auto& [gname, g, metric] : topologies) {
    for (ArrivalModel model :
         {ArrivalModel::kPoisson, ArrivalModel::kHotObject}) {
      StreamStats ref;
      for (std::size_t shards :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        StreamingRuntimeOptions opts;
        opts.window = kWindow;
        opts.shards = shards;
        opts.admission.max_live = 64;  // backpressure active in every run
        const StreamingRuntime rt =
            run_stream_opts(g, metric, model, 1.0, n, opts);
        const StreamStats& st = rt.stats();
        if (shards == 1) {
          ref = st;
        } else {
          // The shard split is accounting: it never changes the schedule.
          DTM_REQUIRE(st.makespan == ref.makespan &&
                          st.committed == ref.committed &&
                          st.deferrals == ref.deferrals &&
                          st.peak_backlog == ref.peak_backlog &&
                          st.throughput == ref.throughput,
                      "shards=" << shards << " diverged from shards=1 on "
                                << gname << "/" << model_name(model));
        }
        identity.add_row(gname, model_name(model), shards, st.committed,
                         static_cast<double>(st.makespan), st.throughput,
                         st.deferrals, st.peak_backlog);
        const ShardLoadStats& sl = rt.shard_stats();
        balance.add_row(gname, model_name(model), shards, sl.scheme,
                        sl.local_txns, sl.cross_txns, sl.fixup_txns,
                        sl.peak_shard_members);
      }
    }
  }
  benchutil::emit_table("shard_identity", identity);
  benchutil::emit_table("shard_balance", balance);

  // Closed-loop admission at 0.9x measured capacity: a tight fixed bound
  // defers without bound (the backlog tracks the whole remaining stream),
  // AIMD opens the quota while behind and cuts back once caught up.
  Table admission({"graph", "arrivals", "policy", "rate", "committed",
                   "deferrals", "peak_backlog", "mean_backlog", "makespan",
                   "final_quota", "raises", "cuts"});
  {
    // Bursty arrivals (32 at once) are where a fixed bound hurts: a tight
    // bound admits 8 per window and parks the rest of every burst.
    const double mu =
        measure_capacity(cluster.graph, cluster_metric, ArrivalModel::kBursty,
                         n);
    const double rate = 0.9 * mu;
    StreamingRuntimeOptions fixed;
    fixed.window = kWindow;
    fixed.admission.max_live = 8;  // tight: well under one burst
    const StreamingRuntime frun = run_stream_opts(
        cluster.graph, cluster_metric, ArrivalModel::kBursty, rate, n, fixed);
    StreamingRuntimeOptions aimd;
    aimd.window = kWindow;
    aimd.admission.policy = AdmissionPolicy::kAimd;
    aimd.admission.min_live = 8;  // same starting bound as the fixed run
    aimd.admission.increase = 8;
    aimd.admission.decrease = 0.5;
    const StreamingRuntime arun = run_stream_opts(
        cluster.graph, cluster_metric, ArrivalModel::kBursty, rate, n, aimd);
    for (const StreamingRuntime* rt : {&frun, &arun}) {
      const StreamStats& st = rt->stats();
      admission.add_row("cluster4x8", "bursty",
                        rt->admission().name(), rate, st.committed,
                        st.deferrals, st.peak_backlog, st.mean_backlog,
                        static_cast<double>(st.makespan),
                        rt->admission().quota(), rt->admission().raises(),
                        rt->admission().cuts());
    }
    DTM_REQUIRE(arun.stats().committed == n,
                "adaptive admission failed to drain the stream");
    DTM_REQUIRE(arun.stats().peak_backlog < frun.stats().peak_backlog &&
                    arun.stats().deferrals < frun.stats().deferrals,
                "AIMD did not beat the tight fixed bound at 0.9x capacity: "
                    << "peak " << arun.stats().peak_backlog << " vs "
                    << frun.stats().peak_backlog << ", deferrals "
                    << arun.stats().deferrals << " vs "
                    << frun.stats().deferrals);
  }
  benchutil::emit_table("admission", admission);
}

// --- E24: admission policy by latency distribution ----------------------

/// Fixed-vs-AIMD admission restated in the units users feel: the
/// arrival->commit latency distribution at 0.9x measured capacity. E23
/// already shows the backlog/deferral win; here the same two runs are
/// compared by p50/p95/p99 of the per-transaction latency histograms the
/// MetricsRegistry records (nearest-rank bucket lower bounds, so every
/// cell is a deterministic integer). Goes into its own artifact
/// (--latency-json) with a committed CI-gated baseline.
void print_latency_series(bool smoke) {
  benchutil::print_header(
      "E24 — admission policy by arrival->commit latency (metrics layer)",
      "fixed tight bound vs AIMD on bursty arrivals at 0.9x measured "
      "capacity, compared by per-transaction latency percentiles");

  const std::size_t n = smoke ? 200 : 500;
  const ClusterGraph cluster(4, 8, 16);
  const DenseMetric cluster_metric(cluster.graph);
  MetricsRegistry& mreg = MetricsRegistry::global();

  const double mu = measure_capacity(cluster.graph, cluster_metric,
                                     ArrivalModel::kBursty, n);
  const double rate = 0.9 * mu;

  Table latency({"graph", "arrivals", "policy", "rate", "committed", "count",
                 "mean", "p50", "p95", "p99", "max"});
  StreamingRuntimeOptions fixed;
  fixed.window = kWindow;
  fixed.admission.max_live = 8;  // E23's tight bound: well under one burst
  StreamingRuntimeOptions aimd;
  aimd.window = kWindow;
  aimd.admission.policy = AdmissionPolicy::kAimd;
  aimd.admission.min_live = 8;
  aimd.admission.increase = 8;
  aimd.admission.decrease = 0.5;

  std::uint64_t fixed_p99 = 0, aimd_p99 = 0;
  const std::pair<const char*, const StreamingRuntimeOptions*> policies[] = {
      {"fixed", &fixed}, {"aimd", &aimd}};
  for (const auto& [policy, opts] : policies) {
    // One histogram set per measured run (capacity probes above and the
    // other policy's run must not bleed into the distribution). The reset
    // zeroes counters too, so the artifact's counters cover the last run.
    mreg.reset();
    const StreamingRuntime rt = run_stream_opts(
        cluster.graph, cluster_metric, ArrivalModel::kBursty, rate, n, *opts);
    const MetricsSnapshot snap = mreg.snapshot();
    const auto it = snap.histograms.find("stream.latency.arrival_to_commit");
    DTM_REQUIRE(it != snap.histograms.end(),
                "stream run recorded no arrival_to_commit histogram");
    const HistogramSnapshot& h = it->second;
    latency.add_row("cluster4x8", "bursty", policy, rate,
                    rt.stats().committed, h.count, h.mean(), h.percentile(50),
                    h.percentile(95), h.percentile(99), h.max);
    (policy == std::string("fixed") ? fixed_p99 : aimd_p99) =
        h.percentile(99);
  }
  // The E23 deferral win restated as tail latency: opening the quota under
  // a backlog must shorten the p99 wait, not just the deferral count.
  DTM_REQUIRE(aimd_p99 < fixed_p99,
              "AIMD p99 arrival->commit latency " << aimd_p99
                  << " not below the tight fixed bound's " << fixed_p99);
  benchutil::emit_table("latency", latency);
}

void BM_StreamPipeline(benchmark::State& state) {
  const Grid grid(static_cast<std::size_t>(state.range(0)));
  const DenseMetric metric(grid.graph);
  for (auto _ : state) {
    StreamingRuntimeOptions opts;
    opts.window = kWindow;
    StreamingRuntime rt(grid.graph, metric,
                        StreamingRuntime::spread_homes(grid.graph, kObjects),
                        opts);
    auto src = make_arrival_source(ArrivalModel::kPoisson, grid.graph,
                                   stream_options(256, 1.0), kSeed);
    rt.ingest_all(*src);
    rt.drain();
    benchmark::DoNotOptimize(rt.stats().makespan);
  }
}
BENCHMARK(BM_StreamPipeline)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_Optimistic(benchmark::State& state) {
  const Grid grid(static_cast<std::size_t>(state.range(0)));
  const DenseMetric metric(grid.graph);
  const auto [inst, arrival] =
      materialize_stream(grid.graph, ArrivalModel::kPoisson, 1.0, 256);
  for (auto _ : state) {
    const OptimisticResult r = run_optimistic(inst, metric, arrival);
    benchmark::DoNotOptimize(r.makespan);
  }
}
BENCHMARK(BM_Optimistic)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = dtm::benchutil::strip_flag(argc, argv, "--smoke");
  const std::string shard_json =
      dtm::benchutil::strip_value_flag(argc, argv, "--shard-json");
  const std::string latency_json =
      dtm::benchutil::strip_value_flag(argc, argv, "--latency-json");
  const std::string metrics_out =
      dtm::benchutil::strip_value_flag(argc, argv, "--metrics-out");
  dtm::benchutil::BenchMain bm("stream", argc, argv);
  print_series(smoke);
  bm.write_artifact();

  // E23 goes into its own artifact: drop the E22 series and metrics so
  // BENCH_stream_shard.json reflects only the sharded sweep.
  dtm::benchutil::BenchReport::instance().clear();
  dtm::MetricsRegistry::global().reset();
  print_shard_series(smoke);
  if (!shard_json.empty()) {
    std::ofstream out(shard_json);
    DTM_REQUIRE(out.good(), "cannot open --shard-json file " << shard_json);
    out << dtm::benchutil::BenchReport::instance().to_json("stream_shard",
                                                           bm.invocation())
        << '\n';
    std::cout << "\nwrote " << shard_json << "\n";
  }

  // E24 likewise (BENCH_stream_latency.json): latency-distribution cells
  // from the metrics histograms.
  dtm::benchutil::BenchReport::instance().clear();
  dtm::MetricsRegistry::global().reset();
  print_latency_series(smoke);
  if (!latency_json.empty()) {
    std::ofstream out(latency_json);
    DTM_REQUIRE(out.good(),
                "cannot open --latency-json file " << latency_json);
    out << dtm::benchutil::BenchReport::instance().to_json("stream_latency",
                                                           bm.invocation())
        << '\n';
    std::cout << "\nwrote " << latency_json << "\n";
  }

  // --metrics-out FILE: one dedicated AIMD bursty run (fixed rate, so no
  // capacity probes pollute the time series) exported as dtm-metrics-v1
  // JSONL — the file CI pipes through stream_report --validate.
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    DTM_REQUIRE(out.good(),
                "cannot open --metrics-out file " << metrics_out);
    dtm::MetricsRegistry::global().reset();
    dtm::MetricsSink sink(out);
    dtm::StreamingRuntimeOptions opts;
    opts.window = kWindow;
    opts.admission.policy = dtm::AdmissionPolicy::kAimd;
    opts.admission.min_live = 8;
    opts.admission.increase = 8;
    opts.admission.decrease = 0.5;
    const dtm::ClusterGraph cluster(4, 8, 16);
    const dtm::DenseMetric metric(cluster.graph);
    run_stream_opts(cluster.graph, metric, dtm::ArrivalModel::kBursty, 1.2,
                    smoke ? 200 : 500, opts);
    sink.finish();
    std::cout << "\nwrote " << metrics_out << "\n";
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
