// dtm_cli — generate / schedule / inspect DTM workloads from the shell.
//
// Examples:
//   dtm_cli --topology grid --n 12 --w 16 --k 2 --scheduler auto --seed 7
//   dtm_cli --topology cluster --alpha 8 --beta 8 --gamma 16
//           --workload cluster-spread --sigma 4 --scheduler cluster-best
//   dtm_cli --topology clique --n 64 --scheduler greedy-ff --csv out.csv
//           --save-instance inst.txt --save-schedule sched.txt
//
// `--scheduler auto` picks the paper's specialized algorithm for the
// chosen topology; any registry name (sched/registry.hpp) works as well —
// topology-agnostic ("greedy-ff", "serial", ...) and topology-specific
// ("line", "grid", "cluster-best", "star-random", ...) — plus the online
// extras "online-fifo" and "online-batch".
//
// The --fault-* flags execute the planned schedule on a faulty network
// (sim/faults.hpp) and report the realized makespan inflation:
//   dtm_cli --topology grid --n 8 --fault-rate 0.05 --loss-rate 0.01
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/generators.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/online.hpp"
#include "core/validate.hpp"
#include "graph/analytic_metric.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/butterfly.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "lb/bounds.hpp"
#include "sched/online.hpp"
#include "sched/registry.hpp"
#include "sched/reschedule.hpp"
#include "sim/congestion.hpp"
#include "sim/optimistic.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_analysis.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace {

using namespace dtm;

/// Owns whichever topology was requested plus its specialized scheduler.
struct TopologyBundle {
  std::string kind;
  std::unique_ptr<Clique> clique;
  std::unique_ptr<Line> line;
  std::unique_ptr<Grid> grid;
  std::unique_ptr<ClusterGraph> cluster;
  std::unique_ptr<Hypercube> hypercube;
  std::unique_ptr<Butterfly> butterfly;
  std::unique_ptr<Star> star;

  const Graph& graph() const {
    if (clique) return clique->graph;
    if (line) return line->graph;
    if (grid) return grid->graph;
    if (cluster) return cluster->graph;
    if (hypercube) return hypercube->graph;
    if (butterfly) return butterfly->graph;
    return star->graph;
  }
};

TopologyBundle build_topology(const ArgParser& args) {
  TopologyBundle b;
  b.kind = args.get("topology", "grid");
  const auto n = static_cast<std::size_t>(args.get_int("n", 8));
  if (b.kind == "clique") {
    b.clique = std::make_unique<Clique>(n);
  } else if (b.kind == "line") {
    b.line = std::make_unique<Line>(n);
  } else if (b.kind == "grid") {
    b.grid = std::make_unique<Grid>(n);
  } else if (b.kind == "cluster") {
    b.cluster = std::make_unique<ClusterGraph>(
        static_cast<std::size_t>(args.get_int("alpha", 4)),
        static_cast<std::size_t>(args.get_int("beta", 8)),
        args.get_int("gamma", 16));
  } else if (b.kind == "hypercube") {
    b.hypercube =
        std::make_unique<Hypercube>(static_cast<std::size_t>(args.get_int("dim", 5)));
  } else if (b.kind == "butterfly") {
    b.butterfly =
        std::make_unique<Butterfly>(static_cast<std::size_t>(args.get_int("dim", 3)));
  } else if (b.kind == "star") {
    b.star = std::make_unique<Star>(
        static_cast<std::size_t>(args.get_int("alpha", 4)),
        static_cast<std::size_t>(args.get_int("beta", 8)));
  } else {
    throw Error("unknown --topology '" + b.kind +
                "' (clique|line|grid|cluster|hypercube|butterfly|star)");
  }
  return b;
}

Instance build_workload(const ArgParser& args, const TopologyBundle& topo,
                        Rng& rng) {
  const std::string workload = args.get("workload", "uniform");
  const auto w = static_cast<std::size_t>(args.get_int("w", 12));
  const auto k = static_cast<std::size_t>(args.get_int("k", 2));
  if (workload == "uniform") {
    return generate_uniform(topo.graph(),
                            {.num_objects = w, .objects_per_txn = k}, rng);
  }
  if (workload == "hotspot") {
    return generate_hotspot(topo.graph(), w, k, rng);
  }
  if (workload == "cluster-local") {
    DTM_REQUIRE(topo.cluster != nullptr,
                "--workload cluster-local needs --topology cluster");
    return generate_cluster_local(*topo.cluster, w, k, rng);
  }
  if (workload == "cluster-spread") {
    DTM_REQUIRE(topo.cluster != nullptr,
                "--workload cluster-spread needs --topology cluster");
    return generate_cluster_spread(
        *topo.cluster, w, k,
        static_cast<std::size_t>(args.get_int("sigma", 2)), rng);
  }
  if (workload == "ray-local") {
    DTM_REQUIRE(topo.star != nullptr,
                "--workload ray-local needs --topology star");
    return generate_star_ray_local(*topo.star, w, k, rng);
  }
  throw Error("unknown --workload '" + workload +
              "' (uniform|hotspot|cluster-local|cluster-spread|ray-local)");
}

std::unique_ptr<Scheduler> build_scheduler(const ArgParser& args,
                                           const TopologyBundle& topo,
                                           const Instance& inst,
                                           std::uint64_t seed) {
  std::string name = args.get("scheduler", "auto");
  if (name == "auto") {
    if (topo.line) name = "line";
    else if (topo.grid) name = "grid";
    else if (topo.cluster) name = "cluster";
    else if (topo.star) name = "star";
    else name = "greedy-paper";
  }
  // Online schedulers are stateful CLI extras the registry doesn't cover.
  if (name == "online-fifo") return std::make_unique<OnlineFifoScheduler>();
  if (name == "online-batch") {
    OnlineBatchOptions opts;
    opts.window = args.get_int("window", 16);
    return std::make_unique<OnlineBatchScheduler>(opts);
  }
  // Everything else — topology-agnostic and topology-specific names alike —
  // goes through the registry, which recovers the topology from the
  // instance's graph (so "line" on --topology grid fails with a clear
  // error).
  return make_scheduler_for(inst, name, seed);
}

/// --metric picks the distance oracle. Unset keeps make_metric's historic
/// size-based choice (dense up to 4096 nodes, lazy beyond); "auto" prefers
/// the closed-form AnalyticMetric when the graph is recognized as a
/// structured family, falling back to LazyMetric on generic graphs.
std::unique_ptr<Metric> build_metric(const ArgParser& args, const Graph& g) {
  const std::string mode = args.get("metric", "");
  if (mode.empty()) return make_metric(g);
  if (mode == "dense") return std::make_unique<DenseMetric>(g);
  if (mode == "lazy") return std::make_unique<LazyMetric>(g);
  if (mode == "auto") return make_auto_metric(g);
  throw Error("unknown --metric '" + mode + "' (dense|lazy|auto)");
}

/// Parses the --fault-* flags into a fault oracle; inactive (nullopt) when
/// every rate is 0 so the reliable simulate() path stays in charge.
std::optional<FaultModel> build_fault_model(const ArgParser& args,
                                            std::uint64_t seed) {
  FaultConfig fc;
  fc.link_outage_rate = std::stod(args.get("fault-rate", "0"));
  fc.outage_duration = args.get_int("fault-duration", fc.outage_duration);
  fc.slowdown_rate = std::stod(args.get("slowdown-rate", "0"));
  fc.slowdown_factor = args.get_int("slowdown-factor", fc.slowdown_factor);
  fc.loss_rate = std::stod(args.get("loss-rate", "0"));
  fc.window = args.get_int("fault-window", fc.window);
  fc.seed = static_cast<std::uint64_t>(
      args.get_int("fault-seed", static_cast<std::int64_t>(seed)));
  FaultModel model(std::move(fc));
  if (!model.active()) return std::nullopt;
  return model;
}

void warn_unknown_flags(const ArgParser& args) {
  const auto unknown = args.unknown_flags();
  if (!unknown.empty()) {
    std::cerr << "warning: unused flags:";
    for (const auto& f : unknown) std::cerr << " --" << f;
    std::cerr << '\n';
  }
}

/// Streaming mode (--arrival-rate / --arrival-model / --optimistic):
/// transactions arrive continually instead of existing up front. The
/// window-batched StreamingRuntime schedules them (sim/runtime.hpp); with
/// --optimistic the same stream runs under the TL2-style optimistic
/// executor instead, so the two execution models are directly comparable.
int run_streaming(const ArgParser& args, const TopologyBundle& topo,
                  const Metric& metric, std::uint64_t seed) {
  // --metrics-out[=FILE] streams this run's dtm-metrics-v1 JSONL into FILE:
  // per-window samples as windows close, then the gauges and latency
  // histograms (stream_report reads it). Bare flag defaults to
  // metrics.jsonl.
  std::ofstream metrics_file;
  std::string metrics_path;
  std::optional<MetricsSink> metrics_sink;
  if (args.has("metrics-out")) {
    metrics_path = args.get_optional("metrics-out", "metrics.jsonl");
    metrics_file.open(metrics_path);
    DTM_REQUIRE(metrics_file.good(),
                "cannot open --metrics-out file " << metrics_path);
    metrics_sink.emplace(metrics_file);
  }
  const auto write_metrics = [&] {
    if (!metrics_sink) return;
    metrics_sink->finish();
    std::cout << "wrote metrics to " << metrics_path << '\n';
  };

  const ArrivalModel model =
      parse_arrival_model(args.get("arrival-model", "poisson"));
  ArrivalStreamOptions stream;
  stream.num_txns = static_cast<std::size_t>(args.get_int("txns", 256));
  stream.num_objects = static_cast<std::size_t>(args.get_int("w", 12));
  stream.objects_per_txn = static_cast<std::size_t>(args.get_int("k", 2));
  stream.rate = std::stod(args.get("arrival-rate", "1"));
  stream.burst_size =
      static_cast<std::size_t>(args.get_int("burst", stream.burst_size));
  auto src = make_arrival_source(model, topo.graph(), stream, seed);

  if (args.has("optimistic")) {
    // Materialize the identical stream into an instance + arrival vector
    // (streams revisit nodes, hence the shared-homes opt-in).
    InstanceBuilder b(topo.graph(), stream.num_objects);
    b.allow_shared_homes();
    ArrivalTimes arrival;
    ArrivingTxn t;
    while (src->next(t)) {
      b.add_transaction(t.home, t.objects);
      arrival.push_back(t.arrival);
    }
    const std::vector<NodeId> homes =
        StreamingRuntime::spread_homes(topo.graph(), stream.num_objects);
    for (ObjectId o = 0; o < stream.num_objects; ++o) {
      b.set_object_home(o, homes[o]);
    }
    OptimisticOptions opts;
    opts.seed = seed;
    const OptimisticResult r =
        run_optimistic(b.build(), metric, arrival, opts);
    DTM_REQUIRE(r.ok, "optimistic execution failed: " << r.error);
    Table table({"executor", "txns", "commits", "aborts", "wasted steps",
                 "makespan", "throughput"});
    table.add_row("tl2-optimistic", arrival.size(), r.commits, r.aborts,
                  static_cast<double>(r.wasted_steps),
                  static_cast<double>(r.makespan), r.throughput);
    table.print(std::cout);
    write_metrics();
    warn_unknown_flags(args);
    return 0;
  }

  StreamingRuntimeOptions opts;
  opts.window = args.get_int("window", opts.window);
  opts.admission.max_live =
      static_cast<std::size_t>(args.get_int("max-live", 0));
  opts.shards = static_cast<std::size_t>(args.get_int("shards", 1));
  opts.admission.policy = parse_admission_policy(args.get("admission", "fixed"));
  StreamingRuntime rt(
      topo.graph(), metric,
      StreamingRuntime::spread_homes(topo.graph(), stream.num_objects), opts);
  rt.ingest_all(*src);
  const StreamStats& st = rt.drain();
  const auto vr =
      validate_online(rt.materialize(), metric, rt.arrivals(), rt.schedule());
  DTM_REQUIRE(vr.ok, "streaming schedule failed validation:\n"
                         << vr.summary());
  Table table({"executor", "txns", "committed", "windows", "deferrals",
               "peak backlog", "mean backlog", "makespan", "throughput"});
  table.add_row("stream-batch", st.arrived, st.committed, st.windows,
                st.deferrals, st.peak_backlog, st.mean_backlog,
                static_cast<double>(st.makespan), st.throughput);
  table.print(std::cout);
  if (opts.shards > 1) {
    const ShardLoadStats& sh = rt.shard_stats();
    std::cout << "shards: " << sh.num_shards << " (" << sh.scheme
              << " partition), local txns " << sh.local_txns << ", cross "
              << sh.cross_txns << ", fixup " << sh.fixup_txns
              << ", peak shard batch " << sh.peak_shard_members << '\n';
  }
  if (opts.admission.policy != AdmissionPolicy::kFixed) {
    const AdmissionController& ac = rt.admission();
    std::cout << "admission: " << ac.name() << ", final quota " << ac.quota()
              << ", raises " << ac.raises() << ", cuts " << ac.cuts() << '\n';
  }
  write_metrics();
  warn_unknown_flags(args);
  return 0;
}

int run(const ArgParser& args, const std::string& invocation) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto trials = static_cast<int>(args.get_int("trials", 1));

  // --trace-out records trial 0 (the seeded, reproducible one) and writes a
  // Chrome trace-event file (or deterministic JSONL) after the run: the
  // log of one execution, plus the wall-clock phases of trial 0. With
  // --capacity the logged execution is the capacity replay (whose makespan
  // is the one printed), otherwise the plain trial-0 run.
  const bool tracing = args.has("trace-out");
  const bool trace_replay = tracing && args.has("capacity");
  const std::string trace_path = args.get("trace-out", "");
  const std::string trace_format = args.get("trace-format", "chrome");
  DTM_REQUIRE(trace_format == "chrome" || trace_format == "jsonl",
              "unknown --trace-format '" << trace_format
                                         << "' (chrome|jsonl)");
  TraceRecorder& recorder = TraceRecorder::global();
  if (tracing) {
    DTM_REQUIRE(!trace_path.empty(), "--trace-out needs a file path");
    recorder.clear();
    recorder.set_provenance({
        {"invocation", invocation},
        {"scheduler", args.get("scheduler", "auto")},
        {"seed", std::to_string(seed)},
        {"topology", args.get("topology", "grid")},
        {"workload", args.get("workload", "uniform")},
    });
    recorder.set_enabled(true);
  }

  const TopologyBundle topo = build_topology(args);
  const auto metric = build_metric(args, topo.graph());
  if (args.has("arrival-rate") || args.has("arrival-model") ||
      args.has("optimistic")) {
    return run_streaming(args, topo, *metric, seed);
  }
  const std::optional<FaultModel> faults = build_fault_model(args, seed);
  SimOptions sim_opts;
  if (faults) sim_opts.faults = &*faults;

  // --reschedule[=NAME] splices replacement schedules in mid-run whenever
  // the realized lag exceeds --slack-threshold (sched/reschedule.hpp).
  // Bare --reschedule reuses the --scheduler name; online-* schedulers are
  // stateful and cannot restart from partial state, so they are rejected.
  const bool resched = args.has("reschedule");
  std::string resched_name;
  if (resched) {
    resched_name =
        args.get_optional("reschedule", args.get("scheduler", "auto"));
    if (resched_name == "auto") {
      if (topo.line) resched_name = "line";
      else if (topo.grid) resched_name = "grid";
      else if (topo.cluster) resched_name = "cluster";
      else if (topo.star) resched_name = "star";
      else resched_name = "greedy-paper";
    }
    DTM_REQUIRE(resched_name.rfind("online-", 0) != 0,
                "--reschedule cannot use online schedulers (got '"
                    << resched_name << "')");
    sim_opts.reschedule_policy.slack_threshold = args.get_int(
        "slack-threshold", sim_opts.reschedule_policy.slack_threshold);
  }

  std::vector<SimEvent> trace_log;  // the traced execution's log
  Table table({"trial", "scheduler", "txns", "makespan", "LB", "ratio",
               "communication", "peak link load"});
  std::optional<CsvWriter> csv;
  if (args.has("csv")) {
    csv.emplace(args.get("csv", ""),
                std::vector<std::string>{"trial", "scheduler", "txns",
                                         "makespan", "lb", "ratio",
                                         "communication", "peak_load"});
  }

  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(seed + static_cast<std::uint64_t>(trial));
    const Instance inst = build_workload(args, topo, rng);
    auto sched = build_scheduler(args, topo, inst,
                                 seed + static_cast<std::uint64_t>(trial));
    const Schedule schedule = sched->run(inst, *metric);

    const ValidationResult vr = validate(inst, *metric, schedule);
    DTM_REQUIRE(vr.ok, "scheduler produced infeasible schedule:\n"
                           << vr.summary());
    if (resched) {
      // Rebuilt per trial: the hook captures this trial's instance.
      sim_opts.reschedule = make_rescheduler(
          inst, *metric, resched_name,
          seed + static_cast<std::uint64_t>(trial));
    }
    // With --capacity the replay below is the traced execution, so the
    // trace matches the printed makespan.
    const bool trace_this = tracing && trial == 0;
    SimOptions run_opts = sim_opts;
    run_opts.record_events = trace_this && !trace_replay;
    SimResult sim = simulate(inst, *metric, schedule, run_opts);
    DTM_REQUIRE(sim.ok, "simulation failed:\n" << sim.summary());
    if (run_opts.record_events) trace_log = std::move(sim.events);
    if (resched && sim.reschedules > 0) {
      std::cout << "trial " << trial << " reschedules: " << sim.reschedules
                << " (realized makespan " << sim.realized_makespan << ")\n";
    }
    if (faults) {
      std::cout << "trial " << trial << " faults: planned makespan "
                << sim.planned_makespan << " -> realized "
                << sim.realized_makespan << " (injected "
                << sim.faults.injected << ", retries " << sim.faults.retries
                << ", reroutes " << sim.faults.reroutes
                << ", degraded commits " << sim.faults.degraded_commits
                << ")\n";
    }

    const InstanceBounds lb = compute_bounds(inst, *metric);
    const ScheduleMetrics sm = compute_metrics(inst, *metric, schedule);
    const CongestionReport cong = analyze_congestion(inst, *metric, schedule);
    if (args.has("capacity")) {
      // The --fault-* flags compose with --capacity: the replay runs the
      // visit orders on bounded FIFO links *and* the faulty network at once.
      // This replay is the logged execution when tracing (its makespan is
      // the printed one).
      const auto cap = static_cast<std::size_t>(args.get_int("capacity", 1));
      SimResult replay = simulate(inst, *metric, schedule,
                                  {.record_events = trace_this,
                                   .faults = faults ? &*faults : nullptr,
                                   .capacity = cap,
                                   .earliest_commit = true});
      DTM_REQUIRE(replay.ok, "capacity replay failed: " << replay.summary());
      if (trace_this) trace_log = std::move(replay.events);
      std::cout << "capacity-" << cap << " replay: makespan "
                << replay.realized_makespan << ", queue wait "
                << replay.total_queue_wait << ", max queue "
                << replay.max_queue_length;
      if (faults) {
        std::cout << " (injected " << replay.faults.injected << ", retries "
                  << replay.faults.retries << ", reroutes "
                  << replay.faults.reroutes << ")";
      }
      std::cout << "\n";
    }
    const double ratio = static_cast<double>(sm.makespan) /
                         static_cast<double>(std::max<Time>(lb.makespan_lb, 1));
    table.add_row(trial, sched->name(), inst.num_transactions(),
                  static_cast<double>(sm.makespan),
                  static_cast<double>(lb.makespan_lb), ratio,
                  static_cast<double>(sm.communication), cong.peak_load);
    if (csv) {
      csv->write_row({std::to_string(trial), sched->name(),
                      std::to_string(inst.num_transactions()),
                      std::to_string(sm.makespan),
                      std::to_string(lb.makespan_lb), Table::format_cell(ratio),
                      std::to_string(sm.communication),
                      std::to_string(cong.peak_load)});
    }

    if (trial == 0) {
      if (args.has("save-graph")) {
        std::ofstream out(args.get("save-graph", ""));
        write_graph(out, topo.graph());
      }
      if (args.has("save-instance")) {
        std::ofstream out(args.get("save-instance", ""));
        write_instance(out, inst);
      }
      if (args.has("save-schedule")) {
        std::ofstream out(args.get("save-schedule", ""));
        write_schedule(out, schedule);
      }
      // Only trial 0 is recorded; keep later trials off the trace.
      if (tracing) recorder.set_enabled(false);
    }
  }
  table.print(std::cout);

  if (tracing) {
    std::ofstream out(trace_path);
    DTM_REQUIRE(out.good(), "cannot open --trace-out file " << trace_path);
    const std::vector<TraceSpanRecord> records = trace_records(trace_log);
    std::size_t written = records.size();
    if (trace_format == "jsonl") {
      out << recorder.to_jsonl(records);
    } else {
      out << recorder.to_chrome_json(records);
      written += recorder.size();
    }
    std::cout << "wrote " << written << "-event " << trace_format
              << " trace to " << trace_path << '\n';
  }

  if (args.has("telemetry")) {
    // Bare --telemetry dumps to stdout; --telemetry=FILE (or
    // `--telemetry FILE`) writes the file.
    const std::string json = MetricsRegistry::global().snapshot().to_json();
    const std::string path = args.get_optional("telemetry", "-");
    if (path == "-") {
      std::cout << "\ntelemetry:\n" << json << '\n';
    } else {
      std::ofstream out(path);
      DTM_REQUIRE(out.good(), "cannot open --telemetry file " << path);
      out << json << '\n';
      std::cout << "wrote telemetry to " << path << '\n';
    }
  }

  warn_unknown_flags(args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.has("list-schedulers")) {
      // The registry is the source of truth; topology-specific names need
      // an instance whose graph structurally matches. online-* are
      // stateful CLI extras constructed outside the registry.
      for (const std::string& name : dtm::registered_scheduler_names()) {
        std::cout << name << '\n';
      }
      std::cout << "online-fifo\nonline-batch\n";
      return 0;
    }
    if (args.has("help")) {
      std::cout <<
          "usage: dtm_cli [--topology clique|line|grid|cluster|hypercube|"
          "butterfly|star]\n"
          "  [--n N] [--alpha A --beta B --gamma G] [--dim D]\n"
          "  [--workload uniform|hotspot|cluster-local|cluster-spread|"
          "ray-local] [--w W] [--k K] [--sigma S]\n"
          "  [--scheduler auto|line|grid|grid-ff|cluster|cluster-greedy|"
          "cluster-random|cluster-best|star|star-greedy|star-random|"
          "star-best|online-fifo|online-batch|greedy-paper|greedy-ff|"
          "greedy-compact|id-order|random-order|serial|exact]\n"
          "  [--metric dense|lazy|auto]\n"
          "  [--seed S] [--trials T] [--window W] [--capacity C] "
          "[--csv FILE] [--telemetry[=FILE]]\n"
          "  [--trace-out FILE] [--trace-format chrome|jsonl]\n"
          "  [--reschedule[=NAME]] [--slack-threshold T]\n"
          "  [--fault-rate P] [--fault-duration D] [--fault-window W] "
          "[--slowdown-rate P] [--slowdown-factor F]\n"
          "  [--loss-rate P] [--fault-seed S]\n"
          "  [--save-graph FILE] [--save-instance FILE] "
          "[--save-schedule FILE]\n"
          "  [--list-schedulers]\n"
          "streaming mode (continual arrivals instead of a fixed batch):\n"
          "  [--arrival-rate R] [--arrival-model poisson|bursty|hot]\n"
          "  [--txns N] [--burst B] [--max-live M] [--optimistic]\n"
          "  [--shards N]               width of the reported locality "
          "split (the schedule never depends on it)\n"
          "  [--admission fixed|adaptive]  admission control: fixed "
          "--max-live bound, or AIMD closed-loop on backlog\n"
          "  [--metrics-out[=FILE]]     write dtm-metrics-v1 JSONL (latency "
          "histograms, per-window samples; default metrics.jsonl;\n"
          "                             summarize with tools/stream_report)\n";
      return 0;
    }
    std::string invocation = "dtm_cli";
    for (int i = 1; i < argc; ++i) invocation += std::string(" ") + argv[i];
    return run(args, invocation);
  } catch (const dtm::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
