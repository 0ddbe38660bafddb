// E18 — fault injection & recovery: executing the paper's schedules on an
// unreliable substrate (sim/faults.hpp) and measuring how far the realized
// makespan inflates past the planned one.
//
// Series: fault rate x topology (line / grid / cluster / clique) x
// scheduler. Per cell we plan the schedule on the reliable model, then
// re-execute it with transient link outages at rate p and transfer loss at
// rate p/4 under the default recovery policy (retransmit with backoff,
// reroute around down links, degraded commits). Expected shape: inflation
// grows monotonically in p — the fault oracle's afflicted sets are nested
// across rates (sim/faults.hpp) — and topologies with route diversity
// (grid, clique) recover by rerouting while the line can only stall.
//
// E19 rides in the same binary: the faults × capacity sweep the unified
// execution engine unlocked (sim/engine.hpp) — the same planned policies
// re-executed with bounded-capacity FIFO links *and* the fault model at
// once, a configuration no pre-engine simulator could express.
//
// --smoke runs a reduced rate sweep with fewer trials; the recorded
// BENCH_faults.json baseline is the smoke artifact so CI can re-run and
// bench_compare it cheaply.
#include "bench_common.hpp"

#include "core/generators.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/line.hpp"
#include "sched/registry.hpp"
#include "sched/reschedule.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using namespace dtm;

struct CellStats {
  Stats planned, realized, inflation, injected, reroutes, degraded;
};

// Plans on the reliable model, executes on the faulty substrate. The fault
// seed equals the trial seed, so a given trial sees nested fault sets
// across rates (the monotonicity the series is meant to show).
CellStats run_cell(const Graph& g, const Metric& metric,
                   const std::string& sched_name, double rate, int trials) {
  CellStats cs;
  const auto make_inst = benchutil::uniform_workload(g);
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(trials);
       ++seed) {
    const Instance inst = make_inst(seed);
    auto sched = make_scheduler_for(inst, sched_name, seed);
    const Schedule s = sched->run(inst, metric);
    DTM_REQUIRE(validate(inst, metric, s).ok, "infeasible schedule");

    FaultConfig fc;
    fc.link_outage_rate = rate;
    fc.loss_rate = rate / 4;
    fc.seed = seed;
    const FaultModel model(fc);
    SimOptions opts;
    opts.faults = &model;
    const SimResult r = simulate(inst, metric, s, opts);
    DTM_REQUIRE(r.ok, "fault run failed: " << r.summary());
    DTM_REQUIRE(r.realized_makespan >= r.planned_makespan,
                "realized makespan below planned");
    cs.planned.add(static_cast<double>(r.planned_makespan));
    cs.realized.add(static_cast<double>(r.realized_makespan));
    cs.inflation.add(static_cast<double>(r.realized_makespan) /
                     static_cast<double>(std::max<Time>(r.planned_makespan, 1)));
    cs.injected.add(static_cast<double>(r.faults.injected));
    cs.reroutes.add(static_cast<double>(r.faults.reroutes));
    cs.degraded.add(static_cast<double>(r.faults.degraded_commits));
  }
  return cs;
}

void print_series(bool smoke) {
  benchutil::print_header(
      "E18 — fault injection & recovery",
      "planned schedules re-executed with link outages (rate p) and "
      "transfer loss (p/4); inflation = realized/planned is monotone in p "
      "(nested fault sets)");
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.05, 0.2}
            : std::vector<double>{0.0, 0.02, 0.05, 0.1, 0.2};
  const int trials = smoke ? 2 : 5;

  const Line line(64);
  const Grid grid(8);
  const ClusterGraph cluster(4, 8, 8);
  const Clique clique(16);
  const DenseMetric line_m(line.graph);
  const DenseMetric grid_m(grid.graph);
  const DenseMetric cluster_m(cluster.graph);
  const DenseMetric clique_m(clique.graph);
  const struct {
    const char* label;
    const Graph* g;
    const Metric* m;
    std::vector<std::string> scheds;
  } cases[] = {
      {"line64", &line.graph, &line_m, {"line", "greedy-ff"}},
      {"grid8", &grid.graph, &grid_m, {"grid", "greedy-ff"}},
      {"cluster4x8", &cluster.graph, &cluster_m, {"cluster", "greedy-ff"}},
      {"clique16", &clique.graph, &clique_m, {"greedy-paper", "greedy-ff"}},
  };

  Table table({"topology", "scheduler", "rate", "planned(mean)",
               "realized(mean)", "inflation(mean)", "injected(mean)",
               "reroutes(mean)", "degraded(mean)"});
  for (const auto& c : cases) {
    for (const std::string& sched_name : c.scheds) {
      double prev_realized = 0;
      for (const double rate : rates) {
        const CellStats cs = run_cell(*c.g, *c.m, sched_name, rate, trials);
        // The line has no alternate routes, so recovery is stall-only and
        // the nesting argument makes even the mean strictly well-ordered.
        if (std::string(c.label) == "line64") {
          DTM_REQUIRE(cs.realized.mean() >= prev_realized,
                      "line inflation not monotone at rate " << rate);
        }
        prev_realized = cs.realized.mean();
        table.add_row(c.label, sched_name, rate, cs.planned.mean(),
                      cs.realized.mean(), cs.inflation.mean(),
                      cs.injected.mean(), cs.reroutes.mean(),
                      cs.degraded.mean());
      }
    }
  }
  benchutil::emit_table("main", table);
}

// Recovery-policy ablation at a fixed fault rate: rerouting versus
// stall-only waiting on topologies with and without route diversity.
void policy_series(bool smoke) {
  benchutil::print_header(
      "E18b — recovery policy ablation (rate 0.1)",
      "reroute-around-outages vs stall-until-repair; rerouting only helps "
      "where alternate routes exist");
  const int trials = smoke ? 2 : 5;
  const Grid grid(8);
  const ClusterGraph cluster(4, 8, 8);
  const DenseMetric grid_m(grid.graph);
  const DenseMetric cluster_m(cluster.graph);
  const struct {
    const char* label;
    const Graph* g;
    const Metric* m;
    const char* sched;
  } cases[] = {
      {"grid8", &grid.graph, &grid_m, "grid"},
      {"cluster4x8", &cluster.graph, &cluster_m, "cluster"},
  };

  Table table({"topology", "policy", "realized(mean)", "inflation(mean)",
               "reroutes(mean)", "stall steps(mean)"});
  for (const auto& c : cases) {
    for (const bool reroute : {true, false}) {
      Stats realized, inflation, reroutes, stalls;
      const auto make_inst = benchutil::uniform_workload(*c.g);
      for (std::uint64_t seed = 1;
           seed <= static_cast<std::uint64_t>(trials); ++seed) {
        const Instance inst = make_inst(seed);
        auto sched = make_scheduler_for(inst, c.sched, seed);
        const Schedule s = sched->run(inst, *c.m);
        FaultConfig fc;
        fc.link_outage_rate = 0.1;
        fc.seed = seed;
        const FaultModel model(fc);
        SimOptions opts;
        opts.faults = &model;
        opts.recovery.reroute = reroute;
        const SimResult r = simulate(inst, *c.m, s, opts);
        DTM_REQUIRE(r.ok, "fault run failed: " << r.summary());
        realized.add(static_cast<double>(r.realized_makespan));
        inflation.add(
            static_cast<double>(r.realized_makespan) /
            static_cast<double>(std::max<Time>(r.planned_makespan, 1)));
        reroutes.add(static_cast<double>(r.faults.reroutes));
        stalls.add(static_cast<double>(r.faults.stall_steps));
      }
      table.add_row(c.label, reroute ? "reroute" : "stall", realized.mean(),
                    inflation.mean(), reroutes.mean(), stalls.mean());
    }
  }
  benchutil::emit_table("policy", table);
}

// E19 — faults × capacity: the composed substrate (FaultyLinks over
// BoundedCapacityLinks). Per cell the planned visit orders re-execute with
// FIFO links of capacity C while outages (rate p) block or reroute queued
// objects, slowdowns inflate traversals, and lossy sends back off before
// entering the queues. Expected shape: the two stressors compound — queue
// wait grows as capacity tightens, and faults on top of tight links cost
// more than either alone.
void faultcap_series(bool smoke) {
  benchutil::print_header(
      "E19 — faults x capacity (composed substrates)",
      "visit orders re-executed on bounded FIFO links under the fault "
      "model; makespan and queue wait vs outage rate p and capacity C");
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.1}
            : std::vector<double>{0.0, 0.05, 0.1, 0.2};
  const std::vector<std::size_t> caps =
      smoke ? std::vector<std::size_t>{0, 1}
            : std::vector<std::size_t>{0, 4, 2, 1};
  const int trials = smoke ? 2 : 5;

  const Grid grid(8);
  const ClusterGraph cluster(4, 8, 8);
  const DenseMetric grid_m(grid.graph);
  const DenseMetric cluster_m(cluster.graph);
  const struct {
    const char* label;
    const Graph* g;
    const Metric* m;
    std::vector<std::string> scheds;
  } cases[] = {
      {"grid8", &grid.graph, &grid_m, {"grid", "greedy-ff"}},
      {"cluster4x8", &cluster.graph, &cluster_m, {"cluster", "greedy-ff"}},
  };

  Table table({"topology", "scheduler", "rate", "capacity", "makespan(mean)",
               "queue wait(mean)", "injected(mean)", "reroutes(mean)"});
  for (const auto& c : cases) {
    for (const std::string& sched_name : c.scheds) {
      for (const double rate : rates) {
        const auto faults_for = [rate](std::uint64_t seed) {
          benchutil::TrialFaults tf;
          if (rate > 0) {
            FaultConfig fc;
            fc.link_outage_rate = rate;
            fc.loss_rate = rate / 4;
            fc.seed = seed;
            tf.model = std::make_unique<FaultModel>(fc);
          }
          return tf;
        };
        const benchutil::CapacityCellStats cell =
            benchutil::run_capacity_cell(*c.m, benchutil::uniform_workload(*c.g),
                                         sched_name, /*seed_schedulers=*/true,
                                         caps, trials, faults_for);
        for (std::size_t i = 0; i < caps.size(); ++i) {
          table.add_row(c.label, sched_name, rate, caps[i],
                        cell.makespan[i].mean(), cell.queue_wait[i].mean(),
                        cell.injected[i].mean(), cell.reroutes[i].mean());
        }
      }
    }
  }
  benchutil::emit_table("faultcap", table);
}

// E20 — adaptive rescheduling: the slack-triggered splice policy
// (sched/reschedule.hpp) against a passive baseline on the SAME stepwise
// faulty substrate. Per trial the schedule is planned on the reliable
// model, then re-executed twice with identical fault streams: once with a
// reschedule hook that declines every splice (present, so the dispatch
// and commit discipline match the active run exactly) and once with the
// registry rescheduler under the slack policy. recovered = passive -
// active realized makespan. The improve-or-decline guard in
// reschedule_from only splices plans that project a strictly earlier
// completion, so the active mean must not exceed the passive mean in any
// cell — asserted below, which makes the recorded artifact a CI gate for
// the guard itself.
//
// This series runs AFTER write_artifact and records into its own report
// (BenchReport::clear + telemetry reset), so BENCH_faults.json stays
// cell-identical to a pre-E20 run; --reschedule-json writes the separate
// BENCH_reschedule.json artifact.
// Threshold 6 empirically filters noise splices (marginal projected gains
// that fault noise can erase — the line topologies at rates 0.1–0.2)
// while keeping the real recoveries (grid8 at rate 0.2 recovers 8–16
// steps of mean makespan); 4 regresses line64 trials, 8 loses the grid
// wins.
constexpr ReschedulePolicy kE20Policy{
    .slack_threshold = 6, .cooldown = 8, .max_reschedules = 4};

struct ReschedCellStats {
  Stats planned, passive, active, recovered, splices;
};

ReschedCellStats run_resched_cell(const Graph& g, const Metric& metric,
                                  const std::string& sched_name, double rate,
                                  int trials) {
  ReschedCellStats cs;
  const auto make_inst = benchutil::uniform_workload(g);
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(trials);
       ++seed) {
    const Instance inst = make_inst(seed);
    auto sched = make_scheduler_for(inst, sched_name, seed);
    const Schedule s = sched->run(inst, metric);
    DTM_REQUIRE(validate(inst, metric, s).ok, "infeasible schedule");

    FaultConfig fc;
    fc.link_outage_rate = rate;
    fc.loss_rate = rate / 4;
    fc.seed = seed;
    const FaultModel model(fc);

    SimOptions passive;
    passive.faults = &model;
    passive.reschedule = [](const PartialExecution&) {
      return std::unique_ptr<Schedule>();  // stall/reroute only, never splice
    };
    passive.reschedule_policy = kE20Policy;
    const SimResult pr = simulate(inst, metric, s, passive);
    DTM_REQUIRE(pr.ok, "passive run failed: " << pr.summary());
    DTM_REQUIRE(pr.reschedules == 0, "declining hook spliced");

    SimOptions active;
    active.faults = &model;
    active.reschedule = make_rescheduler(inst, metric, sched_name, seed);
    active.reschedule_policy = kE20Policy;
    const SimResult ar = simulate(inst, metric, s, active);
    DTM_REQUIRE(ar.ok, "active run failed: " << ar.summary());

    cs.planned.add(static_cast<double>(pr.planned_makespan));
    cs.passive.add(static_cast<double>(pr.realized_makespan));
    cs.active.add(static_cast<double>(ar.realized_makespan));
    cs.recovered.add(static_cast<double>(pr.realized_makespan) -
                     static_cast<double>(ar.realized_makespan));
    cs.splices.add(static_cast<double>(ar.reschedules));
  }
  return cs;
}

void reschedule_series(bool smoke) {
  benchutil::print_header(
      "E20 — adaptive rescheduling (active splice vs passive recovery)",
      "slack-triggered suffix reschedules vs the stall/reroute baseline on "
      "the same stepwise faulty substrate; recovered = passive - active "
      "realized makespan, never negative per cell (improve-or-decline "
      "guard)");
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.05, 0.2}
            : std::vector<double>{0.0, 0.02, 0.05, 0.1, 0.2};
  const int trials = smoke ? 2 : 5;

  const Line line(64);
  const Grid grid(8);
  const ClusterGraph cluster(4, 8, 8);
  const Clique clique(16);
  const DenseMetric line_m(line.graph);
  const DenseMetric grid_m(grid.graph);
  const DenseMetric cluster_m(cluster.graph);
  const DenseMetric clique_m(clique.graph);
  const struct {
    const char* label;
    const Graph* g;
    const Metric* m;
    std::vector<std::string> scheds;
  } cases[] = {
      {"line64", &line.graph, &line_m, {"line", "greedy-ff"}},
      {"grid8", &grid.graph, &grid_m, {"grid", "greedy-ff"}},
      {"cluster4x8", &cluster.graph, &cluster_m, {"cluster", "greedy-ff"}},
      {"clique16", &clique.graph, &clique_m, {"greedy-paper", "greedy-ff"}},
  };

  Table table({"topology", "scheduler", "rate", "planned(mean)",
               "passive(mean)", "active(mean)", "recovered(mean)",
               "splices(mean)"});
  for (const auto& c : cases) {
    for (const std::string& sched_name : c.scheds) {
      for (const double rate : rates) {
        const ReschedCellStats cs =
            run_resched_cell(*c.g, *c.m, sched_name, rate, trials);
        DTM_REQUIRE(cs.active.mean() <= cs.passive.mean(),
                    "active rescheduling worse than passive ("
                        << c.label << "/" << sched_name << " rate " << rate
                        << ": " << cs.active.mean() << " > "
                        << cs.passive.mean() << ")");
        table.add_row(c.label, sched_name, rate, cs.planned.mean(),
                      cs.passive.mean(), cs.active.mean(), cs.recovered.mean(),
                      cs.splices.mean());
      }
    }
  }
  benchutil::emit_table("reschedule", table);
}

// --trace-out: one dedicated composed run (grid8, greedy-ff, outage rate
// 0.1 + loss 0.025, capacity-1 FIFO links, seed 1) recorded as a Chrome
// trace. It runs AFTER write_artifact so the artifact's counters stay
// identical to an untraced run; CI validates the file with
// `trace_summarize --validate` and uploads it.
void write_smoke_trace(const std::string& path, const std::string& invocation) {
  const Grid grid(8);
  const DenseMetric metric(grid.graph);
  const Instance inst = benchutil::uniform_workload(grid.graph)(1);

  TraceRecorder& rec = TraceRecorder::global();
  rec.clear();
  rec.set_provenance({
      {"bench", "faults"},
      {"invocation", invocation},
      {"scheduler", "greedy-ff"},
      {"seed", "1"},
      {"topology", "grid8"},
  });
  rec.set_enabled(true);

  auto sched = make_scheduler_for(inst, "greedy-ff", 1);
  const Schedule s = sched->run(inst, metric);
  DTM_REQUIRE(validate(inst, metric, s).ok, "infeasible schedule");
  FaultConfig fc;
  fc.link_outage_rate = 0.1;
  fc.loss_rate = 0.025;
  fc.seed = 1;
  const FaultModel model(fc);
  const SimResult r = simulate(
      inst, metric, s,
      {.faults = &model, .capacity = 1, .earliest_commit = true});
  rec.set_enabled(false);
  DTM_REQUIRE(r.ok, "traced run failed: " << r.summary());

  std::ofstream out(path);
  DTM_REQUIRE(out.good(), "cannot open --trace-out file " << path);
  out << rec.to_chrome_json();
  std::cout << "wrote " << rec.size() << "-event trace to " << path << "\n";
}

// --resched-trace-out: one dedicated active-reschedule run recorded as a
// Chrome trace. The config is chosen so the slack policy fires at least
// once (asserted), so the trace always contains a reschedule instant for
// trace_summarize --validate / the CI structural gate to see. Runs after
// both artifacts so their counters stay identical to an untraced run.
void write_resched_trace(const std::string& path,
                         const std::string& invocation) {
  const Grid grid(8);
  const DenseMetric metric(grid.graph);
  const Instance inst = benchutil::uniform_workload(grid.graph)(1);

  TraceRecorder& rec = TraceRecorder::global();
  rec.clear();
  rec.set_provenance({
      {"bench", "faults"},
      {"invocation", invocation},
      {"scheduler", "greedy-ff"},
      {"seed", "1"},
      {"series", "reschedule"},
      {"topology", "grid8"},
  });
  rec.set_enabled(true);

  auto sched = make_scheduler_for(inst, "greedy-ff", 1);
  const Schedule s = sched->run(inst, metric);
  DTM_REQUIRE(validate(inst, metric, s).ok, "infeasible schedule");
  FaultConfig fc;
  fc.link_outage_rate = 0.2;
  fc.loss_rate = 0.05;
  fc.seed = 1;
  const FaultModel model(fc);
  SimOptions opts;
  opts.faults = &model;
  opts.reschedule = make_rescheduler(inst, metric, "greedy-ff", 1);
  opts.reschedule_policy = kE20Policy;
  const SimResult r = simulate(inst, metric, s, opts);
  rec.set_enabled(false);
  DTM_REQUIRE(r.ok, "traced reschedule run failed: " << r.summary());
  DTM_REQUIRE(r.reschedules > 0,
              "reschedule trace config no longer splices — pick a config "
              "where the slack policy fires");

  std::ofstream out(path);
  DTM_REQUIRE(out.good(), "cannot open --resched-trace-out file " << path);
  out << rec.to_chrome_json();
  std::cout << "wrote " << rec.size() << "-event reschedule trace to " << path
            << " (" << r.reschedules << " splice(s))\n";
}

void BM_FaultSim(benchmark::State& state) {
  const Grid topo(8);
  const DenseMetric metric(topo.graph);
  Rng rng(3);
  const Instance inst = generate_uniform(
      topo.graph, {.num_objects = 12, .objects_per_txn = 2}, rng);
  auto sched = make_scheduler_for(inst, "grid");
  const Schedule s = sched->run(inst, metric);
  FaultConfig fc;
  fc.link_outage_rate = 0.01 * static_cast<double>(state.range(0));
  fc.loss_rate = fc.link_outage_rate / 4;
  const FaultModel model(fc);
  SimOptions opts;
  opts.faults = &model;
  for (auto _ : state) {
    const SimResult r = simulate(inst, metric, s, opts);
    benchmark::DoNotOptimize(r.realized_makespan);
  }
}
BENCHMARK(BM_FaultSim)->Arg(0)->Arg(5)->Arg(20)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke / --trace-out before BenchMain / google-benchmark see
  // the flags.
  const bool smoke = dtm::benchutil::strip_flag(argc, argv, "--smoke");
  const std::string trace_out =
      dtm::benchutil::strip_value_flag(argc, argv, "--trace-out");
  const std::string resched_json =
      dtm::benchutil::strip_value_flag(argc, argv, "--reschedule-json");
  const std::string resched_trace =
      dtm::benchutil::strip_value_flag(argc, argv, "--resched-trace-out");
  dtm::benchutil::BenchMain bm("faults", argc, argv);
  print_series(smoke);
  policy_series(smoke);
  faultcap_series(smoke);
  bm.write_artifact();
  if (!trace_out.empty()) write_smoke_trace(trace_out, bm.invocation());

  // E20 runs after the faults artifact (and its trace) so its series and
  // telemetry land in a fresh report: BENCH_faults.json stays cell-identical
  // to a pre-E20 binary, and BENCH_reschedule.json's counters cover only the
  // reschedule sweep.
  dtm::benchutil::BenchReport::instance().clear();
  dtm::TelemetryRegistry::global().reset();
  reschedule_series(smoke);
  if (!resched_json.empty()) {
    std::ofstream out(resched_json);
    DTM_REQUIRE(out.good(),
                "cannot open --reschedule-json file " << resched_json);
    out << dtm::benchutil::BenchReport::instance().to_json("reschedule",
                                                           bm.invocation())
        << '\n';
    std::cout << "\nwrote " << resched_json << "\n";
  }
  if (!resched_trace.empty()) {
    write_resched_trace(resched_trace, bm.invocation());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
