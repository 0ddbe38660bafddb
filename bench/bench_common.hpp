// Shared helpers for the experiment benches (DESIGN.md §3).
//
// Every bench binary does three things:
//  1. prints the experiment's paper-style series (a Table of parameters ->
//     lower bound, measured makespan, ratio, proven bound) over several
//     seeded trials — these are the rows recorded in EXPERIMENTS.md;
//  2. registers google-benchmark timings for the scheduler itself;
//  3. with --json-out[=PATH], writes a machine-readable BENCH_<name>.json
//     artifact: the series rows plus the telemetry counters and phase-timer
//     percentiles accumulated while the series ran (EXPERIMENTS.md
//     documents the schema; tools/bench_compare diffs two artifacts).
//
// Schedules are validated on every trial; an infeasible schedule aborts the
// bench (a benchmark of a wrong answer is meaningless).
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "lb/bounds.hpp"
#include "sched/registry.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "trial_runner.hpp"
#include "util/args.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"
#include "util/provenance.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

namespace dtm::benchutil {

/// Prints a section header so bench output reads like the paper's tables.
inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::cout << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

/// Strips a boolean flag (e.g. --smoke) from argv before google-benchmark
/// parses the remainder; returns whether the flag was present.
inline bool strip_flag(int& argc, char** argv, const std::string& flag) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      found = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return found;
}

/// Strips `--flag VALUE` / `--flag=VALUE` from argv before google-benchmark
/// parses the remainder; returns VALUE, or "" when the flag was absent.
inline std::string strip_value_flag(int& argc, char** argv,
                                    const std::string& flag) {
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok == flag) {
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      continue;
    }
    if (tok.rfind(flag + "=", 0) == 0) {
      value = tok.substr(flag.size() + 1);
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

/// Seeded uniform-workload factory over a fixed graph — the instance shape
/// shared by the congestion/fault sweep benches (E13/E18/E19).
inline std::function<Instance(std::uint64_t)> uniform_workload(
    const Graph& g, std::size_t num_objects = 12,
    std::size_t objects_per_txn = 2) {
  return [&g, num_objects, objects_per_txn](std::uint64_t seed) {
    Rng rng(seed);
    return generate_uniform(
        g, {.num_objects = num_objects, .objects_per_txn = objects_per_txn},
        rng);
  };
}

/// Per-trial fault setup for a capacity sweep. Owns the FaultModel so the
/// non-owning pointer inside SimOptions stays valid for the whole trial; a
/// null model is the reliable substrate.
struct TrialFaults {
  std::unique_ptr<FaultModel> model;
  RecoveryPolicy recovery{};

  /// Earliest-commit re-execution of the visit orders at `capacity`.
  SimOptions options(std::size_t capacity) const {
    return {.faults = model.get(),
            .recovery = recovery,
            .capacity = capacity,
            .earliest_commit = true};
  }
};

/// Mean stats of one (workload, scheduler) capacity-sweep cell; every
/// vector is parallel to the capacity list passed to run_capacity_cell.
struct CapacityCellStats {
  std::string scheduler;  // registry display name
  std::vector<Stats> makespan;
  std::vector<Stats> queue_wait;
  std::vector<Stats> injected;
  std::vector<Stats> reroutes;
};

/// The capacity-sweep trial loop shared by E13b and E19: per seeded trial,
/// generate the workload, plan the schedule, then re-execute its visit
/// orders under every capacity in `capacities` (0 = unbounded).
/// `seed_schedulers` passes the trial seed to the registry (E18/E19 style);
/// false keeps the registry's default seed (E13b's historic behavior).
/// `faults_for`, when set, supplies the per-trial fault model/recovery.
inline CapacityCellStats run_capacity_cell(
    const Metric& metric,
    const std::function<Instance(std::uint64_t)>& make_inst,
    const std::string& sched_name, bool seed_schedulers,
    const std::vector<std::size_t>& capacities, int trials,
    const std::function<TrialFaults(std::uint64_t)>& faults_for = {}) {
  CapacityCellStats cell;
  cell.makespan.resize(capacities.size());
  cell.queue_wait.resize(capacities.size());
  cell.injected.resize(capacities.size());
  cell.reroutes.resize(capacities.size());
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(trials);
       ++seed) {
    const Instance inst = make_inst(seed);
    auto sched = seed_schedulers ? make_scheduler_for(inst, sched_name, seed)
                                 : make_scheduler_for(inst, sched_name);
    cell.scheduler = sched->name();
    const Schedule s = sched->run(inst, metric);
    const TrialFaults faults = faults_for ? faults_for(seed) : TrialFaults{};
    for (std::size_t i = 0; i < capacities.size(); ++i) {
      const SimResult r =
          simulate(inst, metric, s, faults.options(capacities[i]));
      DTM_REQUIRE(r.ok, "capacity sim failed: " << r.summary());
      cell.makespan[i].add(static_cast<double>(r.realized_makespan));
      cell.queue_wait[i].add(static_cast<double>(r.total_queue_wait));
      cell.injected[i].add(static_cast<double>(r.faults.injected));
      cell.reroutes[i].add(static_cast<double>(r.faults.reroutes));
    }
  }
  return cell;
}

/// Series tables recorded for the JSON artifact (one per emit_table call).
class BenchReport {
 public:
  static BenchReport& instance() {
    static BenchReport r;
    return r;
  }

  void add_table(const std::string& name, const Table& t) {
    tables_.push_back({name, t.header(), t.data()});
  }

  /// Drops every recorded series. A binary that emits a second artifact
  /// (e.g. bench_faults' E20 reschedule sweep) clears the report after the
  /// first write_artifact so the two JSON files do not share series.
  void clear() { tables_.clear(); }

  /// Serializes series + telemetry snapshot as the BENCH_<name>.json schema
  /// ("dtm-bench-v1", see EXPERIMENTS.md). The provenance object (git sha,
  /// build type, compiler, invocation) is informational: bench_compare
  /// ignores top-level keys it does not know.
  std::string to_json(const std::string& bench_name,
                      const std::string& invocation = "") const {
    const TelemetrySnapshot snap = TelemetryRegistry::global().snapshot();
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("dtm-bench-v1");
    w.key("bench").value(bench_name);
    w.key("provenance").begin_object();
    for (const auto& [k, v] : build_provenance()) w.key(k).value(v);
    if (!invocation.empty()) w.key("invocation").value(invocation);
    w.end_object();
    w.key("series").begin_array();
    for (const auto& t : tables_) {
      w.begin_object();
      w.key("name").value(t.name);
      w.key("header").begin_array();
      for (const auto& h : t.header) w.value(h);
      w.end_array();
      w.key("rows").begin_array();
      for (const auto& row : t.rows) {
        w.begin_array();
        for (const auto& cell : row) w.value(cell);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("counters").begin_object();
    for (const auto& [name, v] : snap.counters) {
      if (v > 0) w.key(name).value(v);
    }
    w.end_object();
    w.key("timers").begin_object();
    for (const auto& [name, ts] : snap.timers) {
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
    // Informational memory row: peak RSS at artifact-write time.
    // bench_compare reports changes but never gates on them (machine- and
    // allocator-dependent); older artifacts without the block still load.
    w.key("rss").begin_object();
    w.key("peak_bytes").value(peak_rss_bytes());
    w.end_object();
    // Informational metrics block (benches that enable the MetricsRegistry
    // embed the final gauge/histogram snapshot; bench_compare reports
    // changes under metrics/ but never gates on them). Samples stay out —
    // they belong to the --metrics-out JSONL, not the bench artifact.
    if (MetricsRegistry::global().enabled()) {
      const MetricsSnapshot ms = MetricsRegistry::global().snapshot();
      w.key("metrics").begin_object();
      w.key("gauges").begin_object();
      for (const auto& [name, v] : ms.gauges) w.key(name).value(v);
      w.end_object();
      w.key("histograms").begin_object();
      for (const auto& [name, h] : ms.histograms) {
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
    w.end_object();
    return w.str();
  }

 private:
  struct Recorded {
    std::string name;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<Recorded> tables_;
};

/// Prints the table to stdout and records it as a named series for the
/// JSON artifact.
inline void emit_table(const std::string& name, const Table& t) {
  t.print(std::cout);
  BenchReport::instance().add_table(name, t);
}

/// Per-binary harness: parses --json-out[=PATH] through ArgParser and strips
/// it from argv before google-benchmark sees the remaining flags. Call
/// write_artifact() after the series ran (and before RunSpecifiedBenchmarks,
/// so the artifact only reflects deterministic series work).
class BenchMain {
 public:
  BenchMain(std::string bench_name, int& argc, char** argv)
      : name_(std::move(bench_name)) {
    invocation_ = argv[0] == nullptr ? name_ : std::string(argv[0]);
    for (int i = 1; i < argc; ++i) invocation_ += std::string(" ") + argv[i];
    const ArgParser args(argc, argv);
    if (args.has("json-out")) {
      json_path_ = args.get("json-out", "BENCH_" + name_ + ".json");
    }
    // Strip the flag (and its space-separated value) so that
    // benchmark::Initialize does not reject it as unrecognized.
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string tok = argv[i];
      if (tok == "--json-out" || tok.rfind("--json-out=", 0) == 0) {
        if (tok == "--json-out" && i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
          ++i;  // skip the value token as well
        }
        continue;
      }
      argv[out++] = argv[i];
    }
    argc = out;
  }

  /// Writes BENCH_<name>.json when --json-out was given; no-op otherwise.
  void write_artifact() const {
    if (json_path_.empty()) return;
    std::ofstream out(json_path_);
    DTM_REQUIRE(out.good(), "cannot open --json-out file " << json_path_);
    out << BenchReport::instance().to_json(name_, invocation_) << '\n';
    std::cout << "\nwrote " << json_path_ << "\n";
  }

  const std::string& json_path() const { return json_path_; }
  const std::string& invocation() const { return invocation_; }

 private:
  std::string name_;
  std::string invocation_;
  std::string json_path_;  // empty = no artifact requested
};

}  // namespace dtm::benchutil
