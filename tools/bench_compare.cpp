// bench_compare — diff two BENCH_*.json artifacts and flag regressions.
//
//   bench_compare BASELINE.json CANDIDATE.json [--threshold 25]
//                 [--no-timers]
//
// Three layers of comparison:
//  - series rows (the paper-style result tables) are seeded and
//    deterministic, so they must match CELL-FOR-CELL; any difference is a
//    regression regardless of threshold — it means the candidate computes
//    different answers, not just at a different speed;
//  - counters (counted work: queries, probes, legs moved) and phase-timer
//    means/totals diff by percentage: growth beyond --threshold percent is
//    a regression, and so is a baseline counter the candidate no longer
//    emits or a candidate counter the baseline lacks. Counters are deterministic for seeded benches; timers
//    are wall-clock and need a generous threshold. --no-timers drops the
//    timer layer entirely — use it when baseline and candidate come from
//    different machines or runs too short to time stably (CI gates on a
//    committed baseline compare series + counters only).
//  - environment-describing counters (pool.workers), the peak-RSS block,
//    and per-phase timer percentiles (p50/p95/max) are reported as "info"
//    but never flagged — they describe the machine and allocator, or are
//    shape diagnostics too noisy to gate on.
// Exits 1 if any regression was found, 0 otherwise.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json_reader.hpp"
#include "util/table.hpp"

namespace {

using dtm::Error;
using dtm::JsonValue;

// ------------------------------------------------------------- comparison

JsonValue load_artifact(const std::string& path) {
  JsonValue doc = dtm::load_json_file(path);
  const JsonValue* schema = doc.find("schema");
  DTM_REQUIRE(schema != nullptr && schema->str == "dtm-bench-v1",
              path << ": not a dtm-bench-v1 artifact");
  return doc;
}

/// Flat metric map: counters by name, timers by mean/total plus the
/// informational p50/p95/max percentiles (timers omitted when
/// `with_timers` is false).
std::map<std::string, double> metrics_of(const JsonValue& doc,
                                         bool with_timers) {
  std::map<std::string, double> out;
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, v] : counters->obj) {
      out["counter/" + name] = v.number;
    }
  }
  // Peak-RSS block (absent from older artifacts): informational — memory
  // use depends on machine and allocator, so changes are shown, never
  // flagged.
  if (const JsonValue* rss = doc.find("rss")) {
    for (const auto& [name, v] : rss->obj) {
      out["rss/" + name] = v.number;
    }
  }
  // Metrics block (absent unless the bench enabled the MetricsRegistry):
  // informational like rss/ — the gauge/histogram snapshot is a health
  // readout, and gating happens through stream_report --validate instead.
  if (const JsonValue* metrics = doc.find("metrics")) {
    if (const JsonValue* gauges = metrics->find("gauges")) {
      for (const auto& [name, v] : gauges->obj) {
        out["metrics/gauge/" + name] = v.number;
      }
    }
    if (const JsonValue* hists = metrics->find("histograms")) {
      for (const auto& [name, h] : hists->obj) {
        for (const auto& [field, v] : h.obj) {
          out["metrics/hist/" + name + "/" + field] = v.number;
        }
      }
    }
  }
  if (!with_timers) return out;
  if (const JsonValue* timers = doc.find("timers")) {
    for (const auto& [name, t] : timers->obj) {
      if (const JsonValue* mean = t.find("mean_ns")) {
        out["timer_mean_ns/" + name] = mean->number;
      }
      if (const JsonValue* total = t.find("total_ns")) {
        out["timer_total_ns/" + name] = total->number;
      }
      for (const char* pct : {"p50_ns", "p95_ns", "max_ns"}) {
        if (const JsonValue* v = t.find(pct)) {
          out[std::string("timer_") + pct + "/" + name] = v->number;
        }
      }
    }
  }
  return out;
}

/// Environment-describing metrics: reported on change, never a regression.
/// Timer percentiles ride along for visibility but single-sample phases
/// make p50 == max, so gating on them would just re-gate the mean.
bool informational(const std::string& name) {
  return name == "counter/pool.workers" || name.rfind("rss/", 0) == 0 ||
         name.rfind("metrics/", 0) == 0 ||
         name.rfind("timer_p50_ns/", 0) == 0 ||
         name.rfind("timer_p95_ns/", 0) == 0 ||
         name.rfind("timer_max_ns/", 0) == 0;
}

/// Exact cell-for-cell diff of the `series` arrays. Returns the number of
/// mismatching tables, printing one line per mismatch. Series rows come
/// from seeded deterministic runs, so ANY difference means the candidate
/// produces different results (schedules, bounds, ratios) — a correctness
/// regression no threshold can excuse.
int diff_series(const JsonValue& base, const JsonValue& cand) {
  auto tables_of = [](const JsonValue& doc) {
    std::map<std::string, const JsonValue*> out;
    if (const JsonValue* series = doc.find("series")) {
      for (const JsonValue& t : series->arr) {
        if (const JsonValue* name = t.find("name")) out[name->str] = &t;
      }
    }
    return out;
  };
  auto row_text = [](const JsonValue& row) {
    std::string out = "[";
    for (std::size_t i = 0; i < row.arr.size(); ++i) {
      out += (i ? ", " : "") + row.arr[i].str;
    }
    return out + "]";
  };
  const auto base_t = tables_of(base);
  const auto cand_t = tables_of(cand);
  int mismatches = 0;
  for (const auto& [name, bt] : base_t) {
    const auto it = cand_t.find(name);
    if (it == cand_t.end()) {
      std::cout << "series '" << name << "': missing from candidate\n";
      ++mismatches;
      continue;
    }
    const JsonValue* brows = bt->find("rows");
    const JsonValue* crows = it->second->find("rows");
    const std::size_t bn = brows ? brows->arr.size() : 0;
    const std::size_t cn = crows ? crows->arr.size() : 0;
    if (bn != cn) {
      std::cout << "series '" << name << "': " << bn << " baseline rows vs "
                << cn << " candidate rows\n";
      ++mismatches;
      continue;
    }
    for (std::size_t i = 0; i < bn; ++i) {
      const JsonValue& br = brows->arr[i];
      const JsonValue& cr = crows->arr[i];
      const bool same =
          br.arr.size() == cr.arr.size() &&
          std::equal(br.arr.begin(), br.arr.end(), cr.arr.begin(),
                     [](const JsonValue& a, const JsonValue& b) {
                       return a.str == b.str;
                     });
      if (!same) {
        std::cout << "series '" << name << "' row " << i
                  << " differs:\n  baseline:  " << row_text(br)
                  << "\n  candidate: " << row_text(cr) << "\n";
        ++mismatches;
        break;  // one row per table is enough to flag it
      }
    }
  }
  for (const auto& [name, ct] : cand_t) {
    (void)ct;
    if (!base_t.count(name)) {
      std::cout << "series '" << name << "': added in candidate\n";
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dtm::ArgParser args(argc, argv);
    const double threshold_pct =
        static_cast<double>(args.get_int("threshold", 25));
    const bool with_timers = !args.has("no-timers");
    const auto files = args.positional();
    if (args.has("help") || files.size() != 2) {
      std::cerr << "usage: bench_compare BASELINE.json CANDIDATE.json "
                   "[--threshold PCT] [--no-timers]\n";
      return files.size() == 2 ? 0 : 2;
    }
    const JsonValue base = load_artifact(files[0]);
    const JsonValue cand = load_artifact(files[1]);
    const auto base_m = metrics_of(base, with_timers);
    const auto cand_m = metrics_of(cand, with_timers);

    int regressions = diff_series(base, cand);

    dtm::Table table({"metric", "baseline", "candidate", "change %", "verdict"});
    for (const auto& [name, old_v] : base_m) {
      const auto it = cand_m.find(name);
      if (it == cand_m.end()) {
        // A counter that stops being emitted would hide whatever it
        // measured from every later comparison.
        const bool vanished =
            name.rfind("counter/", 0) == 0 && !informational(name);
        if (vanished) ++regressions;
        table.add_row(name, old_v, "-", "-", vanished ? "REMOVED" : "removed");
        continue;
      }
      const double new_v = it->second;
      if (informational(name)) {
        if (new_v != old_v) table.add_row(name, old_v, new_v, "-", "info");
        continue;
      }
      if (old_v <= 0) {
        table.add_row(name, old_v, new_v, "-", new_v > 0 ? "new work" : "ok");
        continue;
      }
      const double change_pct = (new_v - old_v) / old_v * 100.0;
      const bool regressed = change_pct > threshold_pct;
      if (regressed) ++regressions;
      if (regressed || change_pct < -threshold_pct) {
        table.add_row(name, old_v, new_v, change_pct,
                      regressed ? "REGRESSION" : "improved");
      }
    }
    for (const auto& [name, new_v] : cand_m) {
      if (base_m.count(name)) continue;
      // An ungated counter: whatever it measures could grow unnoticed
      // until the baseline is re-recorded with it.
      const bool unrecorded =
          name.rfind("counter/", 0) == 0 && !informational(name);
      if (unrecorded) ++regressions;
      table.add_row(name, "-", new_v, "-", unrecorded ? "ADDED" : "added");
    }
    if (table.rows() == 0) {
      std::cout << "no changes beyond " << threshold_pct << "% threshold ("
                << base_m.size() << " metrics compared)\n";
    } else {
      table.print(std::cout);
    }
    if (regressions > 0) {
      std::cout << regressions << " regression(s) above " << threshold_pct
                << "%\n";
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
