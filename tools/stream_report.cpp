// stream_report — SLO-style summary of a dtm-metrics-v1 JSONL file
// (dtm_cli --metrics-out / bench_stream --metrics-out).
//
//   stream_report METRICS.jsonl [--json] [--validate]
//
// Sections:
//  - latency/health histograms: count, mean, p50/p95/p99 and max per
//    histogram (percentiles are nearest-rank bucket lower bounds — the
//    same deterministic integers the registry reports);
//  - stream health from the "window" sample series: admitted totals, final
//    backlog, and the least-squares backlog drift slope (txns per step —
//    the boundedness signal E22 asserts, now measurable: a stable stream
//    hovers near 0, an overloaded one grows linearly);
//  - quota cadence from the per-window quota field: raises, cuts, and mean
//    windows between changes (AIMD oscillation at a glance);
//  - shard imbalance from the "shard" sample series (present with
//    --shards > 1): mean/peak imbalance coefficient peak_members * shards /
//    batch (1.0 = perfectly balanced windows) and the cross-shard share.
//
// --validate runs structural checks for CI and exits 1 on any failure:
//  - the header line carries schema dtm-metrics-v1;
//  - "window" sample times are strictly increasing;
//  - every histogram's min/max fall inside its first/last occupied bucket;
//  - the stream.latency.* histogram counts reconcile with the
//    stream.admitted gauge and the per-window admitted samples;
//  - the three latency stages tile arrival->commit exactly (equal counts,
//    stage sums adding up to the total's sum) — the same identity
//    metrics_test pins against an engine replay.
// Every run, validating or not, rejects a histogram line whose bucket
// indices are not ascending integers in [0, hdr::kNumBuckets), whose
// count/sum/min/max/bucket counts are not non-negative integers, or whose
// bucket counts do not sum to its count (exit 2, like any parse error).
// --json emits the whole report (and the validation verdict) as one JSON
// document instead of tables.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

namespace {

using dtm::Error;
using dtm::HistogramSnapshot;
using dtm::JsonReader;
using dtm::JsonValue;
using dtm::JsonWriter;
using dtm::Table;

struct SampleRow {
  std::map<std::string, double> fields;
  double field(const std::string& name) const {
    const auto it = fields.find(name);
    DTM_REQUIRE(it != fields.end(), "sample row missing field " << name);
    return it->second;
  }
  bool has(const std::string& name) const { return fields.count(name) != 0; }
};

/// A JSON number that is a non-negative integer representable as uint64;
/// throws dtm::Error (naming `what`) otherwise.
std::uint64_t non_negative_integer(const JsonValue& v, const std::string& what) {
  DTM_REQUIRE(v.kind == JsonValue::Kind::kNumber && v.number >= 0 &&
                  v.number == std::floor(v.number) && v.number < 0x1p64,
              what << " must be a non-negative integer");
  return static_cast<std::uint64_t>(v.number);
}

struct ParsedMetrics {
  std::map<std::string, std::string> provenance;
  std::map<std::string, std::vector<SampleRow>> series;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

ParsedMetrics parse_file(const std::string& path) {
  std::ifstream in(path);
  DTM_REQUIRE(in.good(), "cannot open metrics file " << path);
  ParsedMetrics out;
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v = JsonReader(line).parse();
    if (const JsonValue* schema = v.find("schema")) {
      DTM_REQUIRE(schema->str == "dtm-metrics-v1",
                  path << ":" << lineno << ": unsupported schema '"
                       << schema->str << "' (expected dtm-metrics-v1)");
      DTM_REQUIRE(!saw_header, path << ":" << lineno << ": duplicate header");
      saw_header = true;
      if (const JsonValue* prov = v.find("provenance")) {
        for (const auto& [k, pv] : prov->obj) out.provenance[k] = pv.str;
      }
      continue;
    }
    DTM_REQUIRE(saw_header,
                path << ":" << lineno
                     << ": first line must be the dtm-metrics-v1 header");
    if (const JsonValue* series = v.find("series")) {
      SampleRow row;
      for (const auto& [k, fv] : v.obj) {
        if (k == "series") continue;
        row.fields[k] = fv.number;
      }
      out.series[series->str].push_back(std::move(row));
      continue;
    }
    if (const JsonValue* gauge = v.find("gauge")) {
      const JsonValue* value = v.find("value");
      DTM_REQUIRE(value != nullptr,
                  path << ":" << lineno << ": gauge line without value");
      out.gauges[gauge->str] = static_cast<std::int64_t>(value->number);
      continue;
    }
    if (const JsonValue* hist = v.find("hist")) {
      // Checked here, not only under --validate: percentile() walks the
      // buckets, so an index past the geometry, a negative or fractional
      // number, or counts that miss the total would report garbage.
      HistogramSnapshot h;
      const std::string where =
          path + ":" + std::to_string(lineno) + ": hist " + hist->str;
      for (const char* f : {"count", "sum", "min", "max", "buckets"}) {
        DTM_REQUIRE(v.find(f) != nullptr, where << " without " << f);
      }
      h.count = non_negative_integer(*v.find("count"), where + " count");
      h.sum = non_negative_integer(*v.find("sum"), where + " sum");
      h.min = non_negative_integer(*v.find("min"), where + " min");
      h.max = non_negative_integer(*v.find("max"), where + " max");
      std::uint64_t total = 0;
      for (const JsonValue& b : v.find("buckets")->arr) {
        DTM_REQUIRE(b.arr.size() == 2,
                    where << ": bucket entry must be [idx, count]");
        const std::uint64_t idx =
            non_negative_integer(b.arr[0], where + " bucket index");
        DTM_REQUIRE(idx < dtm::hdr::kNumBuckets,
                    where << ": bucket index " << idx << " out of [0, "
                          << dtm::hdr::kNumBuckets << ")");
        DTM_REQUIRE(h.buckets.empty() || idx > h.buckets.back().first,
                    where << ": bucket indices not ascending");
        const std::uint64_t c =
            non_negative_integer(b.arr[1], where + " bucket count");
        DTM_REQUIRE(c <= h.count - total,  // also keeps `total` from wrapping
                    where << ": bucket counts exceed count " << h.count);
        h.buckets.emplace_back(static_cast<std::uint32_t>(idx), c);
        total += c;
      }
      DTM_REQUIRE(total == h.count, where << ": bucket counts sum to " << total
                                          << " but count is " << h.count);
      out.histograms[hist->str] = std::move(h);
      continue;
    }
    DTM_REQUIRE(false, path << ":" << lineno << ": unrecognized line kind");
  }
  DTM_REQUIRE(saw_header, path << ": empty file (no dtm-metrics-v1 header)");
  return out;
}

// ------------------------------------------------------------- summaries

struct StreamSummary {
  std::size_t windows = 0;
  std::uint64_t admitted = 0;
  double final_backlog = 0;
  double peak_backlog = 0;
  /// Least-squares slope of backlog over window-close time (txns/step).
  double backlog_slope = 0;
};

StreamSummary summarize_stream(const std::vector<SampleRow>& windows) {
  StreamSummary s;
  s.windows = windows.size();
  double st = 0, sb = 0, stt = 0, stb = 0;
  for (const SampleRow& r : windows) {
    const double t = r.field("t");
    const double b = r.field("backlog");
    s.admitted += static_cast<std::uint64_t>(r.field("admitted"));
    s.peak_backlog = std::max(s.peak_backlog, b);
    st += t;
    sb += b;
    stt += t * t;
    stb += t * b;
  }
  if (!windows.empty()) s.final_backlog = windows.back().field("backlog");
  const double n = static_cast<double>(windows.size());
  const double det = n * stt - st * st;
  if (windows.size() >= 2 && det != 0) {
    s.backlog_slope = (n * stb - st * sb) / det;
  }
  return s;
}

struct QuotaSummary {
  std::size_t raises = 0;
  std::size_t cuts = 0;
  double min_quota = 0;
  double max_quota = 0;
  /// Mean windows between consecutive quota changes (0 when none changed).
  double mean_windows_between_changes = 0;
};

QuotaSummary summarize_quota(const std::vector<SampleRow>& windows) {
  QuotaSummary q;
  if (windows.empty()) return q;
  q.min_quota = q.max_quota = windows.front().field("quota");
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const double prev = windows[i - 1].field("quota");
    const double cur = windows[i].field("quota");
    if (cur > prev) ++q.raises;
    if (cur < prev) ++q.cuts;
    q.min_quota = std::min(q.min_quota, cur);
    q.max_quota = std::max(q.max_quota, cur);
  }
  const std::size_t changes = q.raises + q.cuts;
  if (changes > 0) {
    q.mean_windows_between_changes =
        static_cast<double>(windows.size()) / static_cast<double>(changes);
  }
  return q;
}

struct ShardSummary {
  std::size_t windows = 0;
  /// Mean/peak of peak_members * shards / batch per window (1.0 = balanced).
  double mean_imbalance = 0;
  double peak_imbalance = 0;
  /// Cross-shard transactions / admitted batch members.
  double cross_share = 0;
};

ShardSummary summarize_shards(const std::vector<SampleRow>& shards) {
  ShardSummary s;
  s.windows = shards.size();
  double total_batch = 0, total_cross = 0, sum_coeff = 0;
  std::size_t coeff_windows = 0;
  for (const SampleRow& r : shards) {
    const double batch = r.field("batch");
    total_batch += batch;
    total_cross += r.field("cross");
    if (batch > 0) {
      const double coeff = r.field("peak_members") * r.field("shards") / batch;
      sum_coeff += coeff;
      s.peak_imbalance = std::max(s.peak_imbalance, coeff);
      ++coeff_windows;
    }
  }
  if (coeff_windows > 0) {
    s.mean_imbalance = sum_coeff / static_cast<double>(coeff_windows);
  }
  if (total_batch > 0) s.cross_share = total_cross / total_batch;
  return s;
}

// ------------------------------------------------------------- validation

std::vector<std::string> validate(const ParsedMetrics& m) {
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& msg) { errors.push_back(msg); };

  // Window sample times must be strictly increasing (one row per window
  // close; a violation means two runs' samples were concatenated).
  const auto wit = m.series.find("window");
  if (wit != m.series.end()) {
    for (std::size_t i = 1; i < wit->second.size(); ++i) {
      if (wit->second[i].field("t") <= wit->second[i - 1].field("t")) {
        std::ostringstream os;
        os << "window sample " << i << " time " << wit->second[i].field("t")
           << " does not advance past " << wit->second[i - 1].field("t");
        fail(os.str());
        break;
      }
    }
  }

  // Histogram min/max live inside the first/last occupied bucket (bucket
  // indices and counts were already checked while parsing).
  for (const auto& [name, h] : m.histograms) {
    if (!h.buckets.empty()) {
      const std::uint32_t lo = h.buckets.front().first;
      const std::uint32_t hi = h.buckets.back().first;
      if (h.min < dtm::hdr::bucket_lower(lo) ||
          h.min > dtm::hdr::bucket_upper(lo)) {
        fail("hist " + name + ": min outside its first occupied bucket");
      }
      if (h.max < dtm::hdr::bucket_lower(hi) ||
          h.max > dtm::hdr::bucket_upper(hi)) {
        fail("hist " + name + ": max outside its last occupied bucket");
      }
    }
  }

  // Latency histogram counts reconcile with stream.admitted (each admitted
  // transaction is scheduled exactly once) and the per-window samples.
  const auto git = m.gauges.find("stream.admitted");
  const char* kStages[] = {"stream.latency.arrival_to_admit",
                           "stream.latency.admit_to_scheduled",
                           "stream.latency.scheduled_to_commit",
                           "stream.latency.arrival_to_commit"};
  if (git != m.gauges.end()) {
    const auto admitted = static_cast<std::uint64_t>(git->second);
    for (const char* stage : kStages) {
      const auto hit = m.histograms.find(stage);
      const std::uint64_t c = hit == m.histograms.end() ? 0 : hit->second.count;
      if (c != admitted) {
        std::ostringstream os;
        os << "hist " << stage << " count " << c
           << " != stream.admitted gauge " << admitted;
        fail(os.str());
      }
    }
    if (wit != m.series.end()) {
      std::uint64_t sampled = 0;
      for (const SampleRow& r : wit->second) {
        sampled += static_cast<std::uint64_t>(r.field("admitted"));
      }
      if (sampled != admitted) {
        std::ostringstream os;
        os << "window samples admit " << sampled
           << " transactions but stream.admitted gauge says " << admitted;
        fail(os.str());
      }
    }
  }

  // Latency tiling: the three stages partition arrival->commit, so their
  // sums must add up exactly (and counts already reconcile above).
  const auto hist_sum = [&](const char* name) -> std::uint64_t {
    const auto it = m.histograms.find(name);
    return it == m.histograms.end() ? 0 : it->second.sum;
  };
  if (m.histograms.count("stream.latency.arrival_to_commit")) {
    const std::uint64_t stages = hist_sum(kStages[0]) + hist_sum(kStages[1]) +
                                 hist_sum(kStages[2]);
    const std::uint64_t total = hist_sum(kStages[3]);
    if (stages != total) {
      std::ostringstream os;
      os << "latency stages sum to " << stages
         << " steps but arrival_to_commit sums to " << total;
      fail(os.str());
    }
  }
  return errors;
}

// ------------------------------------------------------------- reporting

void print_tables(const ParsedMetrics& m) {
  if (!m.histograms.empty()) {
    Table t({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : m.histograms) {
      t.add_row(name, h.count, h.mean(), h.percentile(50), h.percentile(95),
                h.percentile(99), h.max);
    }
    std::cout << "latency / health histograms (percentiles are bucket lower "
                 "bounds):\n";
    t.print(std::cout);
  }
  const auto wit = m.series.find("window");
  if (wit != m.series.end()) {
    const StreamSummary s = summarize_stream(wit->second);
    const QuotaSummary q = summarize_quota(wit->second);
    Table t({"windows", "admitted", "final_backlog", "peak_backlog",
             "backlog_slope", "quota_raises", "quota_cuts", "quota_span",
             "windows_per_change"});
    std::ostringstream span;
    span << q.min_quota << ".." << q.max_quota;
    t.add_row(s.windows, s.admitted, s.final_backlog, s.peak_backlog,
              s.backlog_slope, q.raises, q.cuts, span.str(),
              q.mean_windows_between_changes);
    std::cout << "\nstream health (backlog_slope ~ 0 = bounded backlog):\n";
    t.print(std::cout);
  }
  const auto sit = m.series.find("shard");
  if (sit != m.series.end()) {
    const ShardSummary s = summarize_shards(sit->second);
    Table t({"windows", "mean_imbalance", "peak_imbalance", "cross_share"});
    t.add_row(s.windows, s.mean_imbalance, s.peak_imbalance, s.cross_share);
    std::cout << "\nshard balance (imbalance 1.0 = ideal partition):\n";
    t.print(std::cout);
  }
  if (!m.gauges.empty()) {
    Table t({"gauge", "value"});
    for (const auto& [name, v] : m.gauges) t.add_row(name, v);
    std::cout << "\ngauges:\n";
    t.print(std::cout);
  }
}

std::string report_json(const ParsedMetrics& m,
                        const std::vector<std::string>& errors,
                        bool validated) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dtm-stream-report-v1");
  w.key("histograms").begin_object();
  for (const auto& [name, h] : m.histograms) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("mean").value(h.mean());
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.key("p50").value(h.percentile(50));
    w.key("p95").value(h.percentile(95));
    w.key("p99").value(h.percentile(99));
    w.end_object();
  }
  w.end_object();
  const auto wit = m.series.find("window");
  if (wit != m.series.end()) {
    const StreamSummary s = summarize_stream(wit->second);
    const QuotaSummary q = summarize_quota(wit->second);
    w.key("stream").begin_object();
    w.key("windows").value(static_cast<std::uint64_t>(s.windows));
    w.key("admitted").value(s.admitted);
    w.key("final_backlog").value(s.final_backlog);
    w.key("peak_backlog").value(s.peak_backlog);
    w.key("backlog_slope").value(s.backlog_slope);
    w.end_object();
    w.key("quota").begin_object();
    w.key("raises").value(static_cast<std::uint64_t>(q.raises));
    w.key("cuts").value(static_cast<std::uint64_t>(q.cuts));
    w.key("min").value(q.min_quota);
    w.key("max").value(q.max_quota);
    w.key("mean_windows_between_changes")
        .value(q.mean_windows_between_changes);
    w.end_object();
  }
  const auto sit = m.series.find("shard");
  if (sit != m.series.end()) {
    const ShardSummary s = summarize_shards(sit->second);
    w.key("shards").begin_object();
    w.key("windows").value(static_cast<std::uint64_t>(s.windows));
    w.key("mean_imbalance").value(s.mean_imbalance);
    w.key("peak_imbalance").value(s.peak_imbalance);
    w.key("cross_share").value(s.cross_share);
    w.end_object();
  }
  w.key("gauges").begin_object();
  for (const auto& [name, v] : m.gauges) w.key(name).value(v);
  w.end_object();
  if (validated) {
    w.key("validate").begin_object();
    w.key("ok").value(errors.empty());
    w.key("errors").begin_array();
    for (const std::string& e : errors) w.value(e);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dtm::ArgParser args(argc, argv);
    const bool as_json = args.has("json");
    const bool do_validate = args.has("validate");
    const auto files = args.positional();
    if (args.has("help") || files.size() != 1) {
      std::cerr << "usage: stream_report METRICS.jsonl [--json] "
                   "[--validate]\n";
      return files.size() == 1 ? 0 : 2;
    }
    const ParsedMetrics m = parse_file(files[0]);
    const std::vector<std::string> errors =
        do_validate ? validate(m) : std::vector<std::string>{};
    if (as_json) {
      std::cout << report_json(m, errors, do_validate) << '\n';
    } else {
      print_tables(m);
    }
    if (do_validate) {
      if (!errors.empty()) {
        for (const std::string& e : errors) {
          std::cerr << "validate: " << e << '\n';
        }
        std::cerr << "validate: FAIL (" << errors.size() << " error(s))\n";
        return 1;
      }
      if (!as_json) std::cout << "\nvalidate: OK\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
