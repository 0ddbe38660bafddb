// trace_summarize — analyze a dtm execution trace (Chrome trace-event
// JSON or deterministic JSONL, both as written by TraceRecorder).
//
//   trace_summarize FILE [--json] [--validate] [--top N]
//
// The file's sim-domain events are read back into an engine log
// (SimEvent records, sim/engine.hpp) with log_record and summarized by
// summarize_trace; wall-domain phase spans are skipped. Default output:
// provenance, the realized-makespan critical path (the dependency chain of
// transfers and waits whose lengths sum to the makespan), per-link
// utilization, top-k queue waits, and top per-transaction slack — as
// ASCII tables. --json emits the same summary as one JSON document.
// --validate runs a structural schema check plus the critical-path
// consistency check (segment sum == makespan, no chain violations) and
// exits 1 when either fails — CI gates the smoke trace on it.
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace_analysis.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using dtm::Error;
using dtm::JsonReader;
using dtm::JsonValue;
using dtm::SimEvent;

struct ParsedTrace {
  std::string schema;
  std::map<std::string, std::string> provenance;
  /// The sim-domain events as an engine log.
  std::vector<SimEvent> log;
  bool has_span = false;
  /// Structural findings made while parsing (reported by --validate).
  std::vector<std::string> malformed;
};

/// One exported sim- or wall-domain event, as read from the file.
struct FileEvent {
  std::string cat;
  bool instant = false;
  bool wall = false;
  double begin = 0;
  double end = 0;
  std::string track;
  std::string name;
  const JsonValue* args = nullptr;
};

/// Appends one file event to the parsed log (sim/trace_analysis.hpp
/// log_record reads it back). Wall-domain phase spans carry no engine
/// record; any other event that is not one is an error.
void add_event(ParsedTrace& out, const FileEvent& ev, std::size_t index) {
  // Timestamps and arguments are whole numbers that a Time or an int64
  // holds exactly; one outside [0, 2^53] (or NaN) has nothing to convert
  // to.
  constexpr double kMaxTime = 9007199254740992.0;
  if (!(ev.begin >= 0 && ev.end >= 0 && ev.begin <= kMaxTime &&
        ev.end <= kMaxTime)) {
    out.malformed.push_back("event " + std::to_string(index) + " ('" +
                            ev.name + "') has a timestamp outside [0, 2^53]");
    return;
  }
  if (ev.end < ev.begin) {
    out.malformed.push_back("event " + std::to_string(index) + " ('" +
                            ev.name + "') ends before it begins");
  }
  if (ev.name.empty() || ev.track.empty()) {
    out.malformed.push_back("event " + std::to_string(index) +
                            " has an empty name or track");
  }
  if (ev.wall || ev.cat == "phase") return;
  if (!ev.instant) out.has_span = true;
  dtm::TraceSpanRecord rec;
  rec.cat = ev.cat.c_str();
  rec.instant = ev.instant;
  rec.begin = ev.begin;
  rec.end = ev.end;
  rec.track = ev.track;
  rec.name = ev.name;
  if (ev.args != nullptr) {
    for (const auto& [key, v] : ev.args->obj) {
      if (v.kind != JsonValue::Kind::kNumber) continue;
      if (!(v.number >= -kMaxTime && v.number <= kMaxTime)) {
        out.malformed.push_back("event " + std::to_string(index) + " ('" +
                                ev.name + "') has an argument outside "
                                "[-2^53, 2^53]");
        return;
      }
      rec.args.push_back({key, static_cast<std::int64_t>(v.number)});
    }
  }
  const SimEvent e = dtm::log_record(rec);
  DTM_REQUIRE(e.kind != SimEvent::Kind::kNone,
              "trace: event " << index << " ('" << ev.name << "', category '"
                              << ev.cat << "') is no engine log record");
  out.log.push_back(e);
}

ParsedTrace parse_chrome(const JsonValue& doc) {
  ParsedTrace out;
  if (const JsonValue* other = doc.find("otherData")) {
    if (const JsonValue* schema = other->find("schema")) {
      out.schema = schema->str;
    }
    if (const JsonValue* prov = other->find("provenance")) {
      for (const auto& [k, v] : prov->obj) out.provenance[k] = v.str;
    }
  }
  const JsonValue* evs = doc.find("traceEvents");
  DTM_REQUIRE(evs != nullptr, "chrome trace: no traceEvents array");
  // pid/tid -> track name from the "M" thread_name metadata.
  std::map<std::pair<int, int>, std::string> tracks;
  for (const JsonValue& ev : evs->arr) {
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || ph->str != "M") continue;
    const JsonValue* name = ev.find("name");
    if (name == nullptr || name->str != "thread_name") continue;
    const JsonValue* args = ev.find("args");
    const JsonValue* pid = ev.find("pid");
    const JsonValue* tid = ev.find("tid");
    if (args == nullptr || pid == nullptr || tid == nullptr) continue;
    if (const JsonValue* track = args->find("name")) {
      tracks[{static_cast<int>(pid->number), static_cast<int>(tid->number)}] =
          track->str;
    }
  }
  std::size_t index = 0;
  for (const JsonValue& ev : evs->arr) {
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || (ph->str != "X" && ph->str != "i")) continue;
    const JsonValue* name = ev.find("name");
    const JsonValue* cat = ev.find("cat");
    const JsonValue* ts = ev.find("ts");
    const JsonValue* pid = ev.find("pid");
    const JsonValue* tid = ev.find("tid");
    DTM_REQUIRE(name != nullptr && cat != nullptr && ts != nullptr &&
                    pid != nullptr && tid != nullptr,
                "chrome trace: event missing name/cat/ts/pid/tid");
    FileEvent fe;
    fe.cat = cat->str;
    fe.instant = ph->str == "i";
    fe.wall = static_cast<int>(pid->number) != 0;
    fe.begin = ts->number;
    fe.end = ts->number;
    if (!fe.instant) {
      if (const JsonValue* dur = ev.find("dur")) {
        fe.end = ts->number + dur->number;
      }
    }
    const auto tr = tracks.find(
        {static_cast<int>(pid->number), static_cast<int>(tid->number)});
    fe.track = tr != tracks.end() ? tr->second : "?";
    fe.name = name->str;
    fe.args = ev.find("args");
    add_event(out, fe, index++);
  }
  return out;
}

ParsedTrace parse_jsonl(const std::string& text) {
  ParsedTrace out;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  std::size_t lineno = 0;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v = JsonReader(line).parse();
    if (first) {
      first = false;
      const JsonValue* schema = v.find("schema");
      DTM_REQUIRE(schema != nullptr, "jsonl trace: line 1 has no schema");
      out.schema = schema->str;
      if (const JsonValue* prov = v.find("provenance")) {
        for (const auto& [k, pv] : prov->obj) out.provenance[k] = pv.str;
      }
      continue;
    }
    const JsonValue* cat = v.find("cat");
    const JsonValue* kind = v.find("kind");
    const JsonValue* track = v.find("track");
    const JsonValue* name = v.find("name");
    const JsonValue* begin = v.find("begin");
    const JsonValue* end = v.find("end");
    DTM_REQUIRE(cat != nullptr && kind != nullptr && track != nullptr &&
                    name != nullptr && begin != nullptr && end != nullptr,
                "jsonl trace: line " << lineno << " missing a required key");
    FileEvent fe;
    fe.cat = cat->str;
    fe.instant = kind->str == "instant";
    fe.track = track->str;
    fe.name = name->str;
    fe.begin = begin->number;
    fe.end = end->number;
    fe.args = v.find("args");
    add_event(out, fe, index++);
  }
  DTM_REQUIRE(!first, "jsonl trace: empty file");
  return out;
}

ParsedTrace parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  DTM_REQUIRE(in.good(), "cannot open " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // The JSONL header line names its schema; anything else is parsed as one
  // Chrome trace-event document.
  const auto nl = text.find('\n');
  const std::string head = text.substr(0, nl);
  if (head.find("dtm-trace-jsonl-v1") != std::string::npos) {
    return parse_jsonl(text);
  }
  return parse_chrome(JsonReader(text).parse());
}

/// Structural schema check; appends findings to `issues`.
void validate_structure(const ParsedTrace& trace,
                        std::vector<std::string>& issues) {
  if (trace.schema != "dtm-trace-chrome-v1" &&
      trace.schema != "dtm-trace-jsonl-v1") {
    issues.push_back("unknown or missing schema marker: '" + trace.schema +
                     "'");
  }
  for (const char* key : {"git_sha", "build_type", "compiler"}) {
    const auto it = trace.provenance.find(key);
    if (it == trace.provenance.end() || it->second.empty()) {
      issues.push_back(std::string("provenance is missing '") + key + "'");
    }
  }
  if (trace.log.empty()) issues.push_back("trace contains no events");
  // A trace with instants but no duration spans has makespan 0, which
  // makes the tiling invariant pass vacuously — reject it outright.
  if (!trace.log.empty() && !trace.has_span) {
    issues.push_back(
        "trace contains no duration spans (nothing executed); the "
        "critical-path check would pass vacuously");
  }
  issues.insert(issues.end(), trace.malformed.begin(), trace.malformed.end());
}

const char* kind_name(dtm::CriticalSegment::Kind k) {
  return k == dtm::CriticalSegment::Kind::kTransfer ? "transfer" : "wait";
}

void print_tables(const ParsedTrace& trace, const dtm::TraceSummary& sum) {
  std::cout << "provenance:";
  for (const auto& [k, v] : trace.provenance) {
    std::cout << ' ' << k << '=' << v;
  }
  std::cout << "\n\nmakespan " << sum.makespan << ", critical-path total "
            << sum.critical_total << " over " << sum.critical_path.size()
            << " segment(s)";
  if (sum.reschedules > 0) {
    std::cout << ", " << sum.reschedules << " reschedule(s)";
  }
  std::cout << (sum.consistent() ? "" : "  [INCONSISTENT]") << "\n\n";

  dtm::Table cp({"segment", "begin", "end", "len", "txn", "object", "leg",
                 "from", "to"});
  for (const dtm::CriticalSegment& s : sum.critical_path) {
    if (s.kind == dtm::CriticalSegment::Kind::kTransfer) {
      cp.add_row(kind_name(s.kind), s.begin, s.end, s.length(), s.txn,
                 s.object, s.leg, s.from, s.to);
    } else {
      cp.add_row(kind_name(s.kind), s.begin, s.end, s.length(), s.txn, "-",
                 "-", "-", "-");
    }
  }
  std::cout << "critical path:\n";
  cp.print(std::cout);

  if (!sum.links.empty()) {
    dtm::Table lt({"link", "busy", "legs", "busy/makespan"});
    for (const dtm::LinkUtilization& l : sum.links) {
      const double util =
          sum.makespan > 0
              ? static_cast<double>(l.busy) / static_cast<double>(sum.makespan)
              : 0.0;
      lt.add_row(l.track, l.busy, l.legs, util);
    }
    std::cout << "\nlink utilization:\n";
    lt.print(std::cout);
  }

  if (!sum.queue_waits.empty()) {
    dtm::Table qt({"link", "object", "leg", "queued", "admitted", "wait"});
    for (const dtm::QueueWaitEntry& q : sum.queue_waits) {
      qt.add_row(q.track, q.object, q.leg, q.begin, q.end, q.length());
    }
    std::cout << "\ntop queue waits:\n";
    qt.print(std::cout);
  }

  if (sum.latency.count > 0) {
    dtm::Table la({"txns", "mean", "p50", "p95", "p99", "min", "max"});
    la.add_row(sum.latency.count, sum.latency.mean, sum.latency.p50,
               sum.latency.p95, sum.latency.p99, sum.latency.min,
               sum.latency.max);
    std::cout << "\narrival->commit latency:\n";
    la.print(std::cout);
  }

  if (!sum.slack.empty()) {
    dtm::Table st({"txn", "assembled", "planned", "realized", "slack"});
    std::size_t shown = 0;
    for (const dtm::TxnSlack& s : sum.slack) {
      if (shown++ >= 10) break;
      st.add_row(s.txn, s.assembled, s.planned, s.realized, s.slack);
    }
    std::cout << "\ntop transaction slack:\n";
    st.print(std::cout);
  }

  if (!sum.problems.empty()) {
    std::cout << "\nproblems:\n";
    for (const std::string& p : sum.problems) std::cout << "  " << p << '\n';
  }
}

std::string to_json(const ParsedTrace& trace, const dtm::TraceSummary& sum) {
  dtm::JsonWriter w;
  w.begin_object();
  w.key("schema").value("dtm-trace-summary-v1");
  w.key("provenance").begin_object();
  for (const auto& [k, v] : trace.provenance) w.key(k).value(v);
  w.end_object();
  w.key("makespan").value(static_cast<std::int64_t>(sum.makespan));
  w.key("critical_total").value(static_cast<std::int64_t>(sum.critical_total));
  w.key("consistent").value(sum.consistent());
  w.key("reschedules").value(static_cast<std::uint64_t>(sum.reschedules));
  w.key("critical_path").begin_array();
  for (const dtm::CriticalSegment& s : sum.critical_path) {
    w.begin_object()
        .key("kind")
        .value(kind_name(s.kind))
        .key("begin")
        .value(static_cast<std::int64_t>(s.begin))
        .key("end")
        .value(static_cast<std::int64_t>(s.end))
        .key("txn")
        .value(s.txn);
    if (s.kind == dtm::CriticalSegment::Kind::kTransfer) {
      w.key("object").value(s.object).key("leg").value(s.leg);
      w.key("from").value(s.from).key("to").value(s.to);
    }
    w.end_object();
  }
  w.end_array();
  w.key("links").begin_array();
  for (const dtm::LinkUtilization& l : sum.links) {
    w.begin_object()
        .key("link")
        .value(l.track)
        .key("busy")
        .value(static_cast<std::int64_t>(l.busy))
        .key("legs")
        .value(static_cast<std::uint64_t>(l.legs))
        .end_object();
  }
  w.end_array();
  w.key("queue_waits").begin_array();
  for (const dtm::QueueWaitEntry& q : sum.queue_waits) {
    w.begin_object()
        .key("link")
        .value(q.track)
        .key("object")
        .value(q.object)
        .key("leg")
        .value(q.leg)
        .key("begin")
        .value(static_cast<std::int64_t>(q.begin))
        .key("end")
        .value(static_cast<std::int64_t>(q.end))
        .end_object();
  }
  w.end_array();
  w.key("latency").begin_object();
  w.key("count").value(static_cast<std::uint64_t>(sum.latency.count));
  w.key("sum").value(static_cast<std::int64_t>(sum.latency.sum));
  w.key("min").value(static_cast<std::int64_t>(sum.latency.min));
  w.key("max").value(static_cast<std::int64_t>(sum.latency.max));
  w.key("mean").value(sum.latency.mean);
  w.key("p50").value(sum.latency.p50);
  w.key("p95").value(sum.latency.p95);
  w.key("p99").value(sum.latency.p99);
  w.end_object();
  w.key("slack").begin_array();
  for (const dtm::TxnSlack& s : sum.slack) {
    w.begin_object()
        .key("txn")
        .value(s.txn)
        .key("assembled")
        .value(static_cast<std::int64_t>(s.assembled))
        .key("planned")
        .value(static_cast<std::int64_t>(s.planned))
        .key("realized")
        .value(static_cast<std::int64_t>(s.realized))
        .key("slack")
        .value(static_cast<std::int64_t>(s.slack))
        .end_object();
  }
  w.end_array();
  w.key("problems").begin_array();
  for (const std::string& p : sum.problems) w.value(p);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dtm::ArgParser args(argc, argv);
    const bool json = args.has("json");
    const bool validate = args.has("validate");
    const auto top_k = static_cast<std::size_t>(args.get_int("top", 10));
    const auto files = args.positional();
    if (args.has("help") || files.size() != 1) {
      std::cerr << "usage: trace_summarize FILE [--json] [--validate] "
                   "[--top N]\n";
      return files.size() == 1 ? 0 : 2;
    }
    const ParsedTrace trace = parse_trace_file(files[0]);
    const dtm::TraceSummary sum = dtm::summarize_trace(trace.log, top_k);

    if (validate) {
      std::vector<std::string> issues;
      validate_structure(trace, issues);
      for (const std::string& p : sum.problems) {
        issues.push_back("critical path: " + p);
      }
      if (sum.critical_total != sum.makespan) {
        std::ostringstream os;
        os << "critical-path total " << sum.critical_total
           << " != makespan " << sum.makespan;
        issues.push_back(os.str());
      }
      if (!issues.empty()) {
        std::cout << files[0] << ": INVALID\n";
        for (const std::string& i : issues) std::cout << "  " << i << '\n';
        return 1;
      }
      std::cout << files[0] << ": ok (" << trace.log.size()
                << " events, makespan " << sum.makespan << ")\n";
      return 0;
    }

    if (json) {
      std::cout << to_json(trace, sum) << '\n';
    } else {
      print_tables(trace, sum);
    }
    return sum.consistent() ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
