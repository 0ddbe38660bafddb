#include "util/trace.hpp"

#include <algorithm>
#include <map>

#include "util/json_writer.hpp"
#include "util/provenance.hpp"

namespace dtm {
namespace {

thread_local std::string t_thread_track;

// Span/instant timestamps are engine steps (integers) or whole
// microseconds; format without a fractional part so exports stay compact
// and byte-stable.
void append_time(std::string& out, double t) {
  out += std::to_string(static_cast<std::int64_t>(t));
}

}  // namespace

const char* to_string(TraceCat cat) {
  switch (cat) {
    case TraceCat::kLeg:
      return "leg";
    case TraceCat::kTxn:
      return "txn";
    case TraceCat::kQueue:
      return "queue";
    case TraceCat::kFault:
      return "fault";
    case TraceCat::kPhase:
      return "phase";
    case TraceCat::kResched:
      return "resched";
  }
  return "?";
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  provenance_.clear();
  next_id_ = 1;
  epoch_ = std::chrono::steady_clock::now();
}

std::uint64_t TraceRecorder::begin_span(TraceCat cat, std::string track,
                                        std::string name, double t,
                                        std::vector<TraceArg> args) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpanRecord rec;
  rec.id = next_id_++;
  rec.cat = cat;
  rec.open = true;
  rec.begin = t;
  rec.end = t;
  rec.track = std::move(track);
  rec.name = std::move(name);
  rec.args = std::move(args);
  events_.push_back(std::move(rec));
  return events_.back().id;
}

void TraceRecorder::end_span(std::uint64_t id, double t) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Ids are assigned densely from 1 in recording order, so the record for
  // id lives at index id-1 even after later events were appended.
  if (id > events_.size()) return;
  TraceSpanRecord& rec = events_[id - 1];
  rec.open = false;
  rec.end = t;
}

void TraceRecorder::span(TraceCat cat, std::string track, std::string name,
                         double begin, double end,
                         std::vector<TraceArg> args) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpanRecord rec;
  rec.id = next_id_++;
  rec.cat = cat;
  rec.begin = begin;
  rec.end = end;
  rec.track = std::move(track);
  rec.name = std::move(name);
  rec.args = std::move(args);
  events_.push_back(std::move(rec));
}

void TraceRecorder::instant(TraceCat cat, std::string track, std::string name,
                            double t, std::vector<TraceArg> args) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpanRecord rec;
  rec.id = next_id_++;
  rec.cat = cat;
  rec.instant = true;
  rec.begin = t;
  rec.end = t;
  rec.track = std::move(track);
  rec.name = std::move(name);
  rec.args = std::move(args);
  events_.push_back(std::move(rec));
}

void TraceRecorder::wall_span(TraceCat cat, std::string name,
                              std::chrono::steady_clock::time_point begin,
                              std::chrono::steady_clock::time_point end) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto us = [this](std::chrono::steady_clock::time_point tp) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_)
            .count());
  };
  TraceSpanRecord rec;
  rec.id = next_id_++;
  rec.cat = cat;
  rec.wall = true;
  rec.begin = us(begin);
  rec.end = us(end);
  rec.track = t_thread_track.empty() ? "main" : t_thread_track;
  rec.name = std::move(name);
  events_.push_back(std::move(rec));
}

void TraceRecorder::set_thread_track(std::string track) {
  t_thread_track = std::move(track);
}

void TraceRecorder::set_provenance(
    const std::map<std::string, std::string>& fields) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : fields) provenance_[k] = v;
}

std::map<std::string, std::string> TraceRecorder::provenance() const {
  std::map<std::string, std::string> out = build_provenance();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : provenance_) out[k] = v;
  return out;
}

std::vector<TraceSpanRecord> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string TraceRecorder::to_chrome_json() const {
  const std::map<std::string, std::string> prov = provenance();
  std::vector<TraceSpanRecord> evs = events();

  // Tracks become Chrome "threads": pid 0 carries the sim-step domain,
  // pid 1 the wall-clock phase domain. Tids are assigned by sorted track
  // name so a deterministic run exports deterministically.
  std::map<std::string, int> sim_tids;
  std::map<std::string, int> wall_tids;
  for (const TraceSpanRecord& e : evs) {
    (e.wall ? wall_tids : sim_tids).emplace(e.track, 0);
  }
  int next = 0;
  for (auto& [track, tid] : sim_tids) tid = next++;
  next = 0;
  for (auto& [track, tid] : wall_tids) tid = next++;

  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  const auto emit_meta = [&w](int pid, int tid, const std::string& what,
                              const std::string& name) {
    w.begin_object()
        .key("name")
        .value(what)
        .key("ph")
        .value("M")
        .key("pid")
        .value(pid)
        .key("tid")
        .value(tid)
        .key("args")
        .begin_object()
        .key("name")
        .value(name)
        .end_object()
        .end_object();
  };
  emit_meta(0, 0, "process_name", "sim steps");
  if (!wall_tids.empty()) emit_meta(1, 0, "process_name", "host phases");
  for (const auto& [track, tid] : sim_tids) {
    emit_meta(0, tid, "thread_name", track);
  }
  for (const auto& [track, tid] : wall_tids) {
    emit_meta(1, tid, "thread_name", track);
  }

  for (const TraceSpanRecord& e : evs) {
    const int pid = e.wall ? 1 : 0;
    const int tid = e.wall ? wall_tids[e.track] : sim_tids[e.track];
    w.begin_object()
        .key("name")
        .value(e.name)
        .key("cat")
        .value(to_string(e.cat))
        .key("ph")
        .value(e.instant ? "i" : "X")
        .key("ts")
        .value(e.begin)
        .key("pid")
        .value(pid)
        .key("tid")
        .value(tid);
    if (e.instant) {
      w.key("s").value("t");  // thread-scoped instant
    } else {
      w.key("dur").value(e.end - e.begin);
    }
    if (!e.args.empty()) {
      w.key("args").begin_object();
      for (const TraceArg& a : e.args) w.key(a.key).value(a.value);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.key("otherData").begin_object();
  w.key("schema").value("dtm-trace-chrome-v1");
  w.key("provenance").begin_object();
  for (const auto& [k, v] : prov) w.key(k).value(v);
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str();
}

std::string TraceRecorder::to_jsonl() const {
  const std::map<std::string, std::string> prov = provenance();
  std::vector<TraceSpanRecord> evs = events();

  std::string out;
  {
    JsonWriter w;
    w.begin_object().key("schema").value("dtm-trace-jsonl-v1");
    w.key("provenance").begin_object();
    for (const auto& [k, v] : prov) w.key(k).value(v);
    w.end_object();
    w.end_object();
    out += w.str();
    out += '\n';
  }

  for (const TraceSpanRecord& e : evs) {
    if (e.wall) continue;  // wall times are nondeterministic; keep out
    std::vector<TraceArg> args = e.args;
    std::stable_sort(args.begin(), args.end(),
                     [](const TraceArg& a, const TraceArg& b) {
                       return a.key < b.key;
                     });
    out += "{\"cat\":\"";
    out += to_string(e.cat);
    out += "\",\"kind\":\"";
    out += e.instant ? "instant" : "span";
    out += "\",\"track\":\"";
    out += JsonWriter::escape(e.track);
    out += "\",\"name\":\"";
    out += JsonWriter::escape(e.name);
    out += "\",\"begin\":";
    append_time(out, e.begin);
    out += ",\"end\":";
    append_time(out, e.end);
    if (!args.empty()) {
      out += ",\"args\":{";
      bool first = true;
      for (const TraceArg& a : args) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += JsonWriter::escape(a.key);
        out += "\":";
        out += std::to_string(a.value);
      }
      out += '}';
    }
    out += "}\n";
  }
  return out;
}

}  // namespace dtm
