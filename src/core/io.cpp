#include "core/io.hpp"

#include <cctype>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

namespace dtm {

namespace {

/// Line-oriented tokenizer with positional error reporting.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(&is) {}

  /// Next non-empty line split into tokens; false at EOF.
  bool next(std::vector<std::string>* tokens) {
    std::string line;
    while (std::getline(*is_, line)) {
      ++line_no_;
      tokens->clear();
      std::istringstream ls(line);
      std::string tok;
      while (ls >> tok) tokens->push_back(tok);
      if (!tokens->empty()) return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("parse error at line " + std::to_string(line_no_) + ": " +
                what);
  }

  void expect(bool cond, const std::string& what) const {
    if (!cond) fail(what);
  }

  /// A count or id: digits only. std::stoull alone would accept a leading
  /// sign and negate the value modulo 2^64 ("-18446744073709551615" as 1).
  std::uint64_t to_u64(const std::string& tok) const {
    expect(!tok.empty() && std::isdigit(static_cast<unsigned char>(tok[0])),
           "expected an unsigned number, got '" + tok + "'");
    try {
      std::size_t pos = 0;
      const std::uint64_t v = std::stoull(tok, &pos);
      expect(pos == tok.size(), "trailing characters in number '" + tok + "'");
      return v;
    } catch (const Error&) {
      throw;
    } catch (...) {
      fail("expected a number, got '" + tok + "'");
    }
  }

  /// A node, object or transaction id. The all-ones value of each 32-bit
  /// id type is its invalid sentinel, so ids must lie strictly below it;
  /// anything wider is a parse error, not a silent truncation.
  template <class Id>
  Id to_id(const std::string& tok) const {
    const std::uint64_t v = to_u64(tok);
    expect(v < std::numeric_limits<Id>::max(), "id '" + tok + "' out of range");
    return static_cast<Id>(v);
  }

  std::int64_t to_i64(const std::string& tok) const {
    try {
      std::size_t pos = 0;
      const std::int64_t v = std::stoll(tok, &pos);
      expect(pos == tok.size(), "trailing characters in number '" + tok + "'");
      return v;
    } catch (const Error&) {
      throw;
    } catch (...) {
      fail("expected a number, got '" + tok + "'");
    }
  }

 private:
  std::istream* is_;
  std::size_t line_no_ = 0;
};

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << "dtm-graph v1\n";
  os << "nodes " << g.num_nodes() << '\n';
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Arc& a : g.neighbors(u)) {
      if (u < a.to) os << "edge " << u << ' ' << a.to << ' ' << a.weight << '\n';
    }
  }
}

Graph read_graph(std::istream& is) {
  LineReader r(is);
  std::vector<std::string> tok;
  r.expect(r.next(&tok) && tok.size() == 2 && tok[0] == "dtm-graph" &&
               tok[1] == "v1",
           "expected header 'dtm-graph v1'");
  r.expect(r.next(&tok) && tok.size() == 2 && tok[0] == "nodes",
           "expected 'nodes N'");
  GraphBuilder b(r.to_u64(tok[1]));
  while (r.next(&tok)) {
    r.expect(tok.size() == 4 && tok[0] == "edge", "expected 'edge u v w'");
    b.add_edge(r.to_id<NodeId>(tok[1]), r.to_id<NodeId>(tok[2]),
               r.to_i64(tok[3]));
  }
  return b.build();
}

void write_instance(std::ostream& os, const Instance& inst) {
  os << "dtm-instance v1\n";
  os << "objects " << inst.num_objects() << '\n';
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    os << "object " << o << " home " << inst.object_home(o) << '\n';
  }
  for (const TxnRef t : inst.transactions()) {
    os << "txn home " << t.home << " objs";
    for (ObjectId o : t.objects) os << ' ' << o;
    os << '\n';
  }
}

Instance read_instance(std::istream& is, const Graph& g) {
  LineReader r(is);
  std::vector<std::string> tok;
  r.expect(r.next(&tok) && tok.size() == 2 && tok[0] == "dtm-instance" &&
               tok[1] == "v1",
           "expected header 'dtm-instance v1'");
  r.expect(r.next(&tok) && tok.size() == 2 && tok[0] == "objects",
           "expected 'objects W'");
  InstanceBuilder b(g, r.to_u64(tok[1]));
  while (r.next(&tok)) {
    if (tok[0] == "object") {
      r.expect(tok.size() == 4 && tok[2] == "home",
               "expected 'object O home V'");
      b.set_object_home(r.to_id<ObjectId>(tok[1]), r.to_id<NodeId>(tok[3]));
    } else if (tok[0] == "txn") {
      r.expect(tok.size() >= 4 && tok[1] == "home" && tok[3] == "objs",
               "expected 'txn home V objs ...'");
      std::vector<ObjectId> objs;
      for (std::size_t i = 4; i < tok.size(); ++i) {
        objs.push_back(r.to_id<ObjectId>(tok[i]));
      }
      b.add_transaction(r.to_id<NodeId>(tok[2]), std::move(objs));
    } else {
      r.fail("unknown record '" + tok[0] + "'");
    }
  }
  return b.build();
}

void write_schedule(std::ostream& os, const Schedule& s) {
  os << "dtm-schedule v1\n";
  os << "commits " << s.commit_time.size() << '\n';
  for (TxnId t = 0; t < s.commit_time.size(); ++t) {
    os << "commit " << t << " step " << s.commit_time[t] << '\n';
  }
  for (ObjectId o = 0; o < s.object_order.size(); ++o) {
    os << "order " << o;
    for (TxnId t : s.object_order[o]) os << ' ' << t;
    os << '\n';
  }
}

Schedule read_schedule(std::istream& is) {
  LineReader r(is);
  std::vector<std::string> tok;
  r.expect(r.next(&tok) && tok.size() == 2 && tok[0] == "dtm-schedule" &&
               tok[1] == "v1",
           "expected header 'dtm-schedule v1'");
  r.expect(r.next(&tok) && tok.size() == 2 && tok[0] == "commits",
           "expected 'commits N'");
  Schedule s;
  s.commit_time.assign(r.to_u64(tok[1]), 0);
  while (r.next(&tok)) {
    if (tok[0] == "commit") {
      r.expect(tok.size() == 4 && tok[2] == "step",
               "expected 'commit T step S'");
      const auto t = r.to_u64(tok[1]);
      r.expect(t < s.commit_time.size(), "commit id out of range");
      s.commit_time[t] = r.to_i64(tok[3]);
    } else if (tok[0] == "order") {
      r.expect(tok.size() >= 2, "expected 'order O t...'");
      const auto o = r.to_id<ObjectId>(tok[1]);
      if (o >= s.object_order.size()) s.object_order.resize(o + 1);
      for (std::size_t i = 2; i < tok.size(); ++i) {
        s.object_order[o].push_back(r.to_id<TxnId>(tok[i]));
      }
    } else {
      r.fail("unknown record '" + tok[0] + "'");
    }
  }
  return s;
}

}  // namespace dtm
