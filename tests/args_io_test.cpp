// Tests for the CLI argument parser and the text serialization round-trips.
#include <gtest/gtest.h>

#include <sstream>

#include "core/generators.hpp"
#include "core/io.hpp"
#include "core/validate.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "sched/greedy.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace dtm {
namespace {

ArgParser parse(std::initializer_list<const char*> argv_tail) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), argv_tail);
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, SpaceAndEqualsForms) {
  const ArgParser a = parse({"--n", "12", "--k=3", "--verbose"});
  EXPECT_EQ(a.get_int("n", 0), 12);
  EXPECT_EQ(a.get_int("k", 0), 3);
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_FALSE(a.has("absent"));
  EXPECT_EQ(a.get_int("absent", 7), 7);
}

TEST(Args, BareFlagHasNoValue) {
  const ArgParser a = parse({"--flag"});
  EXPECT_TRUE(a.has("flag"));
  // A present-but-valueless flag falls back like an absent one; only an
  // empty fallback (meaning "value required") throws.
  EXPECT_EQ(a.get("flag", "x"), "x");
  EXPECT_THROW(a.get("flag", ""), Error);
}

TEST(Args, PositionalArguments) {
  const ArgParser a = parse({"input.txt", "--n", "4", "output.txt"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  EXPECT_EQ(a.positional()[1], "output.txt");
}

TEST(Args, ValuelessFlagKeepsPositional) {
  // Regression: `--verbose input.txt` used to swallow input.txt as the
  // value of --verbose. A flag only probed with has() releases the token.
  const ArgParser a = parse({"--verbose", "input.txt"});
  EXPECT_TRUE(a.has("verbose"));
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "input.txt");
}

TEST(Args, GetClaimsFollowingToken) {
  const ArgParser a = parse({"--csv", "out.csv", "extra.txt"});
  EXPECT_EQ(a.get("csv", ""), "out.csv");
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "extra.txt");
}

TEST(Args, GetAfterHasStillClaimsToken) {
  // The dtm_cli pattern: if (has("csv")) get("csv", ...). The has() probe
  // must not permanently strand the token in the positional list.
  const ArgParser a = parse({"--csv", "out.csv"});
  EXPECT_TRUE(a.has("csv"));
  EXPECT_EQ(a.get("csv", ""), "out.csv");
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, EmptyEqualsValueUsesFallback) {
  // Regression: `--name=` (explicitly empty) with a non-empty fallback used
  // to throw; it now falls back, and throws only when a value is required.
  const ArgParser a = parse({"--name="});
  EXPECT_EQ(a.get("name", "default"), "default");
  EXPECT_THROW(a.get("name", ""), Error);
}

TEST(Args, GetOptionalSpaceSeparatedValue) {
  // Regression: `--telemetry out.csv` used to ignore out.csv (only the
  // `=` form supplied a value) and leave it dangling as a positional. The
  // two forms are now unified: get_optional claims the token like get().
  const ArgParser a = parse({"--telemetry", "out.csv"});
  EXPECT_TRUE(a.has("telemetry"));
  EXPECT_EQ(a.get_optional("telemetry", "-"), "out.csv");
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, GetOptionalClaimsTokenAfterHas) {
  // has() tentatively releases the token to the positional list; a later
  // get_optional must claim it back — dtm_cli probes with has() first.
  const ArgParser a = parse({"--trace-out", "t.jsonl", "--verbose"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_TRUE(a.has("trace-out"));
  EXPECT_EQ(a.get_optional("trace-out", "-"), "t.jsonl");
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, GetOptionalBareBeforeFlagFallsBack) {
  // A flag directly followed by another flag binds no token, so the
  // unified form still falls back cleanly.
  const ArgParser a = parse({"--telemetry", "--n", "4"});
  EXPECT_EQ(a.get_optional("telemetry", "-"), "-");
  EXPECT_EQ(a.get_int("n", 0), 4);
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, GetOptionalAttachedValue) {
  const ArgParser a = parse({"--telemetry=tel.json"});
  EXPECT_EQ(a.get_optional("telemetry", "-"), "tel.json");
  EXPECT_TRUE(a.positional().empty());
}

TEST(Args, GetOptionalAbsentOrBareFallsBack) {
  const ArgParser a = parse({"--telemetry"});
  EXPECT_TRUE(a.has("telemetry"));
  EXPECT_EQ(a.get_optional("telemetry", "-"), "-");
  EXPECT_EQ(a.get_optional("absent", "x"), "x");
}

TEST(Args, RejectsNonNumeric) {
  const ArgParser a = parse({"--n", "abc"});
  EXPECT_THROW(a.get_int("n", 0), Error);
}

TEST(Args, TracksUnknownFlags) {
  const ArgParser a = parse({"--used", "1", "--typo", "2"});
  (void)a.get_int("used", 0);
  const auto unknown = a.unknown_flags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, NegativeIntegers) {
  const ArgParser a = parse({"--offset", "-5"});
  // "-5" does not start with "--", so it binds as the value.
  EXPECT_EQ(a.get_int("offset", 0), -5);
}

TEST(Args, NegativeIntegerAmongPositionals) {
  const ArgParser a = parse({"--delta", "-3", "file.txt"});
  EXPECT_EQ(a.get_int("delta", 0), -3);
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "file.txt");
}

// ---------------------------------------------------------------------- io

TEST(Io, GraphRoundTrip) {
  const ClusterGraph cg(3, 4, 7);
  std::stringstream buf;
  write_graph(buf, cg.graph);
  const Graph g2 = read_graph(buf);
  ASSERT_EQ(g2.num_nodes(), cg.graph.num_nodes());
  ASSERT_EQ(g2.num_edges(), cg.graph.num_edges());
  for (NodeId u = 0; u < g2.num_nodes(); ++u) {
    const auto a = cg.graph.neighbors(u);
    const auto b = g2.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(Io, InstanceRoundTrip) {
  const Grid g(5);
  Rng rng(3);
  const Instance inst =
      generate_uniform(g.graph, {.num_objects = 7, .objects_per_txn = 2}, rng);
  std::stringstream buf;
  write_instance(buf, inst);
  const Instance inst2 = read_instance(buf, g.graph);
  ASSERT_EQ(inst2.num_transactions(), inst.num_transactions());
  ASSERT_EQ(inst2.num_objects(), inst.num_objects());
  for (TxnId t = 0; t < inst.num_transactions(); ++t) {
    EXPECT_EQ(inst2.txn(t).home, inst.txn(t).home);
    EXPECT_EQ(test::to_vector(inst2.objects(t)), test::to_vector(inst.objects(t)));
  }
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    EXPECT_EQ(inst2.object_home(o), inst.object_home(o));
  }
}

TEST(Io, ScheduleRoundTripStaysFeasible) {
  const Grid g(4);
  Rng rng(4);
  const Instance inst =
      generate_uniform(g.graph, {.num_objects = 5, .objects_per_txn = 2}, rng);
  const DenseMetric m(g.graph);
  GreedyScheduler sched;
  const Schedule s = sched.run(inst, m);
  std::stringstream buf;
  write_schedule(buf, s);
  const Schedule s2 = read_schedule(buf);
  EXPECT_EQ(s2.commit_time, s.commit_time);
  EXPECT_EQ(s2.object_order, s.object_order);
  EXPECT_TRUE(validate(inst, m, s2).ok);
}

TEST(Io, RejectsMalformedInput) {
  {
    std::stringstream buf("not-a-header v1\n");
    EXPECT_THROW(read_graph(buf), Error);
  }
  {
    std::stringstream buf("dtm-graph v1\nnodes 2\nedge 0 5 1\n");
    EXPECT_THROW(read_graph(buf), Error);  // endpoint out of range
  }
  {
    std::stringstream buf("dtm-graph v1\nnodes 2\nedge 0 1\n");
    EXPECT_THROW(read_graph(buf), Error);  // missing weight
  }
  {
    const Grid g(3);
    std::stringstream buf("dtm-instance v1\nobjects 1\nmystery record\n");
    EXPECT_THROW(read_instance(buf, g.graph), Error);
  }
  {
    std::stringstream buf("dtm-schedule v1\ncommits 1\ncommit 5 step 1\n");
    EXPECT_THROW(read_schedule(buf), Error);  // commit id out of range
  }
  {
    std::stringstream buf("dtm-graph v1\nnodes two\n");
    EXPECT_THROW(read_graph(buf), Error);  // non-numeric
  }
  // Ids wider than 32 bits are parse errors, not truncated: 2^32 must not
  // be read as node 0, nor 2^32 + 1 as node 1.
  {
    std::stringstream buf("dtm-graph v1\nnodes 2\nedge 4294967296 1 1\n");
    EXPECT_THROW(read_graph(buf), Error);
  }
  {
    std::stringstream buf("dtm-graph v1\nnodes 2\nedge 0 4294967297 1\n");
    EXPECT_THROW(read_graph(buf), Error);
  }
  {
    std::stringstream buf("dtm-graph v1\nnodes 2\nedge -1 1 1\n");
    EXPECT_THROW(read_graph(buf), Error);
  }
  {
    const Grid g(3);
    std::stringstream buf(
        "dtm-instance v1\nobjects 1\nobject 4294967296 home 0\n");
    EXPECT_THROW(read_instance(buf, g.graph), Error);
  }
  {
    const Grid g(3);
    std::stringstream buf(
        "dtm-instance v1\nobjects 1\nobject 0 home 4294967296\n");
    EXPECT_THROW(read_instance(buf, g.graph), Error);
  }
  {
    const Grid g(3);
    std::stringstream buf(
        "dtm-instance v1\nobjects 1\nobject 0 home 0\n"
        "txn home 4294967296 objs 0\n");
    EXPECT_THROW(read_instance(buf, g.graph), Error);
  }
  {
    const Grid g(3);
    std::stringstream buf(
        "dtm-instance v1\nobjects 1\nobject 0 home 0\n"
        "txn home 0 objs 4294967296\n");
    EXPECT_THROW(read_instance(buf, g.graph), Error);
  }
  {
    // o + 1 used to wrap to 0 and index an empty order table.
    std::stringstream buf(
        "dtm-schedule v1\ncommits 1\norder 18446744073709551615 0\n");
    EXPECT_THROW(read_schedule(buf), Error);
  }
  {
    std::stringstream buf("dtm-schedule v1\ncommits 1\norder 0 4294967296\n");
    EXPECT_THROW(read_schedule(buf), Error);
  }
}

TEST(Io, WideIdErrorsCarryLineNumbers) {
  std::stringstream buf("dtm-graph v1\nnodes 2\nedge 4294967296 1 1\n");
  try {
    read_graph(buf);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("parse error at line 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(Io, ErrorsCarryLineNumbers) {
  std::stringstream buf("dtm-graph v1\nnodes 2\nedge 0 1 bad\n");
  try {
    read_graph(buf);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// Expects `read` to throw a parse error that names line `line`.
template <class ReadFn>
void expect_parse_error_at(ReadFn read, const std::string& text, int line) {
  std::stringstream buf(text);
  try {
    read(buf);
    ADD_FAILURE() << "expected a parse error for:\n" << text;
  } catch (const Error& e) {
    const std::string want = "parse error at line " + std::to_string(line);
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

// Signed counts and ids are parse errors. std::stoull negates a leading
// '-' modulo 2^64, so "-18446744073709551614" used to read as 2,
// "-18446744073709551615" as 1 and "-0" as 0: every case below was once
// accepted.
TEST(Io, SignedNumbersAreParseErrors) {
  const auto graph = [](std::istream& is) { return read_graph(is); };
  const std::string g_head = "dtm-graph v1\n";
  expect_parse_error_at(graph, g_head + "nodes -18446744073709551614\n", 2);
  expect_parse_error_at(graph, g_head + "nodes +2\n", 2);
  expect_parse_error_at(
      graph, g_head + "nodes 2\nedge -18446744073709551615 0 1\n", 3);
  expect_parse_error_at(
      graph, g_head + "nodes 2\nedge 0 -18446744073709551615 1\n", 3);

  const Grid grid(3);
  const auto instance = [&](std::istream& is) {
    return read_instance(is, grid.graph);
  };
  const std::string i_head = "dtm-instance v1\n";
  const std::string one_object = i_head + "objects 1\nobject 0 home 0\n";
  expect_parse_error_at(instance, i_head + "objects -18446744073709551615\n",
                        2);
  expect_parse_error_at(instance, i_head + "objects 1\nobject -0 home 0\n", 3);
  expect_parse_error_at(
      instance, i_head + "objects 1\nobject 0 home -18446744073709551615\n",
      3);
  expect_parse_error_at(
      instance, one_object + "txn home -18446744073709551615 objs 0\n", 4);
  expect_parse_error_at(instance, one_object + "txn home 0 objs +0\n", 4);

  const auto schedule = [](std::istream& is) { return read_schedule(is); };
  const std::string s_head = "dtm-schedule v1\n";
  expect_parse_error_at(schedule, s_head + "commits -18446744073709551615\n",
                        2);
  expect_parse_error_at(schedule, s_head + "commits 1\ncommit -0 step 0\n", 3);
  expect_parse_error_at(schedule, s_head + "commits 1\norder -0 0\n", 3);
  expect_parse_error_at(schedule, s_head + "commits 1\norder 0 -0\n", 3);
}

}  // namespace
}  // namespace dtm
