// Unit tests for src/util: Rng, Stats, chernoff, Table, CsvWriter,
// JsonWriter, ThreadPool, parallel_for, MappedArray, error macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/mapped_array.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace dtm {
namespace {

// ---------------------------------------------------------------- error

TEST(Error, AssertThrowsWithLocation) {
  try {
    DTM_ASSERT(1 == 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, RequireFormatsMessage) {
  try {
    DTM_REQUIRE(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Error, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(DTM_ASSERT(true));
  EXPECT_NO_THROW(DTM_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(DTM_ASSERT_MSG(true, "fine"));
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, UniformRejectsEmptyRange) {
  Rng r(7);
  EXPECT_THROW(r.uniform(3, 2), Error);
}

TEST(Rng, IndexCoversAllValues) {
  Rng r(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, SampleIndicesAreDistinctSortedAndInRange) {
  Rng r(13);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = r.sample_indices(20, 7);
    ASSERT_EQ(s.size(), 7u);
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_LT(s[i], 20u);
      if (i) {
        EXPECT_LT(s[i - 1], s[i]);
      }
    }
  }
}

TEST(Rng, SampleIndicesFullSet) {
  Rng r(17);
  const auto s = r.sample_indices(6, 6);
  ASSERT_EQ(s.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng r(1);
  EXPECT_THROW(r.sample_indices(3, 4), Error);
}

TEST(Rng, SampleIndicesUniformity) {
  // Each index of [0,10) should appear in a 3-sample about 30% of the time.
  Rng r(23);
  std::vector<int> hits(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (auto i : r.sample_indices(10, 3)) hits[i]++;
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.3, 0.02);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(37);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

// The engine is seeded on the first draw; these pin every stream to the one
// a std::mt19937_64 seeded up front gives, fresh, copied or split.
TEST(Rng, RawDrawsMatchTheMersenneTwister) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0x9E3779B97F4A7C15ULL}) {
    Rng r(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(r(), ref()) << seed << " draw " << i;
  }
  Rng def;
  std::mt19937_64 def_ref(0x9E3779B97F4A7C15ULL);
  EXPECT_EQ(def(), def_ref());
  // The standard fixes the 10000th draw of mt19937_64 seeded with 5489.
  Rng std_seed(5489);
  for (int i = 1; i < 10000; ++i) std_seed();
  EXPECT_EQ(std_seed(), 9981545732273789042ULL);
}

TEST(Rng, CopiesAndSplitsBeforeTheFirstDrawKeepTheStream) {
  for (const std::uint64_t seed : {3ULL, 77ULL}) {
    Rng fresh(seed);
    Rng copy = fresh;  // taken before any draw
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t want = ref();
      EXPECT_EQ(fresh(), want);
      EXPECT_EQ(copy(), want);
    }
    Rng late = fresh;  // taken after draws: continues where fresh stands
    EXPECT_EQ(late(), ref());

    Rng parent(seed);
    Rng child = parent.split();  // the first draw of parent seeds the child
    std::mt19937_64 parent_ref(seed);
    std::mt19937_64 child_ref(parent_ref() ^ 0xD1B54A32D192ED03ULL);
    Rng grandchild = child.split();
    std::mt19937_64 grandchild_ref(child_ref() ^ 0xD1B54A32D192ED03ULL);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(parent(), parent_ref());
      EXPECT_EQ(child(), child_ref());
      EXPECT_EQ(grandchild(), grandchild_ref());
    }
  }
}

TEST(Rng, ConvenienceDrawsMatchTheMersenneTwister) {
  for (const std::uint64_t seed : {5ULL, 1234ULL}) {
    Rng r(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(r.uniform(3, 1000), std::uniform_int_distribution<std::uint64_t>(3, 1000)(ref));
      EXPECT_EQ(r.real(), std::uniform_real_distribution<double>(0.0, 1.0)(ref));
    }

    std::vector<int> v(20);
    std::iota(v.begin(), v.end(), 0);
    std::vector<int> want = v;
    for (std::size_t i = want.size(); i > 1; --i) {
      std::swap(want[i - 1], want[std::uniform_int_distribution<std::uint64_t>(0, i - 1)(ref)]);
    }
    r.shuffle(v);
    EXPECT_EQ(v, want);

    // Floyd's algorithm over the reference engine.
    const std::size_t n = 30, k = 7;
    std::vector<std::size_t> floyd;
    for (std::size_t j = n - k; j < n; ++j) {
      const std::size_t t = std::uniform_int_distribution<std::uint64_t>(0, j)(ref);
      floyd.push_back(std::find(floyd.begin(), floyd.end(), t) == floyd.end() ? t : j);
    }
    std::sort(floyd.begin(), floyd.end());
    EXPECT_EQ(r.sample_indices(n, k), floyd);
    EXPECT_EQ(r(), ref());  // both streams stand at the same point
  }
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanMinMax) {
  Stats s;
  for (double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, EmptyThrows) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.min(), Error);
  EXPECT_THROW(s.percentile(50), Error);
}

TEST(Stats, StddevMatchesHandComputation) {
  Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  // Sample stddev of this classic set is sqrt(32/7).
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, StddevOfSingleSampleIsZero) {
  Stats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  Stats s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
}

TEST(Stats, PercentileAfterLaterAdds) {
  Stats s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);
  s.add(3.0);  // cache must invalidate
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

// The shared interpolation behind Stats::percentile and telemetry's
// TimerStats, pinned to a hand-computed oracle: rank = p/100 * (n-1),
// value = sorted[lo] * (1-frac) + sorted[hi] * frac.
TEST(Stats, SharedPercentileHelperMatchesOracle) {
  EXPECT_DOUBLE_EQ(percentile_of_sorted({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_of_sorted({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_of_sorted({7.0}, 100.0), 7.0);
  const std::vector<double> v = {1.0, 2.0, 4.0, 8.0, 16.0};
  EXPECT_DOUBLE_EQ(percentile_of_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of_sorted(v, 25.0), 2.0);    // rank 1 exactly
  EXPECT_DOUBLE_EQ(percentile_of_sorted(v, 50.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_of_sorted(v, 75.0), 8.0);
  EXPECT_DOUBLE_EQ(percentile_of_sorted(v, 100.0), 16.0);
  // rank 3.6: 8 * 0.4 + 16 * 0.6.
  EXPECT_DOUBLE_EQ(percentile_of_sorted(v, 90.0), 8.0 * 0.4 + 16.0 * 0.6);
  // Stats::percentile is the same function modulo its sorting cache.
  Stats s;
  for (double x : {8.0, 1.0, 16.0, 2.0, 4.0}) s.add(x);
  for (double p : {0.0, 10.0, 25.0, 50.0, 90.0, 100.0}) {
    EXPECT_DOUBLE_EQ(s.percentile(p), percentile_of_sorted(v, p)) << p;
  }
}

TEST(Chernoff, BoundsDecreaseWithMu) {
  EXPECT_GT(chernoff::upper_tail_bound(10, 0.5),
            chernoff::upper_tail_bound(100, 0.5));
  EXPECT_GT(chernoff::lower_tail_bound(10, 0.5),
            chernoff::lower_tail_bound(100, 0.5));
}

TEST(Chernoff, MatchesFormula) {
  EXPECT_NEAR(chernoff::upper_tail_bound(27.0, 2.0 / 3.0),
              std::exp(-(4.0 / 9.0) * 27.0 / 3.0), 1e-12);
  EXPECT_NEAR(chernoff::lower_tail_bound(27.0, 2.0 / 3.0),
              std::exp(-(4.0 / 9.0) * 27.0 / 2.0), 1e-12);
}

TEST(Chernoff, RejectsBadDelta) {
  EXPECT_THROW(chernoff::upper_tail_bound(10, 0.0), Error);
  EXPECT_THROW(chernoff::upper_tail_bound(10, 1.0), Error);
  EXPECT_THROW(chernoff::lower_tail_bound(-1, 0.5), Error);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row("x", 1);
  t.add_row("longer", 23456);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  EXPECT_NE(out.find("23456"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FormatsDoublesCompactly) {
  EXPECT_EQ(Table::format_cell(3.0), "3");
  EXPECT_EQ(Table::format_cell(3.14159), "3.142");
  EXPECT_EQ(Table::format_cell(true), "yes");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row(1), Error);
  EXPECT_THROW(t.add_row(1, 2, 3), Error);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row(1, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

// ------------------------------------------------------------------ csv

TEST(Csv, WritesHeaderAndRows) {
  const auto path = std::filesystem::temp_directory_path() / "dtm_csv_test.csv";
  {
    CsvWriter w(path.string(), {"x", "y"});
    w.write_row({"1", "2"});
    w.write_row({"a,b", "q\"q"});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "x,y\n1,2\n\"a,b\",\"q\"\"q\"\n");
  std::filesystem::remove(path);
}

TEST(Csv, RejectsWrongArity) {
  const auto path = std::filesystem::temp_directory_path() / "dtm_csv_test2.csv";
  CsvWriter w(path.string(), {"x"});
  EXPECT_THROW(w.write_row({"1", "2"}), Error);
  std::filesystem::remove(path);
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
  // Regression: a bare CR must be quoted too (RFC 4180), or readers that
  // accept CR line endings split the record mid-cell.
  EXPECT_EQ(CsvWriter::escape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(CsvWriter::escape("crlf\r\n"), "\"crlf\r\n\"");
}

TEST(Csv, CarriageReturnRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "dtm_csv_test_cr.csv";
  {
    CsvWriter w(path.string(), {"x", "y"});
    w.write_row({"a\rb", "plain"});
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_EQ(text, "x,y\n\"a\rb\",plain\n");
  // The CR is inside quotes, so the file still has exactly 2 record breaks.
  EXPECT_EQ(static_cast<int>(std::count(text.begin(), text.end(), '\n')), 2);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------- thread pool

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(pool.wait(), Error);
  // The pool stays usable after an error was reported.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, DefaultLeavesOneLaneForTheCaller) {
  // Default sizing spawns hardware_concurrency - 1 workers: the thread
  // driving parallel_for_blocks participates as the remaining lane. On a
  // single-core machine that is a zero-worker pool.
  ThreadPool pool;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(pool.thread_count(), hw - 1);
}

TEST(ThreadPool, UncollectedExceptionIsSurfacedAtDestruction) {
  // Regression: destroying a pool without wait() used to drop the task
  // exception silently. The destructor now logs it (and asserts in debug,
  // hence the death-test branch). The sleep gives the worker time to run
  // the throwing task before the pool is torn down; the destructor also
  // joins, so the error is recorded either way.
#ifdef NDEBUG
  testing::internal::CaptureStderr();
  {
    ThreadPool pool(2);
    pool.submit([] { throw Error("boom-uncollected"); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("never collected"), std::string::npos) << err;
  EXPECT_NE(err.find("boom-uncollected"), std::string::npos) << err;
#else
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.submit([] { throw Error("boom-uncollected"); });
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      },
      "never collected");
#endif
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  parallel_for(pool, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ParallelFor, RunsSeriallyOnZeroWorkerPool) {
  // A degenerate pool (single-core default) must still cover every index:
  // the caller runs the whole loop itself.
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<int> hits(100, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10,
                            [&](std::size_t i) {
                              if (i == 5) throw Error("body failed");
                            }),
               Error);
}

// -------------------------------------------------------------- JsonWriter

TEST(JsonWriter, WritesNestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("n").value(64);
  w.key("ratio").value(4.5);
  w.key("ok").value(true);
  w.key("name").value("grid");
  w.key("missing").null();
  w.key("tags").begin_array().value("a").value("b").end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"n\":64,\"ratio\":4.5,\"ok\":true,\"name\":\"grid\","
            "\"missing\":null,\"tags\":[\"a\",\"b\"]}");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("q\"q"), "q\\\"q");
  EXPECT_EQ(JsonWriter::escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::escape(std::string("ctl\x01", 4)), "ctl\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("arr").begin_array().end_array();
  w.key("obj").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"arr\":[],\"obj\":{}}");
}

TEST(JsonWriter, RejectsMisuse) {
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), Error);  // keys only inside objects
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), Error);  // object values need a key first
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), Error);  // unterminated document
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), Error);  // mismatched close
  }
}

// -------------------------------------------------------------- JsonReader

// Parses `text` as one JSON string literal.
std::string read_json_string(const std::string& text) {
  return JsonReader(text).parse().str;
}

TEST(JsonReader, UnicodeEscapeTakesFourHexDigits) {
  EXPECT_EQ(read_json_string(R"("a\u0041b")"), "aAb");
  EXPECT_EQ(read_json_string(R"("\u007e\u007E")"), "~~");
  EXPECT_EQ(read_json_string(R"("ctl\u0001")"), std::string("ctl\x01", 4));
  // The writer's own control-character escapes read back unchanged.
  const std::string ctl("\x01\x1f", 2);
  EXPECT_EQ(read_json_string('"' + JsonWriter::escape(ctl) + '"'), ctl);
}

TEST(JsonReader, MalformedUnicodeEscapesThrowError) {
  // Each used to decode a prefix of its digits, or to escape as
  // std::invalid_argument.
  for (const char* text :
       {R"("\u12zz")", R"("\u+7fx")", R"("\uzzzz")", R"("\u-001")",
        R"("\u 041")", R"("\u0x41")", R"("\u004")", R"("\u")"}) {
    const std::string doc = text;
    EXPECT_THROW(JsonReader(doc).parse(), Error) << doc;
  }
  // Non-ASCII code points stay unsupported.
  const std::string wide = R"("\u00e9")";
  EXPECT_THROW(JsonReader(wide).parse(), Error);
}

TEST(JsonReader, NumbersFollowTheJsonGrammar) {
  const auto number = [](const std::string& doc) {
    return JsonReader(doc).parse().number;
  };
  EXPECT_EQ(number("0"), 0.0);
  EXPECT_EQ(number("-0"), 0.0);
  EXPECT_EQ(number("42"), 42.0);
  EXPECT_EQ(number("-7.25"), -7.25);
  EXPECT_EQ(number("1e3"), 1000.0);
  EXPECT_EQ(number("2.5E-2"), 0.025);
  EXPECT_EQ(number("1e+20"), 1e20);
  EXPECT_EQ(number(" 123456789012 "), 123456789012.0);
  const JsonValue arr = JsonReader("[1,-2.5,3e1]").parse();
  ASSERT_EQ(arr.arr.size(), 3u);
  EXPECT_EQ(arr.arr[1].number, -2.5);
  EXPECT_EQ(arr.arr[2].number, 30.0);
}

TEST(JsonReader, MalformedNumbersThrowError) {
  // "[1-2]" used to read as [1]; "[--1]" and "[1e999]" escaped as
  // std::invalid_argument and std::out_of_range.
  for (const char* text :
       {"[1-2]", "[--1]", "[1e999]", "[-1e999]", "[+1]", "[.5]", "[1.]",
        "[1e]", "[1e+]", "[01]", "[-]", "[1.2.3]", "[0x10]", "[1ee2]"}) {
    const std::string doc = text;
    EXPECT_THROW(JsonReader(doc).parse(), Error) << doc;
  }
}

// ------------------------------------------------------------ MappedArray

TEST(MappedArray, EmptyArrayAllocatesNothing) {
  MappedArray<std::uint32_t> a;
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(a.data(), nullptr);
  const MappedArray<std::uint32_t> copy = a;
  EXPECT_EQ(copy.data(), nullptr);
  a.append({});
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(std::span<const std::uint32_t>(a).empty());
}

TEST(MappedArray, ContentsSurviveGrowthAcrossTheFloorAndRemaps) {
  // 2^20 four-byte elements: a heap block up to the 128 KiB floor, then a
  // mapping that doubles through several mremap calls.
  constexpr std::uint32_t kN = 1u << 20;
  MappedArray<std::uint32_t> a;
  std::size_t heap_growths = 0, mapped_growths = 0, capacity = 0;
  for (std::uint32_t i = 0; i < kN; ++i) {
    a.push_back(i * 2654435761u);
    if (a.capacity() != capacity) {
      capacity = a.capacity();
      ++(a.mapped() ? mapped_growths : heap_growths);
      EXPECT_EQ(a.mapped(),
                capacity * sizeof(std::uint32_t) > kMappedArrayFloor);
      // Every element written so far is intact after the move.
      for (std::uint32_t j = 0; j <= i; ++j) {
        ASSERT_EQ(a[j], j * 2654435761u) << "after growth to " << capacity;
      }
    }
  }
  EXPECT_GE(heap_growths, 2u);
  EXPECT_GE(mapped_growths, 4u);  // one mmap, then mremaps
  ASSERT_EQ(a.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) ASSERT_EQ(a[i], i * 2654435761u);
}

TEST(MappedArray, CopyIsDeepAndIndependent) {
  for (const std::size_t n : {std::size_t{100}, std::size_t{100000}}) {
    MappedArray<std::int64_t> a;
    for (std::size_t i = 0; i < n; ++i) {
      a.push_back(static_cast<std::int64_t>(i));
    }
    MappedArray<std::int64_t> b = a;
    ASSERT_EQ(b.size(), n);
    EXPECT_NE(b.data(), a.data());
    EXPECT_EQ(b.mapped(), a.mapped());
    b[0] = -1;
    b.push_back(7);
    EXPECT_EQ(a[0], 0);
    EXPECT_EQ(a.size(), n);
    a[1] = -2;
    EXPECT_EQ(b[1], 1);
    MappedArray<std::int64_t> c;
    c = a;  // copy assignment
    EXPECT_TRUE(std::equal(c.begin(), c.end(), a.begin(), a.end()));
    EXPECT_NE(c.data(), a.data());
  }
}

TEST(MappedArray, MoveAndTruncate) {
  MappedArray<std::uint32_t> a;
  for (std::uint32_t i = 0; i < 50000; ++i) a.push_back(i);
  const std::uint32_t* storage = a.data();
  MappedArray<std::uint32_t> b = std::move(a);
  EXPECT_EQ(b.data(), storage);  // the storage moves, nothing is copied
  EXPECT_EQ(b.size(), 50000u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.data(), nullptr);
  MappedArray<std::uint32_t> c;
  c.push_back(9);
  c = std::move(b);
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(c[49999], 49999u);

  const std::size_t capacity = c.capacity();
  c.truncate(10);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c.capacity(), capacity);  // the storage stays
  EXPECT_EQ(c[9], 9u);
  EXPECT_THROW(c.truncate(11), Error);
  c.push_back(77);
  EXPECT_EQ(c[10], 77u);
  c.truncate(0);
  EXPECT_EQ(c.size(), 0u);
}

TEST(MappedArray, SpanViewAndAppend) {
  MappedArray<std::uint32_t> a;
  const std::vector<std::uint32_t> chunk = {5, 6, 7};
  a.append(chunk);
  a.append(chunk);
  a.reserve(1000);
  EXPECT_GE(a.capacity(), 1000u);
  const std::span<const std::uint32_t> view = a;
  EXPECT_EQ(view.data(), a.data());
  EXPECT_EQ(std::vector<std::uint32_t>(view.begin(), view.end()),
            (std::vector<std::uint32_t>{5, 6, 7, 5, 6, 7}));
  // Bounds are checked in every build.
  EXPECT_THROW((void)a[a.size()], Error);
  const MappedArray<std::uint32_t>& ca = a;
  EXPECT_THROW((void)ca[6], Error);
}

#ifdef DTM_MAPPED_ARRAY_POISONS
// Under AddressSanitizer the tail past size() is poisoned, in a heap block
// and in a mapping alike, so a raw read one element past the end dies.
TEST(MappedArrayDeathTest, ReadPastSizeIsCaught) {
  for (const std::size_t n : {std::size_t{1000}, std::size_t{100000}}) {
    MappedArray<std::uint32_t> a;
    for (std::size_t i = 0; i < n; ++i) a.push_back(1);
    ASSERT_LT(a.size(), a.capacity());
    EXPECT_EQ(a.mapped(), n == 100000);
    const volatile std::uint32_t* past = a.data() + a.size();
    EXPECT_DEATH((void)*past, "use-after-poison");
  }
}
#endif

}  // namespace
}  // namespace dtm
