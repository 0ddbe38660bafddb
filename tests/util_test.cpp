// Unit tests for src/util: Rng, Stats, chernoff, Table, CsvWriter,
// JsonWriter, ThreadPool, parallel_for, error macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"
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

}  // namespace
}  // namespace dtm
