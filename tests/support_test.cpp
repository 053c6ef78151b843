#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <variant>

#include "support/file.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace tms::support {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.uniform_int(-3, 9);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 9);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SingletonRange) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceFrequencyMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkSeedProducesIndependentStreams) {
  Rng parent(23);
  Rng c1(parent.fork_seed());
  Rng c2(parent.fork_seed());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_NEAR(a.min(), all.min(), 0.0);
  EXPECT_NEAR(a.max(), all.max(), 0.0);
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(1.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i % 10 + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.bucket_count(b), 10u);
  EXPECT_NEAR(h.quantile(0.5), 6.0, 1.01);
}

TEST(Histogram, OutOfRangeCounted) {
  Histogram h(0.0, 1.0, 4);
  h.add(-1.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(12.3456, 1), "12.3%");
}

// ------------------------------------------------------------ JSON parse

const JsonValue* parse_ok(const std::string& text, std::variant<JsonValue, std::string>& hold) {
  hold = parse_json(text);
  const auto* v = std::get_if<JsonValue>(&hold);
  EXPECT_NE(v, nullptr) << text << " -> " << std::get<std::string>(hold);
  return v;
}

TEST(JsonParse, ScalarsArraysAndNestedObjects) {
  std::variant<JsonValue, std::string> hold{std::string()};
  const JsonValue* v = parse_ok(R"({"a":1,"b":[true,null,"x"],"c":{"d":-2.5e1}})", hold);
  ASSERT_NE(v, nullptr);
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->find("a")->as_number(), 1.0);
  const JsonValue* b = v->find("b");
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].as_bool());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].as_string(), "x");
  EXPECT_DOUBLE_EQ(v->find_path("c.d")->as_number(), -25.0);
  EXPECT_EQ(v->find("nope"), nullptr);
  EXPECT_EQ(v->find_path("c.nope"), nullptr);
}

TEST(JsonParse, StringEscapesIncludingUnicode) {
  std::variant<JsonValue, std::string> hold{std::string()};
  const JsonValue* v = parse_ok(R"(["a\"b\\c\n\tAé"])", hold);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->items()[0].as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonParse, MembersPreserveInsertionOrder) {
  std::variant<JsonValue, std::string> hold{std::string()};
  const JsonValue* v = parse_ok(R"({"z":1,"a":2,"m":3})", hold);
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->members().size(), 3u);
  EXPECT_EQ(v->members()[0].first, "z");
  EXPECT_EQ(v->members()[1].first, "a");
  EXPECT_EQ(v->members()[2].first, "m");
}

TEST(JsonParse, RoundTripsJsonWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.member("name", "tms");
  w.member("count", std::uint64_t{42});
  w.member("ratio", 0.125);
  w.key("list").begin_array().value(1).value(2).end_array();
  w.end_object();
  std::variant<JsonValue, std::string> hold{std::string()};
  const JsonValue* v = parse_ok(w.str(), hold);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->find("name")->as_string(), "tms");
  EXPECT_DOUBLE_EQ(v->find("count")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(v->find("ratio")->as_number(), 0.125);
  EXPECT_EQ(v->find("list")->items().size(), 2u);
}

TEST(JsonParse, StrictnessRejectsMalformedInput) {
  const std::vector<std::string> bad = {
      "",
      "{",
      "[1,]",
      "{\"a\":1,}",
      "{\"a\" 1}",
      "{\"a\":1} trailing",
      "01",
      "1.",
      "+1",
      "nul",
      "\"unterminated",
      "\"bad\\escape\"",
      "{\"dup\":1,\"dup\":2}",  // duplicate keys are an error by design
      "{1:2}",
  };
  for (const std::string& text : bad) {
    const auto parsed = parse_json(text);
    EXPECT_NE(std::get_if<std::string>(&parsed), nullptr) << "must reject: " << text;
  }
}

TEST(JsonParse, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 70; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < 70; ++i) deep += ']';
  const auto parsed = parse_json(deep);
  EXPECT_NE(std::get_if<std::string>(&parsed), nullptr) << "70 levels must exceed the cap";

  std::string fine = "[[[[[[[[[[1]]]]]]]]]]";
  const auto ok = parse_json(fine);
  EXPECT_NE(std::get_if<JsonValue>(&ok), nullptr);
}

TEST(ParseInt, AcceptsOnlyAWholeIntegerInRange) {
  EXPECT_EQ(parse_int<int>("42"), 42);
  EXPECT_EQ(parse_int<int>("-7"), -7);
  EXPECT_EQ(parse_int<long long>("9000000000"), 9000000000LL);
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "abc", "1x", "x1", " 1", "1 ", "1.5", "+1", "0x10"}) {
    EXPECT_FALSE(parse_int<int>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_int<int>("2147483648").has_value());  // out of int's range
  EXPECT_FALSE(parse_int<std::uint64_t>("-1").has_value());
}

TEST(ParseInt, FlagErrorNamesTheFlagAndLeavesTheTargetAlone) {
  long long n = 5;
  EXPECT_FALSE(parse_int_flag("--simulate", "300", n).has_value());
  EXPECT_EQ(n, 300);
  const auto err = parse_int_flag("--simulate", "abc", n);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "--simulate: 'abc' is not an integer");
  EXPECT_EQ(n, 300);
}

TEST(ParseInt, HostPortNeedsAnIntegerPort) {
  std::string host = "unset";
  int port = -1;
  EXPECT_TRUE(parse_host_port("127.0.0.1:7070", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7070);
  for (const char* bad : {"localhost", "localhost:", "localhost:80x", "localhost:http"}) {
    EXPECT_FALSE(parse_host_port(bad, host, port)) << bad;
  }
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7070);
}

// ---- write_file_atomic ---------------------------------------------------

namespace fs = std::filesystem;

/// A fresh directory under the working directory, removed with
/// the fixture.
class WriteFileAtomic : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "support_test." + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ + "/dump.txt";
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string read(const std::string& path) const {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  std::string dir_;
  std::string path_;
};

TEST_F(WriteFileAtomic, ReplacesTheFileAndLeavesNoTemporary) {
  ASSERT_FALSE(write_file_atomic(path_, "old\n").has_value());
  EXPECT_EQ(read(path_), "old\n");
  ASSERT_FALSE(write_file_atomic(path_, "new contents\n").has_value());
  EXPECT_EQ(read(path_), "new contents\n");
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

TEST_F(WriteFileAtomic, FailedOpenKeepsTheOldFile) {
  ASSERT_FALSE(write_file_atomic(path_, "last good\n").has_value());
  // A directory where the temporary file goes: fopen cannot create it.
  fs::create_directories(path_ + ".tmp");
  const auto err = write_file_atomic(path_, "never lands\n");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find(path_ + ".tmp"), std::string::npos) << *err;
  EXPECT_EQ(read(path_), "last good\n");
}

TEST_F(WriteFileAtomic, ShortWriteKeepsTheOldFile) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full to stand in for a full disk";
  ASSERT_FALSE(write_file_atomic(path_, "last good\n").has_value());
  // Every write to /dev/full fails with ENOSPC, as on a full disk.
  fs::create_symlink("/dev/full", path_ + ".tmp");
  const auto err = write_file_atomic(path_, std::string(1 << 16, 'x'));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(read(path_), "last good\n");
  EXPECT_FALSE(fs::exists(fs::symlink_status(path_ + ".tmp")));
}

}  // namespace
}  // namespace tms::support
