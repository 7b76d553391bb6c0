// Unit tests for dlb_util: RNG, formatting, tables, entropy stats,
// env-knob parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/crc32.hpp"
#include "util/entropy.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dlbench::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRangeRejectsInverted) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(11);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(12);
  const int n = 50000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(14);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(77);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  Rng parent_copy(77);
  parent_copy.fork();
  EXPECT_EQ(a.next_u64(), parent_copy.next_u64());
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 3), "-1.000");
}

TEST(Format, SecondsAdaptivePrecision) {
  EXPECT_EQ(format_seconds(0.256), "0.256");
  EXPECT_EQ(format_seconds(68.514), "68.51");
}

TEST(Format, Percent) { EXPECT_EQ(format_percent(99.218), "99.22"); }

TEST(Format, JoinAndPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(Format, LowerAndStartsWith) {
  EXPECT_EQ(to_lower("MNIST"), "mnist");
  EXPECT_TRUE(starts_with("TensorFlow", "Tensor"));
  EXPECT_FALSE(starts_with("TF", "TensorFlow"));
}

TEST(Table, RendersHeadersAndRows) {
  Table t({"A", "Bee"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| A   | Bee |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4   |"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvEscapesCommas) {
  Table t({"name", "value"});
  t.add_row({"a,b", "x\"y"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"x\"\"y\""), std::string::npos);
}

TEST(Entropy, ConstantDataHasZeroEntropy) {
  std::vector<float> values(1000, 0.5f);
  EXPECT_DOUBLE_EQ(shannon_entropy(values), 0.0);
}

TEST(Entropy, UniformDataApproachesLogBins) {
  Rng rng(15);
  std::vector<float> values(200000);
  for (auto& v : values) v = static_cast<float>(rng.uniform());
  EXPECT_NEAR(shannon_entropy(values, 32), 5.0, 0.05);  // log2(32) = 5
}

TEST(Entropy, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(shannon_entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(sparsity({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(Entropy, SparsityCountsNearZeros) {
  std::vector<float> values = {0.f, 0.01f, 0.5f, 1.f};
  EXPECT_DOUBLE_EQ(sparsity(values, 0.05f), 0.5);
}

TEST(Entropy, MeanAndStddev) {
  std::vector<float> values = {1.f, 2.f, 3.f, 4.f};
  EXPECT_DOUBLE_EQ(mean(values), 2.5);
  EXPECT_NEAR(stddev(values), std::sqrt(1.25), 1e-9);
}

TEST(Crc32, MatchesIeee8023KnownAnswers) {
  // The standard check value for the reflected 0xEDB88320 polynomial
  // (same algorithm as zlib's crc32()).
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalUpdateEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t crc = 0;
  for (char c : data) crc = crc32_update(crc, &c, 1);
  EXPECT_EQ(crc, crc32(data.data(), data.size()));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data(256, '\x5a');
  const std::uint32_t clean = crc32(data.data(), data.size());
  data[100] ^= 0x04;
  EXPECT_NE(crc32(data.data(), data.size()), clean);
}

TEST(Check, ThrowsWithContext) {
  try {
    DLB_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom message 42"),
              std::string::npos);
  }
}

// Each case sets one variable and clears it again, so the cases do
// not depend on run order.
class EnvKnob : public ::testing::Test {
 protected:
  static constexpr const char* kName = "DLB_UTIL_TEST_KNOB";
  void set(const char* value) { ::setenv(kName, value, 1); }
  void TearDown() override { ::unsetenv(kName); }
};

TEST_F(EnvKnob, UnsetOrEmptyReturnsFallback) {
  ::unsetenv(kName);
  EXPECT_EQ(env_i64(kName, 7), 7);
  EXPECT_EQ(env_f64(kName, 0.5), 0.5);
  set("");
  EXPECT_EQ(env_i64(kName, 7), 7);
  EXPECT_EQ(env_f64(kName, 0.5), 0.5);
}

TEST_F(EnvKnob, ValidValuesParse) {
  set("10");
  EXPECT_EQ(env_i64(kName, 0), 10);
  EXPECT_EQ(env_f64(kName, 0.0), 10.0);
  set("-3");
  EXPECT_EQ(env_i64(kName, 0), -3);
  set("2e10");
  EXPECT_EQ(env_f64(kName, 0.0), 2e10);
  set("0.25");
  EXPECT_EQ(env_f64(kName, 0.0), 0.25);
}

TEST_F(EnvKnob, TrailingGarbageThrowsNamingTheVariable) {
  set("1O");  // letter O, not zero
  try {
    env_i64(kName, 0);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kName), std::string::npos) << what;
    EXPECT_NE(what.find("'1O'"), std::string::npos) << what;
  }
  set("0.5x");
  EXPECT_THROW(env_f64(kName, 0.0), Error);
  set("2.5");  // an integer knob does not silently truncate
  EXPECT_THROW(env_i64(kName, 0), Error);
}

TEST_F(EnvKnob, NonNumericThrows) {
  set("four");
  EXPECT_THROW(env_i64(kName, 0), Error);
  EXPECT_THROW(env_f64(kName, 0.0), Error);
  set(" ");
  EXPECT_THROW(env_i64(kName, 0), Error);
}

TEST_F(EnvKnob, OverflowThrows) {
  set("9223372036854775808");  // INT64_MAX + 1
  EXPECT_THROW(env_i64(kName, 0), Error);
  set("-9223372036854775809");
  EXPECT_THROW(env_i64(kName, 0), Error);
  set("1e400");
  EXPECT_THROW(env_f64(kName, 0.0), Error);
}

}  // namespace
}  // namespace dlbench::util
