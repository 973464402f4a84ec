// Tests for src/common: RNG, strings, tables, CLI, and the require()
// checks with the error types and messages they pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace candle {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(42);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(3);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 / 5);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<std::size_t> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  rng.shuffle(v);
  std::set<std::size_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_NE(v[0] * 100 + v[1], 0u * 100 + 1u);  // astronomically unlikely
}

TEST(Rng, ForkStreamsAreDecorrelated) {
  Rng parent(11);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

// ---------------------------------------------------------------------------
// string_util
// ---------------------------------------------------------------------------

TEST(StringUtil, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitPreservesEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitSingleField) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringUtil, TrimWhitespace) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n a \r"), "a");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-f", "--"));
  EXPECT_FALSE(starts_with("", "x"));
}

TEST(StringUtil, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.5), "500 ms");
  EXPECT_EQ(format_seconds(12.345), "12.35 s");
  EXPECT_EQ(format_seconds(200.0), "3m 20s");
}

TEST(StringUtil, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(597.0 * 1024 * 1024), "597.0 MB");
  EXPECT_EQ(format_bytes(1.5 * 1024 * 1024 * 1024), "1.50 GB");
}

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
}

// ---------------------------------------------------------------------------
// Summary statistics
// ---------------------------------------------------------------------------

TEST(Stats, MeanStddevMinMax) {
  Summary s;
  s.add_all({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // the classic example
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Percentiles) {
  Summary s;
  for (int i = 0; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(99), 99.0, 1e-9);
}

TEST(Stats, PercentileInterpolates) {
  Summary s;
  s.add_all({10.0, 20.0});
  EXPECT_DOUBLE_EQ(s.percentile(50), 15.0);
}

TEST(Stats, EmptyAndSingletonBehaviour) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_THROW((void)s.min(), InvalidArgument);
  EXPECT_THROW((void)s.percentile(50), InvalidArgument);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(75), 3.0);
  EXPECT_THROW((void)s.percentile(101), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, RendersHeadersAndRows) {
  Table t({"GPUs", "Time (s)"});
  t.add_row({"1", "104.0"});
  t.add_row({"384", "23.3"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("GPUs"), std::string::npos);
  EXPECT_NE(s.find("384"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, NumericRowFormatting) {
  Table t({"label", "a", "b"});
  t.add_row_numeric("x", {1.234, 5.0});
  EXPECT_NE(t.to_string().find("1.23"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

// ---------------------------------------------------------------------------
// Cli
// ---------------------------------------------------------------------------

TEST(Cli, ParsesValueFlags) {
  Cli cli;
  cli.flag("gpus", "gpu count", "1").flag("machine", "name", "Summit");
  const char* argv[] = {"prog", "--gpus", "384", "--machine=Theta"};
  cli.parse(4, argv);
  EXPECT_EQ(cli.get_int("gpus"), 384);
  EXPECT_EQ(cli.get("machine"), "Theta");
}

TEST(Cli, DefaultsApply) {
  Cli cli;
  cli.flag("scale", "data scale", "0.25");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.25);
}

TEST(Cli, BoolFlags) {
  Cli cli;
  cli.bool_flag("full", "full size");
  const char* argv[] = {"prog", "--full"};
  cli.parse(2, argv);
  EXPECT_TRUE(cli.get_bool("full"));
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli;
  cli.flag("x", "");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
}

TEST(Cli, MissingValueThrows) {
  Cli cli;
  cli.flag("x", "");
  const char* argv[] = {"prog", "--x"};
  EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(Cli, UnregisteredGetThrows) {
  Cli cli;
  EXPECT_THROW((void)cli.get("missing"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// require() and the checks that build their message only on failure
// ---------------------------------------------------------------------------

/// The InvalidArgument message `fn` throws ("" when it throws nothing).
template <class Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(Require, LiteralAndFormattedMessagesThrowInvalidArgument) {
  EXPECT_NO_THROW(require(true, "a literal message longer than sixteen"));
  EXPECT_NO_THROW(require(true, std::string("a formatted message")));
  EXPECT_EQ(invalid_argument_message(
                [] { require(false, "a literal message longer than sixteen"); }),
            "a literal message longer than sixteen");
  EXPECT_EQ(invalid_argument_message([] {
              require(false, std::string("formatted ") + std::to_string(7));
            }),
            "formatted 7");
}

TEST(Require, TensorKernelChecksKeepTheirTypesAndMessages) {
  Tensor v({4});
  Tensor m({2, 3});
  Tensor wide({4, 5});
  EXPECT_EQ(invalid_argument_message([&] { (void)v.at(4); }),
            "Tensor::at: index 4 out of range for 4 elements");
  EXPECT_EQ(invalid_argument_message([&] { (void)m.at(2, 0); }),
            "Tensor::at: index out of range");
  EXPECT_EQ(invalid_argument_message([&] { (void)v.at(0, 0); }),
            "Tensor::at: rank must be 2");
  EXPECT_EQ(invalid_argument_message([&] { (void)m.dim(2); }),
            "Tensor::dim: axis out of range");
  EXPECT_EQ(invalid_argument_message([&] { (void)gemm(false, false, v, m); }),
            "gemm: operands must be rank-2, got [4] x [2, 3]");
  EXPECT_EQ(invalid_argument_message([&] { (void)gemm(true, false, m, wide); }),
            "gemm: inner dims differ: [2, 3]^T x [4, 5]");
  EXPECT_EQ(invalid_argument_message([&] { (void)gemm(false, true, m, wide); }),
            "gemm: inner dims differ: [2, 3] x [4, 5]^T");
  Tensor out({2, 4});
  EXPECT_EQ(invalid_argument_message([&] { gemm(false, false, m, m, out); }),
            "gemm: inner dims differ: [2, 3] x [2, 3]");
  Tensor square({3, 3});
  EXPECT_EQ(
      invalid_argument_message([&] { gemm(false, false, m, square, out); }),
      "gemm: output must be preshaped (2, 3), got [2, 4]");
  EXPECT_EQ(invalid_argument_message([&] { add_bias_rows(v, v); }),
            "add_bias_rows: operand must be rank-2, got [4]");
  EXPECT_EQ(invalid_argument_message([&] { (void)add(v, m); }),
            "add: shape mismatch [4] vs [2, 3]");
  EXPECT_EQ(invalid_argument_message([] { (void)conv1d_out_length(2, 3, 1); }),
            "conv1d: input length 2 shorter than window 3");
  // Passing checks throw nothing.
  Tensor c({2, 3});
  EXPECT_EQ(invalid_argument_message([&] {
              (void)m.at(1, 2);
              (void)v.at(3);
              gemm(false, false, m, square, c);
            }),
            "");
}

}  // namespace
}  // namespace candle
