// Self-tests of the benchmark harness: the order statistics every metric
// rests on, and the correctness gate's rejection of a mismatching stream.
// Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "gate.hpp"
#include "hil/turnloop.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(PerfbenchStats, QuantileIndexIsNearestRank) {
  EXPECT_EQ(quantile_index(1, 0.5), 0u);
  EXPECT_EQ(quantile_index(10, 0.10), 0u);
  EXPECT_EQ(quantile_index(10, 0.50), 4u);
  EXPECT_EQ(quantile_index(10, 0.90), 8u);
  EXPECT_EQ(quantile_index(10, 1.00), 9u);
  EXPECT_EQ(quantile_index(11, 0.50), 5u);
  EXPECT_EQ(quantile_index(100, 0.99), 98u);
  // 0.1 * 30 is 3.0000000000000004 in binary64: still rank 3, not 4.
  EXPECT_EQ(quantile_index(30, 0.10), 2u);
  EXPECT_EQ(quantile_index(1000, 0.90), 899u);
}

TEST(PerfbenchStats, QuantileIndexRejectsBadInput) {
  EXPECT_THROW((void)quantile_index(0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile_index(10, 0.0), std::invalid_argument);
  EXPECT_THROW((void)quantile_index(10, 1.5), std::invalid_argument);
}

TEST(PerfbenchStats, BeyondCountIsTheTailSize) {
  EXPECT_EQ(beyond_count(10, 0.90), 1u);
  EXPECT_EQ(beyond_count(100, 0.90), 10u);
  EXPECT_EQ(beyond_count(100, 0.99), 1u);
  EXPECT_EQ(beyond_count(1000, 0.99), 10u);
  EXPECT_EQ(beyond_count(7, 1.0), 0u);
  EXPECT_EQ(beyond_count(101, 0.50), 50u);
}

TEST(PerfbenchStats, QuantileIgnoresInputOrder) {
  const std::vector<double> v = {9, 3, 7, 1, 5, 10, 2, 8, 4, 6};
  EXPECT_EQ(quantile(v, 0.10), 1.0);
  EXPECT_EQ(quantile(v, 0.90), 9.0);
  EXPECT_EQ(median(v), 5.0);
}

TEST(PerfbenchStats, TrimmedMeanDropsBothTails) {
  // 10 % of 10 samples: one dropped at each end.
  std::vector<double> v = {5, 1, 4, 2, 3, 1000, 6, 7, 8, -1000};
  EXPECT_DOUBLE_EQ(trimmed_mean(v, 0.1), (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8) / 8.0);
  EXPECT_DOUBLE_EQ(trimmed_mean({2.0, 4.0}, 0.1), 3.0);
  EXPECT_DOUBLE_EQ(trimmed_mean({7.0}, 0.4), 7.0);
  // Never trims everything away.
  EXPECT_DOUBLE_EQ(trimmed_mean({1.0, 2.0, 9.0}, 0.5), 2.0);
  EXPECT_THROW((void)trimmed_mean({}, 0.1), std::invalid_argument);
}

TEST(PerfbenchStats, WindowRateUsesTheFastestDecile) {
  // 20 windows of 1000 turns: two fast ones (0.5 ms), the rest 1 ms, one
  // 10x outlier. p10 of 20 samples is rank 2, the second fastest.
  std::vector<double> d(20, 1e-3);
  d[3] = 0.5e-3;
  d[11] = 0.5e-3;
  d[7] = 1e-2;
  EXPECT_DOUBLE_EQ(window_rate(1000.0, d), 1000.0 / 0.5e-3);
  // A single fast window is below the decile and does not count.
  d[11] = 1e-3;
  EXPECT_DOUBLE_EQ(window_rate(1000.0, d), 1000.0 / 1e-3);
}

std::vector<citl::hil::TurnRecord> records(int n) {
  std::vector<citl::hil::TurnRecord> v;
  for (int i = 0; i < n; ++i) {
    const double x = i;
    v.push_back({x * 1.25e-6, std::sin(x), 1e-9 * x, 1e-4 * x, 0.5 * x, -x});
  }
  return v;
}

TEST(PerfbenchGate, AcceptsAnIdenticalStream) {
  const auto a = records(64);
  const auto b = records(64);
  const GateResult g = compare_bits<citl::hil::TurnRecord>(a, b);
  EXPECT_TRUE(g.ok());
  EXPECT_EQ(g.compared, 64u);
  EXPECT_EQ(g.first_mismatch, 64u);
}

TEST(PerfbenchGate, RejectsAOneUlpDifference) {
  const auto want = records(64);
  auto got = want;
  got[17].dgamma = std::nextafter(got[17].dgamma, 1.0);
  std::vector<std::size_t> seen;
  const GateResult g = compare_bits<citl::hil::TurnRecord>(
      got, want, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.mismatched, 1u);
  EXPECT_EQ(g.first_mismatch, 17u);
  EXPECT_EQ(seen, std::vector<std::size_t>{17});
}

TEST(PerfbenchGate, RejectsSignedZeroAndNaNPayloadDifferences) {
  const std::vector<double> want = {0.0, std::nan("1")};
  const std::vector<double> got = {-0.0, std::nan("2")};
  EXPECT_EQ(compare_bits<double>(got, want).mismatched, 2u);
}

TEST(PerfbenchGate, CountsMissingAndExtraRecords) {
  const auto want = records(10);
  const auto shorter = records(7);
  const GateResult g = compare_bits<citl::hil::TurnRecord>(shorter, want);
  EXPECT_EQ(g.compared, 10u);
  EXPECT_EQ(g.mismatched, 3u);
  EXPECT_EQ(g.first_mismatch, 7u);
  EXPECT_EQ(compare_bits<citl::hil::TurnRecord>(want, shorter).mismatched, 3u);
}

}  // namespace
}  // namespace perfbench
