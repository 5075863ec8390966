// The benchmark's own arithmetic: nearest-rank percentiles, the
// ten-samples-beyond rule, failure denominators and latency limits, and
// span self time.
#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace perfbench;

namespace
{
  std::vector<double> one_to(size_t n)
  {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
  }
}

TEST(Percentile, NearestRank)
{
  EXPECT_EQ(rank_of(100, 50), 50u);
  EXPECT_EQ(rank_of(100, 99), 99u);
  EXPECT_EQ(rank_of(1000, 99), 990u); // no float round-up to 991
  EXPECT_EQ(rank_of(5, 50), 3u);
  EXPECT_EQ(rank_of(1, 99), 1u);
  EXPECT_EQ(nearest_rank(one_to(100), 99), 99.0);
  EXPECT_EQ(nearest_rank({3, 1, 2}, 50), 2.0); // unsorted input
  EXPECT_EQ(nearest_rank({7}, 1), 7.0);
  EXPECT_FALSE(nearest_rank({}, 50).has_value());
  EXPECT_EQ(median({4, 1, 3, 2}), 2.0); // rank ceil(0.5 * 4) = 2
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, NeedsTenSamplesBeyond)
{
  EXPECT_FALSE(percentile_supported(0, 50));
  EXPECT_FALSE(percentile_supported(19, 50));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_FALSE(supported_percentile(one_to(999), 99).has_value());
  EXPECT_EQ(supported_percentile(one_to(1000), 99), 990.0);
}

TEST(Outcomes, EveryArrivalIsInTheDenominator)
{
  Outcomes o;
  o.committed = 90;
  o.invalid = 2;
  o.rejected = 3;
  o.unresolved = 1;
  o.served_other = 4;
  EXPECT_EQ(o.attempted(), 100u);
  EXPECT_EQ(o.failed(), 6u);
  EXPECT_DOUBLE_EQ(failed_fraction(o), 0.06);
  EXPECT_EQ(failed_fraction(Outcomes{}), 0.0);
}

TEST(Outcomes, FailedRequestsMissEveryLatencyLimit)
{
  // 990 fast commits and 10 failures: p99 (rank 990) is still fast.
  const std::vector<double> fast(990, 5.0);
  EXPECT_TRUE(meets_latency_limit(fast, 10, 99, 40));
  // One more failure pushes the p99 rank onto a failure.
  const std::vector<double> fewer(989, 5.0);
  EXPECT_FALSE(meets_latency_limit(fewer, 11, 99, 1e300));
  // Slow commits miss the limit on their own.
  std::vector<double> slow(1000, 5.0);
  std::fill(slow.end() - 11, slow.end(), 100.0); // rank 990 is slow
  EXPECT_FALSE(meets_latency_limit(slow, 0, 99, 40));
  // Too few samples to support a p99: not met.
  EXPECT_FALSE(meets_latency_limit(std::vector<double>(500, 1.0), 0, 99, 40));
}

TEST(Spans, SelfTimeIsSpanMinusChildren)
{
  std::vector<Span> spans = {
    {"submit", 0, 100, std::nullopt, 1},
    {"execute", 10, 30, 0, 1},
    {"sign", 40, 90, 0, 1},
    {"hash", 50, 60, 2, 1},
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 30u); // 100 - 20 - 50
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 40u); // grandchildren only reduce their own parent
  EXPECT_EQ(self[3], 10u);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce)
{
  std::vector<Span> spans = {
    {"parent", 100, 200, std::nullopt, 0},
    {"a", 110, 150, 0, 0},
    {"b", 140, 170, 0, 0}, // overlaps a by 10
    {"c", 190, 250, 0, 0}, // runs past the parent's end
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100u - 60u - 10u);
}
