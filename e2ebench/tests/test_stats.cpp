// Tests of the benchmark's own statistics: the tail-percentile rule and
// span self time.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median(ramp(101)), 50.0);
}

TEST(TailQuantile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_FALSE(tail_quantile(ramp(99), 0.9).has_value());
  ASSERT_TRUE(tail_quantile(ramp(100), 0.9).has_value());
  EXPECT_DOUBLE_EQ(*tail_quantile(ramp(100), 0.9), 89.1);
  EXPECT_FALSE(tail_quantile(ramp(19), 0.5).has_value());
  EXPECT_TRUE(tail_quantile(ramp(20), 0.5).has_value());
  EXPECT_FALSE(tail_quantile(ramp(999), 0.99).has_value());
  EXPECT_TRUE(tail_quantile(ramp(1000), 0.99).has_value());
}

TEST(UnionLength, CountsOverlapOnce) {
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 2}, {1, 3}, {5, 6}}), 4.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 10}, {2, 3}}), 10.0);
}

TEST(SelfTime, SpanMinusUnionOfChildren) {
  const Interval span{0.0, 10.0};
  EXPECT_DOUBLE_EQ(self_time(span, {}), 10.0);
  const std::vector<Interval> disjoint{{1, 3}, {5, 6}};
  EXPECT_DOUBLE_EQ(self_time(span, disjoint), 7.0);
  // Overlapping children (work on other threads) are counted once.
  const std::vector<Interval> overlapping{{1, 4}, {2, 5}};
  EXPECT_DOUBLE_EQ(self_time(span, overlapping), 6.0);
  // Children are clipped to the span.
  const std::vector<Interval> spilling{{-5, 2}, {9, 20}};
  EXPECT_DOUBLE_EQ(self_time(span, spilling), 7.0);
}

TEST(Tracer, NestedSpansGiveSelfTime) {
  Tracer tracer;
  tracer.record("outer", 0.0, 10.0);
  tracer.record("inner", 2.0, 5.0);
  tracer.record("inner", 6.0, 7.0);
  tracer.record("leaf", 3.0, 4.0);  // nested in the first inner span
  const auto totals = tracer.summarize();
  EXPECT_DOUBLE_EQ(totals.at("outer").total_ms, 10.0);
  EXPECT_DOUBLE_EQ(totals.at("outer").self_ms, 6.0);
  EXPECT_DOUBLE_EQ(totals.at("inner").total_ms, 4.0);
  EXPECT_DOUBLE_EQ(totals.at("inner").self_ms, 3.0);
  EXPECT_EQ(totals.at("inner").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("leaf").self_ms, 1.0);
}

}  // namespace
}  // namespace e2e
