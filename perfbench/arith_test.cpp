// Tests for the benchmark's own arithmetic (arith.hpp): medians and
// percentiles, the ten-samples-beyond rule, failure accounting including a
// thrown run, and the kv ladder's max-rate rule.
#include "arith.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({7.0}), 7.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted 1..100
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(PercentileSupported, TenSamplesBeyond) {
  EXPECT_TRUE(percentile_supported(0.99, 1000));
  EXPECT_FALSE(percentile_supported(0.99, 999));
  EXPECT_TRUE(percentile_supported(0.999, 32000));  // 32 beyond
  EXPECT_FALSE(percentile_supported(0.9999, 32000));  // 3.2 beyond
  EXPECT_TRUE(percentile_supported(0.5, 20));
  EXPECT_FALSE(percentile_supported(0.5, 19));
  EXPECT_FALSE(percentile_supported(0.5, 0));
}

TEST(FailedShare, AppRunIsOneOp) {
  OpTally t;
  t.add(app_ops(false, true));
  t.add(app_ops(false, true));
  EXPECT_EQ(t.attempted, 2u);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.failed_share(), 0.0);
  t.add(app_ops(false, false));  // checksum mismatch
  t.add(app_ops(true, true));    // thrown run
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_EQ(t.failed_share(), 0.5);
  EXPECT_EQ(OpTally{}.failed_share(), 0.0);
}

KvAccounting clean_kv() {
  return {.expected = 32000,
          .requests = 32000,
          .responses = 32000,
          .gets = 28830,
          .puts = 3170};
}

TEST(FailedShare, KvCleanRunFailsNothing) {
  const OpTally t = kv_ops(false, clean_kv());
  EXPECT_EQ(t.attempted, 32000u);
  EXPECT_EQ(t.failed, 0u);
}

TEST(FailedShare, KvErrorStatusesAndMissingResponsesFail) {
  KvAccounting a = clean_kv();
  a.bad_requests = 3;
  a.rejects_full = 5;
  a.responses = 31990;  // ten requests never answered
  const OpTally t = kv_ops(false, a);
  EXPECT_EQ(t.attempted, 32000u);
  EXPECT_EQ(t.failed, 18u);
}

TEST(FailedShare, KvThrownRunFailsEveryOp) {
  KvAccounting a = clean_kv();
  a.requests = a.responses = a.gets = a.puts = 0;  // nothing was merged
  const OpTally t = kv_ops(true, a);
  EXPECT_EQ(t.attempted, 32000u);
  EXPECT_EQ(t.failed, 32000u);
  EXPECT_EQ(t.failed_share(), 1.0);
}

TEST(FailedShare, KvInconsistentAccountingFailsEveryOp) {
  KvAccounting short_run = clean_kv();
  short_run.requests = 31999;  // != nodes x requests per node
  EXPECT_EQ(kv_ops(false, short_run).failed, 32000u);
  KvAccounting bad_mix = clean_kv();
  bad_mix.puts = 3169;  // gets + puts != requests
  EXPECT_EQ(kv_ops(false, bad_mix).failed, 32000u);
}

TEST(MaxRate, HighestRateWithinLimitAndNoBacklog) {
  const std::int64_t ms = 1'000'000;
  std::vector<LadderRow> rows = {
      {4000, 2 * ms, 8000 * ms, 7999 * ms, 0},
      {8000, 4 * ms, 4003 * ms, 4000 * ms, 0},
      {10000, 9 * ms, 3210 * ms, 3200 * ms, 0},  // p99 over the limit
      {12000, 3 * ms, 2700 * ms, 2660 * ms, 0},  // backlog grew 40 ms
  };
  EXPECT_EQ(max_rate_rps(rows), 8000.0);
  // The limits themselves are inclusive.
  EXPECT_TRUE(meets_limit({1, kP99LimitNs, 10 + kBacklogSlackNs, 10, 0}));
  EXPECT_FALSE(meets_limit({1, kP99LimitNs + 1, 10, 10, 0}));
  EXPECT_FALSE(meets_limit({1, 1, 11 + kBacklogSlackNs, 10, 0}));
}

TEST(MaxRate, FailedRequestsCountAsOverTheLimit) {
  const std::int64_t ms = 1'000'000;
  std::vector<LadderRow> rows = {
      {4000, 2 * ms, 8000 * ms, 7999 * ms, 0},
      {8000, 4 * ms, 4003 * ms, 4000 * ms, 1},
  };
  EXPECT_EQ(max_rate_rps(rows), 4000.0);
  rows[0].failed = 7;
  EXPECT_EQ(max_rate_rps(rows), 0.0);
  EXPECT_EQ(max_rate_rps({}), 0.0);
}

}  // namespace
}  // namespace perfbench
