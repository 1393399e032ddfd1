// The benchmark's own arithmetic: medians over repeats, the sample-count
// rule for percentiles, failure accounting, and the open-loop max-rate
// rule for the kv ladder. Kept apart from perfbench.cpp so arith_test.cpp can
// pin every rule without standing up a cluster.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// Nearest-rank percentile of raw samples: the ceil(q * n)-th smallest
/// (q = 0 gives the minimum); 0 for an empty vector.
double percentile(std::vector<double> v, double q);

/// A percentile q is worth reporting only when at least ten samples lie
/// beyond it: samples * (1 - q) >= 10.
bool percentile_supported(double q, std::uint64_t samples);

/// Operations attempted and failed, summed over runs.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const OpTally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_share() const;
};

/// An app run is one operation: it fails when the run threw or its
/// checksum missed the serial reference.
OpTally app_ops(bool threw, bool matches_reference);

/// What one kv run at one ladder rate reported.
struct KvAccounting {
  std::uint64_t expected = 0;   ///< nodes x requests per node
  std::uint64_t requests = 0;   ///< KvSummary::requests
  std::uint64_t responses = 0;  ///< latency samples recorded
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t bad_requests = 0;  ///< 400 responses
  std::uint64_t rejects_full = 0;  ///< 507 responses
};

/// Every kv request is one operation. A thrown run, or one whose request
/// accounting does not add up, fails all `expected` operations; otherwise
/// 400s, 507s and requests without a response fail.
OpTally kv_ops(bool threw, const KvAccounting& a);

/// The latency limit on the ladder's p99, and the slack the serving span
/// may run past the latest scheduled arrival before the backlog counts as
/// growing. Both in virtual nanoseconds.
inline constexpr std::int64_t kP99LimitNs = 5'000'000;
inline constexpr std::int64_t kBacklogSlackNs = 5'000'000;

/// One rate of the open-loop ladder.
struct LadderRow {
  double rate_rps = 0;
  std::int64_t p99_ns = 0;
  std::int64_t span_ns = 0;            ///< KvSummary::span
  std::int64_t latest_arrival_ns = 0;  ///< from kv::KvClientStream
  std::uint64_t failed = 0;
};

/// True when the row meets the p99 limit without a growing backlog and
/// with no failed request.
bool meets_limit(const LadderRow& row);

/// The highest ladder rate that meets the limit; 0 when none does.
double max_rate_rps(const std::vector<LadderRow>& rows);

}  // namespace perfbench
