#include "arith.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool percentile_supported(double q, std::uint64_t samples) {
  // The slack absorbs rounding: 1000 * (1 - 0.99) is 9.9999...
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

double OpTally::failed_share() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

OpTally app_ops(bool threw, bool matches_reference) {
  return {1, threw || !matches_reference ? 1u : 0u};
}

OpTally kv_ops(bool threw, const KvAccounting& a) {
  const bool consistent = a.requests == a.expected &&
                          a.gets + a.puts == a.requests &&
                          a.responses <= a.requests;
  if (threw || !consistent) return {a.expected, a.expected};
  const std::uint64_t failed =
      a.bad_requests + a.rejects_full + (a.requests - a.responses);
  return {a.expected, std::min(failed, a.expected)};
}

bool meets_limit(const LadderRow& row) {
  return row.failed == 0 && row.p99_ns <= kP99LimitNs &&
         row.span_ns <= row.latest_arrival_ns + kBacklogSlackNs;
}

double max_rate_rps(const std::vector<LadderRow>& rows) {
  double best = 0.0;
  for (const LadderRow& r : rows) {
    if (meets_limit(r)) best = std::max(best, r.rate_rps);
  }
  return best;
}

}  // namespace perfbench
