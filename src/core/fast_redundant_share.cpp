#include "src/core/fast_redundant_share.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/metrics/registry.hpp"
#include "src/util/hash.hpp"

namespace rds {
namespace {

constexpr std::uint64_t kLevelSalt = 0xFA57C0DEULL;  // per-level tail sample

// Guide buckets per device and level (4 bytes each, next to the array's 8
// per column).  With 2, a sampled level scans on average 0.5 columns past
// its guide entry at n = 100, 0.8 at n = 1000 and 1.0 at n = 10,000 (the
// array spans a depth of ~m ln n, so the count grows like ln n).  8 per
// device scans less but builds ~60% slower at n = 1000, k = 4, and the
// build runs on every committed topology change.
constexpr std::size_t kGuideBucketsPerDevice = 2;

}  // namespace

std::size_t FastRedundantShare::Level::bucket(double v) const noexcept {
  // Monotone in v (IEEE multiplication and truncation are), which is all
  // the guide's correctness needs.
  const double x = v * bucket_scale;
  const std::size_t last = guide.size() - 1;
  return x < static_cast<double>(last) ? static_cast<std::size_t>(x) : last;
}

FastRedundantShare::FastRedundantShare(const ClusterConfig& config, unsigned k)
    : FastRedundantShare(config, k, RedundantShare::Options{}) {}

FastRedundantShare::FastRedundantShare(const ClusterConfig& config, unsigned k,
                                       RedundantShare::Options opt)
    : tables_(detail::RsTables::build(config, k, opt.apply_optimal_weights,
                                      opt.apply_adjustment)) {
  const std::size_t n = tables_.size();
  const std::size_t buckets = kGuideBucketsPerDevice * n;
  levels_.resize(k);
  for (unsigned m = 1; m <= k; ++m) {
    Level& level = levels_[m - 1];
    std::vector<double>& ls = level.log_survival;
    std::vector<std::uint32_t>& na = level.next_absorbing;
    ls.assign(n + 1, 0.0);
    na.assign(n + 1, static_cast<std::uint32_t>(n));
    for (std::size_t j = 0; j < n; ++j) {
      const double f = tables_.f(m, j);
      ls[j + 1] = ls[j] + (f >= 1.0 ? 0.0 : std::log1p(-f));
    }
    for (std::size_t j = n; j-- > 0;) {
      na[j] =
          tables_.f(m, j) >= 1.0 ? static_cast<std::uint32_t>(j) : na[j + 1];
    }
    // guide[b] = #{i : bucket(ls[i]) < b}, which is the first i with
    // bucket(ls[i]) >= b because bucket(ls[i]) is non-decreasing in i (and
    // n+1 past ls[n]'s bucket): count each column into its bucket, then
    // take the exclusive prefix sum.
    level.bucket_scale =
        ls[n] < 0.0 ? static_cast<double>(buckets) / ls[n] : 0.0;
    std::vector<std::uint32_t>& guide = level.guide;
    guide.assign(buckets, 0);
    for (const double v : ls) ++guide[level.bucket(v)];
    std::uint32_t below = 0;
    for (std::uint32_t& g : guide) {
      const std::uint32_t count = g;
      g = below;
      below += count;
    }
  }
  metrics::Registry& reg = metrics::Registry::global();
  const metrics::Labels labels{{"strategy", "fast-redundant-share"}};
  placements_total_ = &reg.counter("rds_placements_total", labels);
  chain_columns_total_ = &reg.counter("rds_placement_chain_columns_total",
                                      labels);
}

std::size_t FastRedundantShare::sample_selection(unsigned m, std::size_t start,
                                                 std::uint64_t address) const {
  const Level& level = levels_[m - 1];
  const std::size_t a = level.next_absorbing[start];
  if (a >= tables_.size()) {
    // No absorbing column from `start`: the invariant "f(m, j) == 1 when
    // only m bins remain" was violated upstream.
    throw std::logic_error("FastRedundantShare: no absorbing column");
  }
  if (a == start) return start;  // forced selection

  const double u = to_unit(hash3(address, kLevelSalt, m));
  // Selection at i  iff  survival(start -> i+1) <= 1-u < survival(start->i).
  // In log space over the absorbing-free window (start, a]: the first
  // column l with ls[l] <= ls[start] + log(1-u); if none, the absorbing
  // column takes the selection.  Every column before the threshold's guide
  // entry lies above the threshold, so the scan starts there.
  const double* const ls = level.log_survival.data();
  const double threshold = ls[start] + std::log1p(-u);
  std::size_t l = std::max<std::size_t>(level.guide[level.bucket(threshold)],
                                        start + 1);
  while (l <= a && ls[l] > threshold) ++l;
  return l > a ? a : l - 1;
}

std::size_t FastRedundantShare::place_into(std::uint64_t address,
                                           DeviceId* out) const {
  std::size_t start = 0;
  for (unsigned m = tables_.k; m >= 1; --m) {
    const std::size_t i = sample_selection(m, start, address);
    *out++ = tables_.uids[i];
    start = i + 1;
  }
  return start;
}

void FastRedundantShare::place(std::uint64_t address,
                               std::span<DeviceId> out) const {
  check_out_span(out, tables_.k);
  const std::size_t columns = place_into(address, out.data());
  placements_total_->inc();
  // One past the deepest column any level consumed -- the fast variant's
  // analogue of the slow walk's chain depth.
  chain_columns_total_->inc(columns);
}

void FastRedundantShare::place_many(std::span<const std::uint64_t> addresses,
                                    std::span<DeviceId> out) const {
  const unsigned k = tables_.k;
  if (out.size() != addresses.size() * k) {
    throw std::invalid_argument(
        "ReplicationStrategy::place_many: output size != addresses * k");
  }
  DeviceId* o = out.data();
  std::uint64_t columns = 0;
  for (const std::uint64_t address : addresses) {
    columns += place_into(address, o);
    o += k;
  }
  placements_total_->inc(addresses.size());
  chain_columns_total_->inc(columns);
}

std::string FastRedundantShare::name() const { return "fast-redundant-share"; }

}  // namespace rds
