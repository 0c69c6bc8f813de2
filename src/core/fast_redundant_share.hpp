// Redundant Share with near-O(k) lookups (Section 3.3 of the paper).
//
// RedundantShare's walk is a Markov chain over states (m copies needed,
// position j); a run of skips at constant m has the product-form survival
// Q_m(i) = prod_{l < i}(1 - f(m, l)).  We precompute, per level m, the
// monotone log-survival array and invert the conditional CDF of "position
// of the next selection": one hash evaluation and one short search per copy
// instead of the O(n) scan.  The joint law is *identical* to
// RedundantShare's (same Markov kernel); only the coupling of the random
// choices differs, which slightly worsens adaptivity -- measured in
// bench/ablation_fast_adaptivity.
//
// The search is a guide table (Chen & Asau, 1974) over each level's array:
// the array's value range is cut into a fixed multiple of n equal buckets,
// and guide[b] holds the first column whose value falls in bucket b or
// later.  A lookup jumps to the threshold's bucket and scans forward --
// under one column on average up to n = 10,000 -- so a placement is
// near-O(k) at O(k * n) memory, built in O(n) time per level.  The
// guide only chooses where the scan starts; the array and the comparison
// are those of a plain binary search, so placements do not depend on the
// bucket count.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/redundant_share.hpp"

namespace rds {

namespace metrics {
class Counter;
}  // namespace metrics

class FastRedundantShare final : public ReplicationStrategy {
 public:
  FastRedundantShare(const ClusterConfig& config, unsigned k);
  FastRedundantShare(const ClusterConfig& config, unsigned k,
                     RedundantShare::Options opt);

  void place(std::uint64_t address, std::span<DeviceId> out) const override;
  using ReplicationStrategy::place;

  /// Batch path: identical output to looping place(), with the size check
  /// and the two counter increments amortized over the whole span.
  void place_many(std::span<const std::uint64_t> addresses,
                  std::span<DeviceId> out) const override;

  [[nodiscard]] unsigned replication() const override { return tables_.k; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t device_count() const override {
    return tables_.size();
  }

  [[nodiscard]] const detail::RsTables& tables() const noexcept {
    return tables_;
  }

 private:
  /// Per-level sampler state (level m lives at levels_[m-1]).
  struct Level {
    // log_survival[i] = sum of log(1 - f(m, l)) over the non-absorbing
    // columns l < i (absorbing: f >= 1); size n+1, non-increasing.
    std::vector<double> log_survival;
    // next_absorbing[i] = first column >= i with f(m, .) >= 1 (n if none;
    // one always exists within reach of any valid state).
    std::vector<std::uint32_t> next_absorbing;
    // guide[b] = first i with bucket(log_survival[i]) >= b (n+1 if none).
    std::vector<std::uint32_t> guide;
    // bucket(v) = min(guide.size() - 1, floor(v * bucket_scale)); negative
    // so that depth -v maps onto [0, guide.size()).
    double bucket_scale = 0.0;

    [[nodiscard]] std::size_t bucket(double v) const noexcept;
  };

  /// Position of level m's selection, starting the scan at `start`.
  [[nodiscard]] std::size_t sample_selection(unsigned m, std::size_t start,
                                             std::uint64_t address) const;

  /// Writes the k copies of `address` to out[0..k) (unchecked) and returns
  /// one past the deepest column consumed.
  std::size_t place_into(std::uint64_t address, DeviceId* out) const;

  detail::RsTables tables_;
  std::vector<Level> levels_;

  // Registry-owned instruments: placements served and total columns the
  // level samplers consumed (two relaxed increments per place(), two per
  // place_many() batch).
  metrics::Counter* placements_total_ = nullptr;
  metrics::Counter* chain_columns_total_ = nullptr;
};

}  // namespace rds
