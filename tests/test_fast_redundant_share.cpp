#include "src/core/fast_redundant_share.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "src/metrics/registry.hpp"
#include "src/sim/block_map.hpp"
#include "src/sim/scenario.hpp"
#include "src/util/crc32.hpp"
#include "src/util/random.hpp"
#include "src/util/stats.hpp"

namespace rds {
namespace {

ClusterConfig cluster_from(const std::vector<std::uint64_t>& caps) {
  std::vector<Device> devices;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const std::string id = std::to_string(i);
    devices.push_back({i, caps[i], "d" + id});
  }
  return ClusterConfig(std::move(devices));
}

/// Monte-Carlo fairness against the adjusted-capacity shares.
void expect_fair_sampled(const std::vector<std::uint64_t>& caps, unsigned k,
                         std::uint64_t balls = 120'000) {
  const ClusterConfig config = cluster_from(caps);
  const FastRedundantShare s(config, k);
  const BlockMap map(s, balls);
  const auto counts = map.device_counts();

  const std::span<const double> adjusted = s.tables().caps;
  double total = 0.0;
  for (const double a : adjusted) total += a;

  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const auto it = counts.find(s.tables().uids[i]);
    observed.push_back(it == counts.end() ? 0 : it->second);
    expected.push_back(static_cast<double>(k) * balls * adjusted[i] / total);
  }
  EXPECT_LT(chi_square(observed, expected),
            chi_square_critical_999(config.size() - 1))
      << "n=" << caps.size() << " k=" << k;
}

TEST(FastRedundantShare, DeterministicAndDistinct) {
  const FastRedundantShare s(cluster_from({9, 7, 5, 3, 2, 1}), 3);
  std::vector<DeviceId> out(3), again(3);
  for (std::uint64_t a = 0; a < 5000; ++a) {
    s.place(a, out);
    s.place(a, again);
    EXPECT_EQ(out, again);
    std::vector<DeviceId> sorted = out;
    std::ranges::sort(sorted);
    EXPECT_EQ(std::ranges::adjacent_find(sorted), sorted.end());
  }
}

TEST(FastRedundantShare, FairnessMirrorsSlowVariant) {
  expect_fair_sampled({2, 1, 1}, 2);
  expect_fair_sampled({3, 3, 1, 1}, 2);       // inhomogeneous
  expect_fair_sampled({4, 4, 4, 1, 1}, 2);    // inhomogeneous, L = 2
  expect_fair_sampled({5, 4, 3, 2, 1, 1}, 3);
  expect_fair_sampled({3, 2, 2, 2, 1}, 3);    // nested adjustment case
  expect_fair_sampled({6, 5, 4, 3, 2, 1, 1}, 4, 60'000);
}

TEST(FastRedundantShare, FairnessAfterCapacityAdjustment) {
  expect_fair_sampled({10, 1, 1}, 2);
  expect_fair_sampled({10, 10, 1, 1}, 3);
}

TEST(FastRedundantShare, PaperLadderFairness) {
  const ClusterConfig config = paper_heterogeneous_base();
  const FastRedundantShare s(config, 2);
  constexpr std::uint64_t kBalls = 100'000;
  const BlockMap map(s, kBalls);
  const auto counts = map.device_counts();
  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  const double total = static_cast<double>(config.total_capacity());
  for (std::size_t i = 0; i < config.size(); ++i) {
    observed.push_back(counts.at(config[i].uid));
    expected.push_back(2.0 * kBalls *
                       static_cast<double>(config[i].capacity) / total);
  }
  EXPECT_LT(chi_square(observed, expected),
            chi_square_critical_999(config.size() - 1));
}

TEST(FastRedundantShare, KEqualsOne) {
  const FastRedundantShare s(cluster_from({6, 3, 1}), 1);
  constexpr std::uint64_t kBalls = 100'000;
  std::vector<std::uint64_t> counts(3, 0);
  std::vector<DeviceId> out(1);
  for (std::uint64_t a = 0; a < kBalls; ++a) {
    s.place(a, out);
    ++counts[out[0]];
  }
  const std::vector<double> expected{0.6 * kBalls, 0.3 * kBalls,
                                     0.1 * kBalls};
  EXPECT_LT(chi_square(counts, expected), chi_square_critical_999(2));
}

TEST(FastRedundantShare, KEqualsN) {
  const FastRedundantShare s(cluster_from({5, 3, 2}), 3);
  std::vector<DeviceId> out(3);
  for (std::uint64_t a = 0; a < 300; ++a) {
    s.place(a, out);
    std::vector<DeviceId> sorted = out;
    std::ranges::sort(sorted);
    EXPECT_EQ(sorted, (std::vector<DeviceId>{0, 1, 2}));
  }
}

TEST(FastRedundantShare, PrimaryDistributionMatchesSlowVariant) {
  // Both variants realize the same Markov chain, so the distribution of the
  // primary (copy 0) must agree between them.
  const ClusterConfig config = cluster_from({7, 5, 4, 2, 1, 1});
  const RedundantShare slow(config, 3);
  const FastRedundantShare fast(config, 3);
  constexpr std::uint64_t kBalls = 150'000;
  std::vector<std::uint64_t> cs(config.size(), 0), cf(config.size(), 0);
  std::vector<DeviceId> out(3);
  for (std::uint64_t a = 0; a < kBalls; ++a) {
    slow.place(a, out);
    ++cs[config.index_of(out[0]).value()];
    fast.place(a, out);
    ++cf[config.index_of(out[0]).value()];
  }
  // Compare the two empirical distributions against each other via
  // chi-square on the slow counts as "expected".
  std::vector<double> expected;
  for (const std::uint64_t c : cs) {
    expected.push_back(std::max(1.0, static_cast<double>(c)));
  }
  EXPECT_LT(chi_square(cf, expected),
            2.0 * chi_square_critical_999(config.size() - 1));
}

/// bench/perf_placement.cpp's cluster: n devices, capacities 500..2499.
ClusterConfig bench_cluster(std::size_t n) {
  Xoshiro256 rng(n * 1234567);
  std::vector<Device> devices;
  devices.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    devices.push_back({i, 500 + rng.next_below(2000), ""});
  }
  return ClusterConfig(std::move(devices));
}

/// CRC-32C over the little-endian bytes of the placements of `count`
/// addresses spread over the whole 64-bit space.
std::uint32_t placement_digest(const ClusterConfig& config, unsigned k,
                               std::uint64_t count) {
  const FastRedundantShare s(config, k);
  std::vector<DeviceId> out(k);
  std::vector<std::uint8_t> bytes;
  std::uint32_t crc = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    s.place(i * 0x9E3779B97F4A7C15ULL, out);
    for (const DeviceId id : out) {
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<std::uint8_t>(id >> (8 * b)));
      }
    }
    if (bytes.size() >= (1u << 16)) {
      crc = crc32c(bytes, crc);
      bytes.clear();
    }
  }
  return crc32c(bytes, crc);
}

TEST(FastRedundantShare, PlacementsMatchParentDigest) {
  // The guide table only chooses where each level's scan starts; the
  // log-survival arrays and the comparison are those of the binary search
  // it replaced.  These digests were recorded with that binary search, so
  // every one of 2^20 placements per row is pinned -- on the paper ladder,
  // the benchmarks' n = 1000 cluster, and a cluster past 4096 devices.
  struct Row {
    const char* config;
    unsigned k;
    std::uint32_t crc;
  };
  constexpr Row kRows[] = {
      {"ladder", 1, 0xB1ECFB9F}, {"ladder", 2, 0x42D7C667},
      {"ladder", 3, 0x6B3BE5A6}, {"ladder", 4, 0x5F1C35EE},
      {"n1000", 1, 0xC615DDE9},  {"n1000", 2, 0x9821F08B},
      {"n1000", 3, 0x18FF6F66},  {"n1000", 4, 0x54F5C6B0},
      {"n5000", 1, 0xE792DBC7},  {"n5000", 2, 0x888E8789},
      {"n5000", 3, 0xCDDD2192},  {"n5000", 4, 0x3D2777C4},
  };
  const ClusterConfig ladder = paper_heterogeneous_base();
  const ClusterConfig n1000 = bench_cluster(1000);
  const ClusterConfig n5000 = bench_cluster(5000);
  for (const Row& row : kRows) {
    const std::string name = row.config;
    const ClusterConfig& config =
        name == "ladder" ? ladder : (name == "n1000" ? n1000 : n5000);
    EXPECT_EQ(placement_digest(config, row.k, 1u << 20), row.crc)
        << row.config << " k=" << row.k;
  }
}

TEST(FastRedundantShare, PlaceManyMatchesSequentialPlace) {
  // The batch path must be bit-identical to the per-address path, including
  // across the 4k chunk boundary BatchPlacer uses, and must count the same
  // placements and chain columns.
  const ClusterConfig config = cluster_from({9, 7, 5, 3, 2, 1});
  const FastRedundantShare s(config, 3);
  constexpr std::size_t kBatch = 4097;
  std::vector<std::uint64_t> addresses(kBatch);
  std::iota(addresses.begin(), addresses.end(), std::uint64_t{0});
  for (auto& a : addresses) a = a * 2654435761u + 17;

  metrics::Registry& reg = metrics::Registry::global();
  const metrics::Labels labels{{"strategy", "fast-redundant-share"}};
  metrics::Counter& placements = reg.counter("rds_placements_total", labels);
  metrics::Counter& columns =
      reg.counter("rds_placement_chain_columns_total", labels);

  const std::uint64_t placements_0 = placements.value();
  const std::uint64_t columns_0 = columns.value();
  std::vector<DeviceId> batch(kBatch * 3);
  s.place_many(addresses, batch);
  const std::uint64_t placements_1 = placements.value();
  const std::uint64_t columns_1 = columns.value();

  std::vector<DeviceId> one(3);
  for (std::size_t i = 0; i < kBatch; ++i) {
    s.place(addresses[i], one);
    const std::vector<DeviceId> row(batch.begin() + i * 3,
                                    batch.begin() + (i + 1) * 3);
    ASSERT_EQ(row, one) << "address index " << i;
  }
  EXPECT_EQ(placements_1 - placements_0, kBatch);
  EXPECT_EQ(placements.value() - placements_1, kBatch);
  EXPECT_EQ(columns_1 - columns_0, columns.value() - columns_1);
  EXPECT_GE(columns_1 - columns_0, kBatch * 3);
}

TEST(FastRedundantShare, PlaceManyRejectsMismatchedSpan) {
  const FastRedundantShare s(cluster_from({9, 7, 5, 3}), 2);
  const std::vector<std::uint64_t> addresses(8);
  std::vector<DeviceId> wrong(8 * 2 - 1);
  EXPECT_THROW(s.place_many(addresses, wrong), std::invalid_argument);
}

TEST(FastRedundantShare, Validation) {
  EXPECT_THROW(FastRedundantShare(cluster_from({3, 2, 1}), 0),
               std::invalid_argument);
  EXPECT_THROW(FastRedundantShare(cluster_from({3, 2, 1}), 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace rds
