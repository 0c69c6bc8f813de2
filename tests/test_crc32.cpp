// The repo's checksum (src/util/crc32.hpp): the standard known answer, the
// portable table path against a bit-at-a-time reference, and the table
// path against the SSE4.2 path.
#include "src/util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace rds {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> b(n);
  std::uint32_t x = 0x12345678u;
  for (auto& v : b) {
    x = x * 1664525u + 1013904223u;
    v = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

/// One bit per step, straight from the definition.
std::uint32_t bitwise_crc(std::span<const std::uint8_t> data,
                          std::uint32_t poly) {
  std::uint32_t c = ~0u;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? poly ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

TEST(Crc32, KnownAnswers) {
  const auto check = bytes_of("123456789");
  EXPECT_EQ(crc32c(check), 0xE3069283u);
  EXPECT_EQ(crc_detail::crc32c_table(check), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32, SeedChainsAcrossBuffers) {
  const std::vector<std::uint8_t> data = pattern(1000);
  const std::span<const std::uint8_t> all(data);
  for (const std::size_t cut : {0u, 1u, 7u, 8u, 333u, 999u, 1000u}) {
    EXPECT_EQ(crc32c(all.subspan(cut), crc32c(all.first(cut))), crc32c(all));
  }
}

TEST(Crc32, SlicingMatchesBitwiseReference) {
  // Persisted CRCs must not change with the table layout.
  const std::vector<std::uint8_t> data = pattern(300 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto part =
          std::span<const std::uint8_t>(data).subspan(offset, len);
      ASSERT_EQ(crc_detail::crc32c_table(part), bitwise_crc(part, 0x82F63B78u))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, TablePathMatchesHardwarePath) {
  if (!crc_detail::crc32c_hardware()) {
    GTEST_SKIP() << "CPU reports no SSE4.2: crc32c() runs the table path";
  }
  const std::vector<std::uint8_t> data = pattern(4100 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4100; ++len) {
      const auto part =
          std::span<const std::uint8_t>(data).subspan(offset, len);
      ASSERT_EQ(crc32c(part), crc_detail::crc32c_table(part))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace rds
