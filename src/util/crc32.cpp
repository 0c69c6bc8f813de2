#include "src/util/crc32.hpp"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define RDS_CRC32C_SSE42 1
#endif

namespace rds {
namespace {

constexpr std::uint32_t kCastagnoli = 0x82F63B78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected polynomial: tables[0] is the
/// classic byte table, tables[s][i] the CRC of byte i followed by s zero
/// bytes.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? kCastagnoli ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#ifdef RDS_CRC32C_SSE42
/// a * b mod the CRC-32C polynomial, reflected (bit 31 holds x^0).
/// Multiplying a CRC state by x^(8n) is what feeding it n zero bytes does.
constexpr std::uint32_t mul_mod(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? kCastagnoli ^ (b >> 1) : b >> 1;
  }
  return product;
}

/// Tables that advance a CRC-32C state over `bytes` zero bytes, one table
/// per state byte (the shift is linear in the state).
constexpr std::array<std::array<std::uint32_t, 256>, 4> make_shift_tables(
    std::size_t bytes) {
  std::uint32_t x_pow = 1u << 31;  // x^(8 * bytes) mod P
  for (std::size_t bit = 0; bit < 8 * bytes; ++bit) {
    x_pow = (x_pow & 1u) != 0 ? kCastagnoli ^ (x_pow >> 1) : x_pow >> 1;
  }
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = mul_mod(b << (8 * k), x_pow);
    }
  }
  return t;
}

// The `crc32` instruction has a 3-cycle latency but issues every cycle, so
// three independent streams over adjacent stripes run about three times
// faster than one; their states are merged by shifting over a stripe.
constexpr std::size_t kStripe = 256;
constexpr auto kStripeShift = make_shift_tables(kStripe);

std::uint32_t shift_stripe(std::uint32_t c) noexcept {
  const auto& t = kStripeShift;
  return t[0][c & 0xFFu] ^ t[1][(c >> 8) & 0xFFu] ^ t[2][(c >> 16) & 0xFFu] ^
         t[3][c >> 24];
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);  // x86-64 is little-endian
  return word;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t seed) noexcept {
  std::uint64_t c = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 3 * kStripe; p += 3 * kStripe, n -= 3 * kStripe) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kStripe; i += 8) {
      c = _mm_crc32_u64(c, load_u64(p + i));
      c1 = _mm_crc32_u64(c1, load_u64(p + kStripe + i));
      c2 = _mm_crc32_u64(c2, load_u64(p + 2 * kStripe + i));
    }
    c = shift_stripe(shift_stripe(static_cast<std::uint32_t>(c)) ^
                     static_cast<std::uint32_t>(c1)) ^
        static_cast<std::uint32_t>(c2);
  }
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load_u64(p));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
#ifdef RDS_CRC32C_SSE42
  static const bool hardware = crc_detail::crc32c_hardware();
  if (hardware) return crc32c_sse42(data, seed);
#endif
  return crc_detail::crc32c_table(data, seed);
}

namespace crc_detail {

std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t seed) noexcept {
  const Tables& t = kTables;
  std::uint32_t c = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

bool crc32c_hardware() noexcept {
#ifdef RDS_CRC32C_SSE42
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

}  // namespace crc_detail
}  // namespace rds
