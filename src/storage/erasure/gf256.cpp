#include "src/storage/erasure/gf256.hpp"

#include <cassert>

namespace rds::gf256 {
namespace {

// Built-in arrays, not std::array: the constant evaluation of the 65,536
// product entries must stay well inside the compilers' constexpr step
// limits (Clang's default is 2^20), and every std::array::operator[] call
// counts several steps there.
struct Tables {
  std::uint8_t log[256]{};
  std::uint8_t exp[512]{};  // doubled to skip a mod
  // product[a][b] = a * b; row a is the lookup table of "multiply by a".
  std::uint8_t product[256][256]{};

  constexpr Tables() {
    // Generator 2 of GF(2^8)/0x11d.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    for (unsigned a = 1; a < 256; ++a) {
      for (unsigned b = 1; b < 256; ++b) {
        product[a][b] = exp[static_cast<unsigned>(log[a]) + log[b]];
      }
    }
  }
};

constexpr Tables kT{};

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
  return kT.product[a][b];
}

std::uint8_t inv(std::uint8_t a) noexcept {
  assert(a != 0 && "gf256::inv of zero");
  if (a == 0) return 0;
  return kT.exp[255 - kT.log[a]];
}

void mul_add(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
             std::uint8_t c) noexcept {
  assert(dst.size() == src.size());
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
    return;
  }
  const std::uint8_t* row = kT.product[c];
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= row[src[i]];
}

void scale(std::span<std::uint8_t> dst, std::uint8_t c) noexcept {
  const std::uint8_t* row = kT.product[c];
  for (std::uint8_t& v : dst) v = row[v];
}

}  // namespace rds::gf256
