#include "src/storage/erasure/gf256.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rds {
namespace {

using gf256::add;
using gf256::inv;
using gf256::mul;

TEST(GF256, AdditionIsXor) {
  EXPECT_EQ(add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(add(7, 7), 0);
}

TEST(GF256, MultiplicativeIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(x, 1), x);
    EXPECT_EQ(mul(1, x), x);
    EXPECT_EQ(mul(x, 0), 0);
    EXPECT_EQ(mul(0, x), 0);
  }
}

TEST(GF256, KnownProducts) {
  // In GF(2^8)/0x11d: 0x8E * 2 = 0x11C, reduced by 0x11d -> 0x01.
  EXPECT_EQ(mul(0x8E, 0x02), 0x01);
  // 3 * 3 = (x+1)^2 = x^2 + 1 = 0x05 (no reduction needed).
  EXPECT_EQ(mul(0x03, 0x03), 0x05);
  // 0x80 * 2 = 0x100 -> xor 0x11d = 0x1d.
  EXPECT_EQ(mul(0x80, 0x02), 0x1D);
}

TEST(GF256, MultiplicationCommutesOnSample) {
  for (unsigned a = 1; a < 256; a += 7) {
    for (unsigned b = 1; b < 256; b += 11) {
      EXPECT_EQ(mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                mul(static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(GF256, AssociativityOnSample) {
  for (unsigned a = 1; a < 256; a += 31) {
    for (unsigned b = 1; b < 256; b += 37) {
      for (unsigned c = 1; c < 256; c += 41) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        const auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(mul(mul(x, y), z), mul(x, mul(y, z)));
      }
    }
  }
}

TEST(GF256, DistributivityOnSample) {
  for (unsigned a = 1; a < 256; a += 13) {
    for (unsigned b = 0; b < 256; b += 17) {
      for (unsigned c = 0; c < 256; c += 19) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        const auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(mul(x, add(y, z)), add(mul(x, y), mul(x, z)));
      }
    }
  }
}

TEST(GF256, EveryNonZeroElementHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(x, inv(x)), 1) << "a=" << a;
  }
}

TEST(GF256, DivisionInvertsMultiplication) {
  // Division is multiplication by the inverse.
  for (unsigned a = 0; a < 256; a += 5) {
    for (unsigned b = 1; b < 256; b += 9) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      EXPECT_EQ(mul(mul(x, y), inv(y)), x);
    }
  }
}

TEST(GF256, GeneratorHasFullOrder) {
  // 2 generates the multiplicative group: 2^255 == 1 and 2^e != 1 earlier.
  std::uint8_t power = 1;
  for (unsigned e = 1; e < 255; ++e) {
    power = mul(power, 2);
    EXPECT_NE(power, 1) << "order divides " << e;
  }
  EXPECT_EQ(mul(power, 2), 1);
}

/// Bitwise carry-less multiply reduced by 0x11d: the field's definition,
/// independent of the codec's tables.
std::uint8_t reference_mul(std::uint8_t a, std::uint8_t b) {
  unsigned x = a;
  unsigned product = 0;
  for (unsigned bit = 0; bit < 8; ++bit) {
    if ((b >> bit) & 1) product ^= x;
    x <<= 1;
    if (x & 0x100) x ^= 0x11d;
  }
  return static_cast<std::uint8_t>(product);
}

TEST(GF256, MulAddAndScaleMatchCarrylessMultiply) {
  // Every coefficient x every byte value, at lengths around the loop's
  // edges: empty, one byte, odd, and past a page.  The source bytes i*7+3
  // run through all 256 values once the length reaches 256.
  for (const std::size_t len : {0u, 1u, 7u, 4097u}) {
    std::vector<std::uint8_t> src(len);
    for (std::size_t i = 0; i < len; ++i) {
      src[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    for (unsigned c = 0; c < 256; ++c) {
      const auto coef = static_cast<std::uint8_t>(c);
      std::vector<std::uint8_t> acc(len);
      for (std::size_t i = 0; i < len; ++i) {
        acc[i] = static_cast<std::uint8_t>(i ^ 0x5A);
      }
      std::vector<std::uint8_t> expect_add = acc;
      std::vector<std::uint8_t> expect_scale = src;
      for (std::size_t i = 0; i < len; ++i) {
        expect_add[i] ^= reference_mul(coef, src[i]);
        expect_scale[i] = reference_mul(coef, src[i]);
      }
      gf256::mul_add(acc, src, coef);
      std::vector<std::uint8_t> scaled = src;
      gf256::scale(scaled, coef);
      ASSERT_EQ(acc, expect_add) << "mul_add c=" << c << " len=" << len;
      ASSERT_EQ(scaled, expect_scale) << "scale c=" << c << " len=" << len;
    }
  }
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                reference_mul(static_cast<std::uint8_t>(a),
                              static_cast<std::uint8_t>(b)));
    }
  }
}

TEST(GF256, MulAddRowOperation) {
  std::vector<std::uint8_t> dst{1, 2, 3, 0};
  const std::vector<std::uint8_t> src{5, 0, 7, 9};
  gf256::mul_add(dst, src, 3);
  EXPECT_EQ(dst[0], add(1, mul(3, 5)));
  EXPECT_EQ(dst[1], 2);  // src 0 contributes nothing
  EXPECT_EQ(dst[2], add(3, mul(3, 7)));
  EXPECT_EQ(dst[3], mul(3, 9));
}

TEST(GF256, MulAddWithCoefficientOneIsXor) {
  std::vector<std::uint8_t> dst{1, 2, 3};
  const std::vector<std::uint8_t> src{4, 5, 6};
  gf256::mul_add(dst, src, 1);
  EXPECT_EQ(dst, (std::vector<std::uint8_t>{1 ^ 4, 2 ^ 5, 3 ^ 6}));
}

TEST(GF256, ScaleInPlace) {
  std::vector<std::uint8_t> v{1, 2, 0};
  gf256::scale(v, 2);
  EXPECT_EQ(v[0], mul(1, 2));
  EXPECT_EQ(v[1], mul(2, 2));
  EXPECT_EQ(v[2], 0);
}

}  // namespace
}  // namespace rds
