#include "common/float_formats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"

namespace sc = spikestream::common;

namespace {

/// The std::ldexp widening formula the conversions used before they built
/// floats from bits; kept as the oracle for the exhaustive decode tests.
float ldexp_widen(std::uint32_t b, int exp_bits, int man_bits,
                  bool ieee_special) {
  const int total = 1 + exp_bits + man_bits;
  const int bias = (1 << (exp_bits - 1)) - 1;
  const std::uint32_t exp_max = (1u << exp_bits) - 1;
  const std::uint32_t sign = (b >> (total - 1)) & 1u;
  const std::uint32_t e = (b >> man_bits) & exp_max;
  const std::uint32_t m = b & ((1u << man_bits) - 1);
  if (e == exp_max) {
    if (ieee_special) {
      if (m == 0) {
        return sign ? -std::numeric_limits<float>::infinity()
                    : std::numeric_limits<float>::infinity();
      }
      return std::numeric_limits<float>::quiet_NaN();
    }
    if (m == ((1u << man_bits) - 1)) {
      return std::numeric_limits<float>::quiet_NaN();
    }
  }
  if (e == 0) {
    if (m == 0) return sign ? -0.0f : 0.0f;
    const float v = std::ldexp(static_cast<float>(m), 1 - bias - man_bits);
    return sign ? -v : v;
  }
  const float frac =
      1.0f + static_cast<float>(m) / static_cast<float>(1u << man_bits);
  const float v = std::ldexp(frac, static_cast<int>(e) - bias);
  return sign ? -v : v;
}

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

}  // namespace

TEST(Formats, DecodeMatchesLdexpFormulaOnEveryPattern) {
  for (std::uint32_t b = 0; b < (1u << 16); ++b) {
    ASSERT_EQ(bits(ldexp_widen(b, 5, 10, true)),
              bits(sc::fp16_bits_to_fp32(static_cast<std::uint16_t>(b))))
        << "fp16 0x" << std::hex << b;
  }
  for (std::uint32_t b = 0; b < (1u << 8); ++b) {
    const auto b8 = static_cast<std::uint8_t>(b);
    ASSERT_EQ(bits(ldexp_widen(b, 4, 3, false)),
              bits(sc::fp8_e4m3_bits_to_fp32(b8)))
        << "e4m3 0x" << std::hex << b;
    ASSERT_EQ(bits(ldexp_widen(b, 5, 2, true)),
              bits(sc::fp8_e5m2_bits_to_fp32(b8)))
        << "e5m2 0x" << std::hex << b;
  }
}

TEST(Fp16, KnownValues) {
  EXPECT_EQ(sc::fp32_to_fp16_bits(0.0f), 0x0000);
  EXPECT_EQ(sc::fp32_to_fp16_bits(-0.0f), 0x8000);
  EXPECT_EQ(sc::fp32_to_fp16_bits(1.0f), 0x3C00);
  EXPECT_EQ(sc::fp32_to_fp16_bits(-2.0f), 0xC000);
  EXPECT_EQ(sc::fp32_to_fp16_bits(65504.0f), 0x7BFF);  // max finite
  EXPECT_EQ(sc::fp32_to_fp16_bits(0.5f), 0x3800);
  EXPECT_EQ(sc::fp32_to_fp16_bits(0.099975586f), 0x2E66);
}

TEST(Fp16, Decode) {
  EXPECT_FLOAT_EQ(sc::fp16_bits_to_fp32(0x3C00), 1.0f);
  EXPECT_FLOAT_EQ(sc::fp16_bits_to_fp32(0xC000), -2.0f);
  EXPECT_FLOAT_EQ(sc::fp16_bits_to_fp32(0x7BFF), 65504.0f);
  // smallest subnormal = 2^-24
  EXPECT_FLOAT_EQ(sc::fp16_bits_to_fp32(0x0001), std::ldexp(1.0f, -24));
}

TEST(Fp16, OverflowToInf) {
  const std::uint16_t b = sc::fp32_to_fp16_bits(1e6f);
  EXPECT_TRUE(std::isinf(sc::fp16_bits_to_fp32(b)));
}

TEST(Fp16, NanPreserved) {
  const std::uint16_t b =
      sc::fp32_to_fp16_bits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(sc::fp16_bits_to_fp32(b)));
}

TEST(Fp16, RoundTripIsIdempotent) {
  spikestream::common::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto x = static_cast<float>(rng.normal(0.0, 10.0));
    const float q1 = sc::quantize(x, sc::FpFormat::FP16);
    const float q2 = sc::quantize(q1, sc::FpFormat::FP16);
    EXPECT_EQ(q1, q2) << "x=" << x;
  }
}

TEST(Fp16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next fp16; ties to even
  // round down to 1.0. 1 + 3*2^-11 rounds up to 1 + 2^-9... (even mantissa).
  EXPECT_EQ(sc::fp32_to_fp16_bits(1.0f + std::ldexp(1.0f, -11)), 0x3C00);
  EXPECT_EQ(sc::fp32_to_fp16_bits(1.0f + 3 * std::ldexp(1.0f, -11)), 0x3C02);
}

TEST(Fp8E4M3, KnownValues) {
  EXPECT_EQ(sc::fp32_to_fp8_e4m3_bits(0.0f), 0x00);
  EXPECT_EQ(sc::fp32_to_fp8_e4m3_bits(1.0f), 0x38);    // 0.1110.000? bias 7
  EXPECT_EQ(sc::fp32_to_fp8_e4m3_bits(-1.5f), 0xBC);
  EXPECT_EQ(sc::fp32_to_fp8_e4m3_bits(448.0f), 0x7E);  // max finite
}

TEST(Fp8E4M3, SaturatesInsteadOfInf) {
  EXPECT_FLOAT_EQ(sc::fp8_e4m3_bits_to_fp32(sc::fp32_to_fp8_e4m3_bits(1e9f)),
                  448.0f);
  EXPECT_FLOAT_EQ(sc::fp8_e4m3_bits_to_fp32(sc::fp32_to_fp8_e4m3_bits(-1e9f)),
                  -448.0f);
}

TEST(Fp8E4M3, Subnormals) {
  // Smallest subnormal is 2^-9.
  const float tiny = std::ldexp(1.0f, -9);
  EXPECT_FLOAT_EQ(sc::fp8_e4m3_bits_to_fp32(sc::fp32_to_fp8_e4m3_bits(tiny)),
                  tiny);
  // Below half the smallest subnormal underflows to zero.
  EXPECT_FLOAT_EQ(
      sc::fp8_e4m3_bits_to_fp32(sc::fp32_to_fp8_e4m3_bits(tiny / 4.0f)), 0.0f);
}

TEST(Fp8E4M3, RoundTripIsIdempotent) {
  spikestream::common::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto x = static_cast<float>(rng.normal(0.0, 2.0));
    const float q1 = sc::quantize(x, sc::FpFormat::FP8);
    const float q2 = sc::quantize(q1, sc::FpFormat::FP8);
    EXPECT_EQ(q1, q2) << "x=" << x;
  }
}

TEST(Fp8E5M2, KnownValues) {
  EXPECT_EQ(sc::fp32_to_fp8_e5m2_bits(1.0f), 0x3C);
  EXPECT_EQ(sc::fp32_to_fp8_e5m2_bits(-4.0f), 0xC4);
  EXPECT_FLOAT_EQ(sc::fp8_e5m2_bits_to_fp32(0x3C), 1.0f);
}

TEST(Fp8E5M2, OverflowToInf) {
  EXPECT_TRUE(std::isinf(
      sc::fp8_e5m2_bits_to_fp32(sc::fp32_to_fp8_e5m2_bits(1e9f))));
}

TEST(Formats, ErrorBoundedByHalfUlp) {
  spikestream::common::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto x = static_cast<float>(rng.uniform(0.5, 1.0));  // one binade
    // fp16: 10 mantissa bits -> ulp = 2^-11 in [0.5, 1).
    EXPECT_NEAR(sc::quantize(x, sc::FpFormat::FP16), x,
                std::ldexp(1.0f, -12) + 1e-9);
    // e4m3: 3 mantissa bits -> ulp = 2^-4 in [0.5, 1).
    EXPECT_NEAR(sc::quantize(x, sc::FpFormat::FP8), x,
                std::ldexp(1.0f, -5) + 1e-9);
  }
}

TEST(Formats, SimdLanesAndBytes) {
  EXPECT_EQ(sc::simd_lanes(sc::FpFormat::FP64), 1);
  EXPECT_EQ(sc::simd_lanes(sc::FpFormat::FP32), 2);
  EXPECT_EQ(sc::simd_lanes(sc::FpFormat::FP16), 4);
  EXPECT_EQ(sc::simd_lanes(sc::FpFormat::FP8), 8);
  EXPECT_EQ(sc::fp_bytes(sc::FpFormat::FP16) * sc::simd_lanes(sc::FpFormat::FP16), 8);
  EXPECT_EQ(sc::fp_bytes(sc::FpFormat::FP8) * sc::simd_lanes(sc::FpFormat::FP8), 8);
}
