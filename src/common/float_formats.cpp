#include "common/float_formats.hpp"

#include <bit>
#include <limits>

namespace spikestream::common {

const char* fp_name(FpFormat f) {
  switch (f) {
    case FpFormat::FP64: return "FP64";
    case FpFormat::FP32: return "FP32";
    case FpFormat::FP16: return "FP16";
    case FpFormat::FP8: return "FP8";
  }
  return "?";
}

namespace {

std::uint32_t f32_bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// Generic float32 -> small-float conversion with round-to-nearest-even.
// exp_bits/man_bits describe the target; `ieee_special` selects whether the
// format has inf/NaN encodings (E5M2, FP16) or saturates (E4M3).
std::uint32_t narrow_from_f32(float x, int exp_bits, int man_bits,
                              bool ieee_special) {
  const int total = 1 + exp_bits + man_bits;
  const std::uint32_t sign_mask = 1u << (total - 1);
  const int bias = (1 << (exp_bits - 1)) - 1;
  const std::uint32_t exp_max = (1u << exp_bits) - 1;

  const std::uint32_t u = f32_bits(x);
  const std::uint32_t sign = (u >> 31) ? sign_mask : 0u;
  const int e32 = static_cast<int>((u >> 23) & 0xFF);
  std::uint32_t m32 = u & 0x7FFFFFu;

  // NaN / Inf in the source.
  if (e32 == 0xFF) {
    if (m32 != 0) {  // NaN
      if (ieee_special) return sign | (exp_max << man_bits) | 1u;
      return sign | ((exp_max << man_bits) | ((1u << man_bits) - 1));  // E4M3 NaN = all ones
    }
    if (ieee_special) return sign | (exp_max << man_bits);  // Inf
    // E4M3 saturates to max finite (S.1111.110 per OCP spec; all-ones is NaN).
    return sign | ((exp_max << man_bits) | ((1u << man_bits) - 2));
  }

  // Unbiased exponent of source (treat zero/subnormal-of-f32 as zero input;
  // f32 subnormals are below every representable target subnormal anyway).
  if (e32 == 0) return sign;

  int e_unb = e32 - 127;
  // Target exponent field value before subnormal handling.
  int e_t = e_unb + bias;

  // Mantissa with implicit leading one, in a 24-bit field.
  std::uint32_t mant = (1u << 23) | m32;
  int shift = 23 - man_bits;  // bits to drop for a normal result

  if (e_t <= 0) {
    // Subnormal in the target: shift further right by 1-e_t.
    shift += 1 - e_t;
    e_t = 0;
    if (shift > 31) return sign;  // underflow to zero (even after rounding)
  }

  // Round to nearest even on the dropped bits.
  const std::uint32_t halfway = 1u << (shift - 1);
  const std::uint32_t dropped = mant & ((1u << shift) - 1);
  std::uint32_t kept = mant >> shift;
  if (dropped > halfway || (dropped == halfway && (kept & 1u))) kept += 1;

  // Rounding may carry into the exponent.
  if (kept >> (man_bits + 1)) {
    kept >>= 1;
    e_t += 1;
  } else if (e_t == 0 && (kept >> man_bits)) {
    // Subnormal rounded up into the smallest normal.
    e_t = 1;
    kept &= (1u << man_bits) - 1;
    return sign | (static_cast<std::uint32_t>(e_t) << man_bits) | kept;
  }

  if (e_t >= static_cast<int>(exp_max)) {
    if (ieee_special) {
      if (e_t > static_cast<int>(exp_max) ||
          (e_t == static_cast<int>(exp_max))) {
        return sign | (exp_max << man_bits);  // overflow -> inf
      }
    } else {
      // E4M3: exp_max with mantissa != all-ones is a normal value; only
      // saturate when the value exceeds max finite.
      if (e_t > static_cast<int>(exp_max)) {
        return sign | (exp_max << man_bits) | ((1u << man_bits) - 2);
      }
      std::uint32_t m = kept & ((1u << man_bits) - 1);
      if (e_t == static_cast<int>(exp_max) && m == ((1u << man_bits) - 1)) {
        // Would alias the NaN encoding: clamp to max finite.
        m = (1u << man_bits) - 2;
      }
      return sign | (exp_max << man_bits) | m;
    }
  }

  std::uint32_t e_field = static_cast<std::uint32_t>(e_t);
  std::uint32_t m_field = kept & ((1u << man_bits) - 1);
  if (e_t == 0) {
    // kept already holds the subnormal mantissa (no implicit bit).
    m_field = kept;
    if (m_field >> man_bits) {  // carried into normal range
      e_field = 1;
      m_field &= (1u << man_bits) - 1;
    }
  }
  return sign | (e_field << man_bits) | m_field;
}

// Generic small-float -> float32, exact for every pattern of every supported
// format. Normals are rebuilt from their bits (every target exponent range
// fits float32's); subnormals are the small integer mantissa times an exact
// power of two, so no libm call is involved.
float widen_to_f32(std::uint32_t b, int exp_bits, int man_bits,
                   bool ieee_special) {
  const int total = 1 + exp_bits + man_bits;
  const int bias = (1 << (exp_bits - 1)) - 1;
  const std::uint32_t exp_max = (1u << exp_bits) - 1;

  const std::uint32_t sign = ((b >> (total - 1)) & 1u) << 31;
  const std::uint32_t e = (b >> man_bits) & exp_max;
  const std::uint32_t m = b & ((1u << man_bits) - 1);

  if (e == exp_max) {
    if (ieee_special) {
      if (m == 0) return std::bit_cast<float>(sign | 0x7F800000u);  // +-inf
      return std::numeric_limits<float>::quiet_NaN();
    }
    if (m == ((1u << man_bits) - 1)) {
      return std::numeric_limits<float>::quiet_NaN();  // E4M3 NaN
    }
    // fall through: E4M3 exp_max with m != all-ones is a normal number.
  }

  if (e == 0) {
    if (m == 0) return std::bit_cast<float>(sign);  // +-0
    // Subnormal: m * 2^(1 - bias - man_bits), both factors exact.
    const float scale = std::bit_cast<float>(
        static_cast<std::uint32_t>(127 + 1 - bias - man_bits) << 23);
    return std::bit_cast<float>(
        sign | std::bit_cast<std::uint32_t>(static_cast<float>(m) * scale));
  }

  const auto e32 = static_cast<std::uint32_t>(static_cast<int>(e) - bias + 127);
  return std::bit_cast<float>(sign | (e32 << 23) | (m << (23 - man_bits)));
}

}  // namespace

std::uint16_t fp32_to_fp16_bits(float x) {
  return static_cast<std::uint16_t>(narrow_from_f32(x, 5, 10, true));
}

float fp16_bits_to_fp32(std::uint16_t h) { return widen_to_f32(h, 5, 10, true); }

std::uint8_t fp32_to_fp8_e4m3_bits(float x) {
  return static_cast<std::uint8_t>(narrow_from_f32(x, 4, 3, false));
}

float fp8_e4m3_bits_to_fp32(std::uint8_t b) {
  return widen_to_f32(b, 4, 3, false);
}

std::uint8_t fp32_to_fp8_e5m2_bits(float x) {
  return static_cast<std::uint8_t>(narrow_from_f32(x, 5, 2, true));
}

float fp8_e5m2_bits_to_fp32(std::uint8_t b) {
  return widen_to_f32(b, 5, 2, true);
}

float quantize(float x, FpFormat f) {
  switch (f) {
    case FpFormat::FP64:
    case FpFormat::FP32:
      return x;
    case FpFormat::FP16:
      return fp16_bits_to_fp32(fp32_to_fp16_bits(x));
    case FpFormat::FP8:
      return fp8_e4m3_bits_to_fp32(fp32_to_fp8_e4m3_bits(x));
  }
  return x;
}

}  // namespace spikestream::common
