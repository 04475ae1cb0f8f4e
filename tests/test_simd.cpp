// Host-SIMD dispatch layer (common/simd.hpp): every tier the running CPU
// supports must produce byte-identical results to the scalar tier for all
// kernels — the CSR nonzero scan, the LIF step, the per-group spike
// accumulate and the binary16 pack — across lengths that exercise both the
// vector bodies and the scalar tails.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/float_formats.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/csr_ifmap.hpp"
#include "snn/lif.hpp"
#include "snn/tensor.hpp"

namespace {

namespace simd = spikestream::common::simd;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;
namespace compress = spikestream::compress;

std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::max_supported() >= simd::Tier::kAvx2) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  if (simd::max_supported() >= simd::Tier::kAvx512) {
    tiers.push_back(simd::Tier::kAvx512);
  }
  return tiers;
}

/// RAII guard: restore free dispatch after a forced-tier section.
struct TierGuard {
  ~TierGuard() { simd::force_tier(simd::max_supported()); }
};

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Packs `src` under `tier` and checks every half, every re-widened float
/// and the exactness flag against the scalar conversions, element by
/// element; then checks the null-`widened` form gives the same halves/flag.
void expect_pack_matches_scalar(const std::vector<float>& src,
                                simd::Tier tier) {
  simd::force_tier(tier);
  const std::size_t n = src.size();
  std::vector<std::uint16_t> half(n, 0xDEAD);
  std::vector<float> widened(n, -1.0f);
  const bool exact =
      simd::pack_half(src.data(), half.data(), widened.data(), n);
  bool expect_exact = true;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t h = sc::fp32_to_fp16_bits(src[i]);
    const float w = sc::fp16_bits_to_fp32(h);
    expect_exact &= bits(w) == bits(src[i]);
    ASSERT_EQ(h, half[i]) << simd::tier_name(tier) << " i=" << i << " x=0x"
                          << std::hex << bits(src[i]);
    ASSERT_EQ(bits(w), bits(widened[i]))
        << simd::tier_name(tier) << " i=" << i << " x=0x" << std::hex
        << bits(src[i]);
  }
  EXPECT_EQ(expect_exact, exact) << simd::tier_name(tier) << " n=" << n;
  std::vector<std::uint16_t> half_only(n, 0xBEEF);
  EXPECT_EQ(exact, simd::pack_half(src.data(), half_only.data(), nullptr, n))
      << simd::tier_name(tier) << " n=" << n;
  EXPECT_EQ(half, half_only) << simd::tier_name(tier) << " n=" << n;
}

}  // namespace

TEST(Simd, ActiveTierIsSupported) {
  EXPECT_LE(static_cast<int>(simd::active()),
            static_cast<int>(simd::max_supported()));
  // Forcing an unsupported tier clamps instead of crashing later.
  TierGuard guard;
  EXPECT_LE(static_cast<int>(simd::force_tier(simd::Tier::kAvx512)),
            static_cast<int>(simd::max_supported()));
}

TEST(Simd, NonzeroScanMatchesScalarAcrossTiers) {
  TierGuard guard;
  sc::Rng rng(11);
  for (const int n : {1, 7, 8, 31, 32, 33, 63, 64, 65, 129, 300, 512}) {
    for (const double density : {0.0, 0.02, 0.3, 1.0}) {
      std::vector<std::uint8_t> row(static_cast<std::size_t>(n));
      for (auto& b : row) b = rng.bernoulli(density);
      simd::force_tier(simd::Tier::kScalar);
      std::vector<std::uint16_t> expect;
      simd::append_nonzero_u8(row.data(), n, 3, expect);
      for (const simd::Tier tier : supported_tiers()) {
        simd::force_tier(tier);
        std::vector<std::uint16_t> got;
        simd::append_nonzero_u8(row.data(), n, 3, got);
        EXPECT_EQ(expect, got)
            << simd::tier_name(tier) << " n=" << n << " d=" << density;
      }
    }
  }
}

TEST(Simd, NonzeroScanTreatsAnyNonzeroByteAsSpike) {
  TierGuard guard;
  std::vector<std::uint8_t> row(70, 0);
  row[0] = 255;
  row[33] = 2;
  row[69] = 7;
  for (const simd::Tier tier : supported_tiers()) {
    simd::force_tier(tier);
    std::vector<std::uint16_t> got;
    simd::append_nonzero_u8(row.data(), static_cast<int>(row.size()), 0, got);
    EXPECT_EQ((std::vector<std::uint16_t>{0, 33, 69}), got)
        << simd::tier_name(tier);
  }
}

TEST(Simd, LifStepBitIdenticalAcrossTiers) {
  TierGuard guard;
  sc::Rng rng(22);
  for (const std::size_t n : {1ul, 5ul, 8ul, 15ul, 16ul, 17ul, 100ul, 1000ul}) {
    std::vector<float> cur(n), mem0(n);
    for (auto& x : cur) x = static_cast<float>(rng.uniform() * 4.0 - 1.0);
    for (auto& x : mem0) x = static_cast<float>(rng.uniform() * 2.0 - 0.5);

    simd::force_tier(simd::Tier::kScalar);
    std::vector<float> mem_ref = mem0;
    std::vector<std::uint8_t> spk_ref(n);
    const std::size_t fired_ref = simd::lif_step(
        cur.data(), mem_ref.data(), spk_ref.data(), n, 0.9f, 1.0f, 1.0f, 1.0f);

    for (const simd::Tier tier : supported_tiers()) {
      simd::force_tier(tier);
      std::vector<float> mem = mem0;
      std::vector<std::uint8_t> spk(n);
      const std::size_t fired = simd::lif_step(cur.data(), mem.data(),
                                               spk.data(), n, 0.9f, 1.0f,
                                               1.0f, 1.0f);
      EXPECT_EQ(fired_ref, fired) << simd::tier_name(tier) << " n=" << n;
      EXPECT_EQ(spk_ref, spk) << simd::tier_name(tier) << " n=" << n;
      // Bitwise comparison: tiers must agree on every membrane bit.
      EXPECT_EQ(0, std::memcmp(mem_ref.data(), mem.data(), n * sizeof(float)))
          << simd::tier_name(tier) << " n=" << n;
    }
  }
}

TEST(Simd, GroupCountsMatchScalarAcrossTiers) {
  TierGuard guard;
  sc::Rng rng(33);
  for (const int group : {1, 2, 3, 4, 5, 8, 16, 24, 64}) {
    for (const int c : {1, 4, 8, 31, 32, 64, 100, 257}) {
      const int groups = (c + group - 1) / group;
      std::vector<std::uint8_t> row(static_cast<std::size_t>(c));
      for (auto& b : row) b = rng.bernoulli(0.4);
      // A couple of out-of-contract values: sums must still agree.
      if (c > 2) row[static_cast<std::size_t>(c) / 2] = 3;

      // The scalar tier's body is the reference for every width, the
      // inline path of rows of at most 8 channels included.
      simd::force_tier(simd::Tier::kScalar);
      std::vector<double> expect(static_cast<std::size_t>(groups));
      simd::detail::group_spike_counts_dispatched(row.data(), c, group,
                                                  groups, expect.data());
      for (const simd::Tier tier : supported_tiers()) {
        simd::force_tier(tier);
        std::vector<double> got(static_cast<std::size_t>(groups), -1.0);
        simd::group_spike_counts(row.data(), c, group, groups, got.data());
        EXPECT_EQ(expect, got)
            << simd::tier_name(tier) << " group=" << group << " c=" << c;
      }
    }
  }
}

TEST(Simd, CsrEncodeRoundTripsUnderEveryTier) {
  TierGuard guard;
  sc::Rng rng(44);
  snn::SpikeMap dense(9, 11, 77);
  for (auto& b : dense.v) b = rng.bernoulli(0.25);
  simd::force_tier(simd::Tier::kScalar);
  const compress::CsrIfmap ref = compress::CsrIfmap::encode(dense);
  for (const simd::Tier tier : supported_tiers()) {
    simd::force_tier(tier);
    const compress::CsrIfmap got = compress::CsrIfmap::encode(dense);
    EXPECT_TRUE(std::ranges::equal(ref.c_idcs(), got.c_idcs()))
        << simd::tier_name(tier);
    EXPECT_EQ(ref.s_ptr(), got.s_ptr()) << simd::tier_name(tier);
    EXPECT_EQ(got.decode().v, dense.v) << simd::tier_name(tier);
  }
}

TEST(Simd, LifStepIntoUsesDispatchedKernel) {
  // The snn-level wrapper and the raw kernel agree (shape plumbing only).
  TierGuard guard;
  sc::Rng rng(55);
  snn::Tensor cur(3, 5, 17), mem(3, 5, 17);
  for (auto& x : cur.v) x = static_cast<float>(rng.uniform() * 3.0);
  snn::Tensor mem2 = mem;
  snn::LifParams p;
  snn::SpikeMap out;
  const std::size_t fired = snn::lif_step_into(p, cur, mem, out);
  std::vector<std::uint8_t> spk(cur.v.size());
  const std::size_t fired2 =
      simd::lif_step(cur.v.data(), mem2.v.data(), spk.data(), cur.v.size(),
                     p.alpha, p.r, p.v_th, p.v_rst);
  EXPECT_EQ(fired, fired2);
  EXPECT_EQ(out.v, spk);
  EXPECT_EQ(mem.v, mem2.v);
}

TEST(Simd, PackHalfMatchesScalarAroundEveryHalfValue) {
  TierGuard guard;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> src;
  auto with_neighbours = [&src](float x) {
    src.push_back(x);
    src.push_back(std::nextafter(x, -kInf));
    src.push_back(std::nextafter(x, kInf));
  };
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    const auto h16 = static_cast<std::uint16_t>(h);
    if ((h16 & 0x7C00u) == 0x7C00u && (h16 & 0x3FFu) != 0) continue;  // NaN
    const float x = sc::fp16_bits_to_fp32(h16);
    with_neighbours(x);
    if ((h16 & 0x7FFFu) < 0x7C00u) {
      // Midpoint to the next half of larger magnitude (65520 past 65504):
      // 12 significant bits, exact in float32, and a rounding tie.
      const float next = (h16 & 0x7FFFu) == 0x7BFFu
                             ? std::copysign(65520.0f, x)
                             : sc::fp16_bits_to_fp32(
                                   static_cast<std::uint16_t>(h16 + 1));
      with_neighbours(static_cast<float>(
          (static_cast<double>(x) + static_cast<double>(next)) / 2.0));
    }
  }
  // Signed zeros, float32 subnormals, the overflow edge and infinities.
  for (const std::uint32_t u :
       {0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x00400000u,
        0x807FFFFFu, 0x007FFFFFu, 0x00800000u}) {
    src.push_back(std::bit_cast<float>(u));
  }
  for (const float x : {65504.0f, 65519.99f, 65520.0f, 1e6f,
                        std::numeric_limits<float>::max(), kInf}) {
    with_neighbours(x);
    with_neighbours(-x);
  }
  for (const simd::Tier tier : supported_tiers()) {
    expect_pack_matches_scalar(src, tier);
  }
}

TEST(Simd, PackHalfNanLanesTakeTheScalarEncoding) {
  TierGuard guard;
  const std::vector<std::uint32_t> nans = {0x7FC00000u, 0xFFC00000u,
                                           0x7F800001u, 0xFF812345u,
                                           0x7FFFFFFFu};
  // NaNs at both ends of a vector chunk, mid-chunk and in the scalar tail,
  // next to ordinary lanes that must still take the vector conversion.
  std::vector<float> src(41);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = 0.1f * static_cast<float>(i) - 1.7f;
  }
  const std::size_t at[] = {0, 7, 8, 15, 21, 39, 40};
  for (std::size_t k = 0; k < std::size(at); ++k) {
    src[at[k]] = std::bit_cast<float>(nans[k % nans.size()]);
  }
  for (const simd::Tier tier : supported_tiers()) {
    expect_pack_matches_scalar(src, tier);
    std::vector<std::uint16_t> half(src.size());
    std::vector<float> widened(src.size());
    simd::pack_half(src.data(), half.data(), widened.data(), src.size());
    for (std::size_t k = 0; k < std::size(at); ++k) {
      const std::uint32_t u = bits(src[at[k]]);
      const auto sign = static_cast<std::uint16_t>((u >> 16) & 0x8000u);
      EXPECT_EQ(sign | 0x7C01u, half[at[k]]) << simd::tier_name(tier);
      EXPECT_EQ(0x7FC00000u, bits(widened[at[k]])) << simd::tier_name(tier);
    }
  }
}

TEST(Simd, PackHalfTailsAndInPlace) {
  TierGuard guard;
  sc::Rng rng(66);
  for (const std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 31ul,
                              33ul, 100ul}) {
    std::vector<float> src(n);
    for (auto& x : src) x = static_cast<float>(rng.normal(0.0, 0.3));
    for (const simd::Tier tier : supported_tiers()) {
      expect_pack_matches_scalar(src, tier);
      // widened aliasing src (the in-place quantize) gives the same output.
      std::vector<float> inplace = src;
      std::vector<float> widened(n);
      std::vector<std::uint16_t> h1(n), h2(n);
      simd::pack_half(src.data(), h1.data(), widened.data(), n);
      simd::pack_half(inplace.data(), h2.data(), inplace.data(), n);
      EXPECT_EQ(h1, h2) << simd::tier_name(tier) << " n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(widened[i]), bits(inplace[i]))
            << simd::tier_name(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Simd, PackHalfFlagsAValueOnlyFp32Holds) {
  TierGuard guard;
  sc::Rng rng(77);
  for (const std::size_t n : {1ul, 8ul, 20ul, 64ul}) {
    std::vector<float> exact(n);
    for (auto& x : exact) {
      x = sc::quantize(static_cast<float>(rng.normal(0.0, 1.0)),
                       sc::FpFormat::FP16);
    }
    for (const simd::Tier tier : supported_tiers()) {
      simd::force_tier(tier);
      std::vector<std::uint16_t> half(n);
      EXPECT_TRUE(simd::pack_half(exact.data(), half.data(), nullptr, n))
          << simd::tier_name(tier) << " n=" << n;
      for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
        std::vector<float> src = exact;
        src[at] = 0.1f;  // 0x3DCCCCCD: 23 significant bits
        EXPECT_FALSE(simd::pack_half(src.data(), half.data(), nullptr, n))
            << simd::tier_name(tier) << " n=" << n << " at=" << at;
      }
    }
  }
}
