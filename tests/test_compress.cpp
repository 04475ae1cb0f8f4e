#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/aer.hpp"
#include "compress/csr_ifmap.hpp"

namespace cp = spikestream::compress;
namespace snn = spikestream::snn;
namespace simd = spikestream::common::simd;

namespace {

snn::SpikeMap random_map(int h, int w, int c, double rate, std::uint64_t seed) {
  spikestream::common::Rng rng(seed);
  snn::SpikeMap s(h, w, c);
  for (auto& b : s.v) b = rng.bernoulli(rate) ? 1 : 0;
  return s;
}

template <class T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

}  // namespace

TEST(Csr, EncodeMatchesNaiveReferenceAtEveryWidthAndTier) {
  // Narrow maps (one table-driven pass that also writes the row offsets)
  // and wide maps (the SIMD nonzero scan) against a per-byte loop, for
  // every channel count up to 80 and any nonzero byte as a spike.
  struct Restore {
    ~Restore() { simd::force_tier(simd::max_supported()); }
  } restore;
  spikestream::common::Rng rng(77);
  for (int c = 1; c <= 80; ++c) {
    for (int trial = 0; trial < 3; ++trial) {
      const int h = 1 + static_cast<int>(rng.uniform_u64(6));
      const int w = 1 + static_cast<int>(rng.uniform_u64(9));
      const double density = rng.uniform();
      snn::SpikeMap dense(h, w, c);
      for (auto& b : dense.v) {
        b = rng.bernoulli(density)
                ? static_cast<std::uint8_t>(1 + rng.uniform_u64(255))
                : 0;
      }
      std::vector<std::uint32_t> s_ptr{0};
      std::vector<std::uint16_t> idcs;
      std::vector<std::uint32_t> offsets;
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          for (int ch = 0; ch < c; ++ch) {
            if (dense.at(y, x, ch) == 0) continue;
            idcs.push_back(static_cast<std::uint16_t>(ch));
            offsets.push_back(static_cast<std::uint32_t>(x * c + ch));
          }
          s_ptr.push_back(static_cast<std::uint32_t>(idcs.size()));
        }
      }
      if (!cp::CsrIfmap::is_narrow(c)) offsets.clear();
      for (const simd::Tier tier :
           {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
        const simd::Tier in_effect = simd::force_tier(tier);
        // One fresh encode and one into a buffer that held a denser map.
        cp::CsrIfmap reused = cp::CsrIfmap::encode(random_map(h, w, c, 1.0, 5));
        cp::CsrIfmap::encode_into(dense, reused);
        for (const cp::CsrIfmap& got : {cp::CsrIfmap::encode(dense), reused}) {
          EXPECT_EQ(got.s_ptr(), s_ptr)
              << "c=" << c << " " << simd::tier_name(in_effect);
          EXPECT_EQ(to_vector(got.c_idcs()), idcs)
              << "c=" << c << " " << simd::tier_name(in_effect);
          EXPECT_EQ(got.has_row_offsets(), cp::CsrIfmap::is_narrow(c));
          EXPECT_EQ(to_vector(got.row_offsets()), offsets)
              << "c=" << c << " " << simd::tier_name(in_effect);
        }
      }
    }
  }
}

TEST(Csr, EncodeKnownPattern) {
  snn::SpikeMap s(2, 2, 4);
  s.at(0, 0, 1) = 1;
  s.at(0, 0, 3) = 1;
  s.at(1, 1, 0) = 1;
  const cp::CsrIfmap c = cp::CsrIfmap::encode(s);
  EXPECT_EQ(c.nnz(), 3u);
  ASSERT_EQ(c.s_ptr().size(), 5u);
  EXPECT_EQ(c.s_ptr()[0], 0u);
  EXPECT_EQ(c.s_ptr()[1], 2u);  // two spikes at (0,0)
  EXPECT_EQ(c.s_ptr()[2], 2u);  // none at (0,1)
  EXPECT_EQ(c.s_ptr()[3], 2u);
  EXPECT_EQ(c.s_ptr()[4], 3u);
  EXPECT_EQ(c.c_idcs()[0], 1);
  EXPECT_EQ(c.c_idcs()[1], 3);
  EXPECT_EQ(c.c_idcs()[2], 0);
  EXPECT_EQ(c.stream_len(0, 0), 2u);
  EXPECT_EQ(c.stream_len(1, 0), 0u);
  auto span = c.at(0, 0);
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0], 1);
}

TEST(Csr, IndicesAreSortedWithinPosition) {
  const auto s = random_map(7, 9, 33, 0.4, 99);
  const cp::CsrIfmap c = cp::CsrIfmap::encode(s);
  for (int y = 0; y < s.h; ++y) {
    for (int x = 0; x < s.w; ++x) {
      auto sp = c.at(y, x);
      for (std::size_t i = 1; i < sp.size(); ++i) {
        EXPECT_LT(sp[i - 1], sp[i]);
      }
    }
  }
}

TEST(Csr, FootprintFormula) {
  const auto s = random_map(4, 4, 16, 0.25, 3);
  const cp::CsrIfmap c = cp::CsrIfmap::encode(s);
  EXPECT_EQ(c.footprint_bytes(2), c.nnz() * 2 + 16 * 2);
}

TEST(Csr, EmptyAndFullMaps) {
  snn::SpikeMap empty(3, 3, 8);
  const cp::CsrIfmap ce = cp::CsrIfmap::encode(empty);
  EXPECT_EQ(ce.nnz(), 0u);
  EXPECT_DOUBLE_EQ(ce.density(), 0.0);

  snn::SpikeMap full(3, 3, 8);
  for (auto& b : full.v) b = 1;
  const cp::CsrIfmap cf = cp::CsrIfmap::encode(full);
  EXPECT_EQ(cf.nnz(), full.size());
  EXPECT_DOUBLE_EQ(cf.density(), 1.0);
  EXPECT_EQ(cf.stream_len(2, 2), 8u);
}

// Property: encode/decode round-trips over a sweep of densities.
class CsrRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(CsrRoundTrip, DecodeInvertsEncode) {
  const double rate = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto s = random_map(11, 13, 37, rate, seed);
    const snn::SpikeMap back = cp::CsrIfmap::encode(s).decode();
    ASSERT_TRUE(back.same_shape(s));
    EXPECT_EQ(back.v, s.v) << "rate=" << rate << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, CsrRoundTrip,
                         ::testing::Values(0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0));

TEST(Aer, EncodeDecodeRoundTrip) {
  const auto s = random_map(9, 5, 21, 0.2, 11);
  const cp::AerEvents ev = cp::AerEvents::encode(s, 7);
  EXPECT_EQ(ev.count(), snn::spike_count(s));
  const snn::SpikeMap back = ev.decode(9, 5, 21, 7);
  EXPECT_EQ(back.v, s.v);
  // Wrong timestep decodes to empty.
  EXPECT_EQ(snn::spike_count(ev.decode(9, 5, 21, 8)), 0u);
}

TEST(Aer, FootprintPerSpike) {
  const auto s = random_map(6, 6, 10, 0.3, 4);
  const cp::AerEvents ev = cp::AerEvents::encode(s);
  EXPECT_EQ(ev.footprint_bytes(true), ev.count() * 8);
  EXPECT_EQ(ev.footprint_bytes(false), ev.count() * 4);
}

// Property: the paper's core claim about the formats — CSR beats AER on conv
// ifmaps whenever the average spikes-per-position exceeds the pointer
// overhead ratio; at S-VGG11-like densities the gain is >2x.
class FootprintRatio : public ::testing::TestWithParam<double> {};

TEST_P(FootprintRatio, CsrSmallerAtRealisticDensity) {
  const double rate = GetParam();
  const auto s = random_map(18, 18, 128, rate, 21);
  const auto csr = cp::CsrIfmap::encode(s).footprint_bytes();
  const auto aer = cp::AerEvents::encode(s).footprint_bytes(true);
  if (rate >= 0.05) {
    EXPECT_GT(static_cast<double>(aer), 2.0 * static_cast<double>(csr))
        << "rate=" << rate;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, FootprintRatio,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3, 0.5));
