#include "compress/csr_ifmap.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"
#include "common/simd.hpp"

namespace spikestream::compress {

CsrIfmap CsrIfmap::encode(const snn::SpikeMap& dense) {
  CsrIfmap out;
  encode_into(dense, out);
  return out;
}

namespace {

/// For every byte value m, the positions of its set bits, lowest first (the
/// entry's tail past popcount(m) is never used).
struct OctetLanes {
  std::uint16_t lane[256][8];
};

constexpr OctetLanes make_octet_lanes() {
  OctetLanes t{};
  for (int m = 0; m < 256; ++m) {
    int n = 0;
    for (int b = 0; b < 8; ++b) {
      if ((m >> b) & 1) t.lane[m][n++] = static_cast<std::uint16_t>(b);
    }
  }
  return t;
}

constexpr OctetLanes kOctetLanes = make_octet_lanes();

/// Eight 16-/32-bit lanes (GCC/Clang vector extensions): one octet's channel
/// indices and row offsets, stored with one write each.
using U16x8 = std::uint16_t __attribute__((vector_size(16)));
using U32x8 = std::uint32_t __attribute__((vector_size(32)));

/// Bit j set iff byte j of `bytes[0..n)` is nonzero (n <= 8). `readable`
/// bytes may be loaded; bytes past n belong to the next pixel and are
/// masked off.
inline unsigned nonzero_octet(const std::uint8_t* bytes, std::size_t readable,
                              std::size_t n) {
  unsigned m = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t word = 0;
    if (readable >= 8) {
      std::memcpy(&word, bytes, 8);
    } else {
      std::memcpy(&word, bytes, readable);  // the map's last pixel
    }
    // Bit 7 of each byte of `nz` is set iff that byte is nonzero; the
    // multiply gathers those eight bits into the top byte, byte j -> bit j.
    constexpr std::uint64_t k7f = 0x7f7f7f7f7f7f7f7full;
    constexpr std::uint64_t k80 = 0x8080808080808080ull;
    const std::uint64_t nz = (((word & k7f) + k7f) | word) & k80;
    m = static_cast<unsigned>(((nz >> 7) * 0x0102040810204080ull) >> 56);
  } else {
    for (std::size_t j = 0; j < 8 && j < readable; ++j) {
      m |= static_cast<unsigned>(bytes[j] != 0) << j;
    }
  }
  return n >= 8 ? m : m & ((1u << n) - 1);
}

/// Narrow encode of `dense` (kChannels channels, or dense.c when 0; at
/// most 8): fills s_ptr and writes the indices and row offsets into buffers
/// holding h * w * c + 8 entries; returns the spike count. Branch-free
/// writes: each pixel stores all eight table lanes of its channel octet at
/// the cursor, which then advances by the octet's spike count.
template <int kChannels>
std::uint32_t encode_narrow(const snn::SpikeMap& dense, std::uint32_t* s_ptr,
                            std::uint16_t* idx, std::uint32_t* row) {
  const std::size_t c =
      static_cast<std::size_t>(kChannels != 0 ? kChannels : dense.c);
  const std::size_t bytes = static_cast<std::size_t>(dense.h) *
                            static_cast<std::size_t>(dense.w) * c;
  const std::uint8_t* base = dense.v.data();
  std::uint32_t n = 0;
  std::size_t p = 0;
  for (int y = 0; y < dense.h; ++y) {
    for (int x = 0; x < dense.w; ++x, ++p) {
      s_ptr[p] = n;
      const std::size_t at = p * c;
      const unsigned m = nonzero_octet(base + at, bytes - at, c);
      U16x8 lanes;
      std::memcpy(&lanes, kOctetLanes.lane[m], sizeof lanes);
      const U32x8 offsets =
          __builtin_convertvector(lanes, U32x8) +
          static_cast<std::uint32_t>(x) * static_cast<std::uint32_t>(c);
      std::memcpy(idx + n, &lanes, sizeof lanes);
      std::memcpy(row + n, &offsets, sizeof offsets);
      n += static_cast<std::uint32_t>(std::popcount(m));
    }
  }
  s_ptr[p] = n;
  return n;
}

}  // namespace

void CsrIfmap::encode_into(const snn::SpikeMap& dense, CsrIfmap& out) {
  SPK_CHECK(dense.c <= 65536, "channel index exceeds 16-bit range");
  out.h_ = dense.h;
  out.w_ = dense.w;
  out.c_ = dense.c;
  const std::size_t positions =
      static_cast<std::size_t>(dense.h) * static_cast<std::size_t>(dense.w);
  out.s_ptr_.resize(positions + 1);
  if (is_narrow(dense.c)) {
    // The buffers only ever grow to the worst case, so a warm map's encode
    // neither reallocates nor refills them; nnz_ marks the part in use.
    const std::size_t cap =
        positions * static_cast<std::size_t>(dense.c) + kNarrowSlack;
    if (out.c_idcs_.size() < cap) out.c_idcs_.resize(cap);
    if (out.row_offsets_.size() < cap) out.row_offsets_.resize(cap);
    std::uint32_t* s_ptr = out.s_ptr_.data();
    std::uint16_t* idx = out.c_idcs_.data();
    std::uint32_t* row = out.row_offsets_.data();
    // The deep tower's width gets a compile-time channel count: the generic
    // loop measured ~2.5x slower on an 8x8x8 map.
    out.nnz_ = dense.c == 8 ? encode_narrow<8>(dense, s_ptr, idx, row)
                            : encode_narrow<0>(dense, s_ptr, idx, row);
    return;
  }
  out.c_idcs_.clear();
  if (out.c_idcs_.capacity() == 0) {
    // First use of this buffer: one up-front reservation sized for the
    // typical sparse regime kills the doubling-realloc churn; afterwards the
    // retained capacity grows at most a handful of times, then never again.
    out.c_idcs_.reserve(dense.size() / 4 + 16);
  }
  const std::uint8_t* base = dense.v.data();
  for (std::size_t p = 0; p < positions; ++p) {
    out.s_ptr_[p] = static_cast<std::uint32_t>(out.c_idcs_.size());
    // Any nonzero byte counts as a spike (like snn::spike_count), so a value
    // that strays from the documented 0/1 contract still encodes
    // consistently. Dispatches to the widest host SIMD tier available.
    common::simd::append_nonzero_u8(
        base + p * static_cast<std::size_t>(dense.c), dense.c, 0,
        out.c_idcs_);
  }
  out.s_ptr_[positions] = static_cast<std::uint32_t>(out.c_idcs_.size());
  out.nnz_ = out.c_idcs_.size();
}

snn::SpikeMap CsrIfmap::decode() const {
  snn::SpikeMap dense(h_, w_, c_);
  std::size_t p = 0;
  for (int y = 0; y < h_; ++y) {
    for (int x = 0; x < w_; ++x, ++p) {
      for (std::uint32_t i = s_ptr_[p]; i < s_ptr_[p + 1]; ++i) {
        dense.at(y, x, c_idcs_[i]) = 1;
      }
    }
  }
  return dense;
}

}  // namespace spikestream::compress
