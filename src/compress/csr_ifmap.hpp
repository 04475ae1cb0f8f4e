// The paper's CSR-derived fiber-tree compression for binary ifmaps
// (Section III-A). Spike values are implicitly "1", so only positions are
// stored: `c_idcs` holds the channel indices of active neurons, grouped by
// spatial position in row-major order; `s_ptr` aggregates the spiking-neuron
// count per spatial position (stored as 16-bit counts, prefix-summed on the
// fly). FC layers degenerate to a single index array plus a count.
//
// Narrow maps (at most kNarrowChannels channels, like the deep tower's
// 8-channel convs) also carry each spike's row offset x * c + channel: the
// offset of its weight row within a kernel row of a conv layer reading this
// map. The conv functional pass walks a receptive field's kernel rows as
// contiguous runs over these offsets. They are written by the same pass
// that writes the indices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "snn/tensor.hpp"

namespace spikestream::compress {

class CsrIfmap {
 public:
  CsrIfmap() = default;

  /// Compress a binary HWC spike map.
  static CsrIfmap encode(const snn::SpikeMap& dense);

  /// Compress into a caller-owned CsrIfmap, reusing its buffers (capacity
  /// is retained across calls, so a warmed-up buffer encodes with zero heap
  /// allocations; a narrow map's buffers take its worst case on first use
  /// and keep that size, the spike count held apart in nnz()).
  static void encode_into(const snn::SpikeMap& dense, CsrIfmap& out);

  /// Maps with at most this many channels are narrow: encoded pixel by
  /// pixel with branch-free writes, and given row offsets. One channel
  /// octet per pixel; 8 is the deep tower's width, the only one measured.
  static constexpr int kNarrowChannels = 8;
  static constexpr bool is_narrow(int channels) {
    return channels <= kNarrowChannels;
  }

  /// Pre-reserve for maps of up to `positions` spatial positions of
  /// `channels` channels, every neuron spiking: every later encode_into() of
  /// such a map on this object is heap-allocation-free whatever occupancy
  /// the workload reaches.
  void reserve(std::size_t positions, int channels) {
    const std::size_t cap = positions * static_cast<std::size_t>(channels);
    s_ptr_.reserve(positions + 1);
    if (!is_narrow(channels)) {
      c_idcs_.reserve(cap);
      return;
    }
    c_idcs_.reserve(cap + kNarrowSlack);
    row_offsets_.reserve(cap + kNarrowSlack);
  }

  /// Footprint a map with `nnz` spikes over h*w positions would compress to,
  /// without materializing the encoding (the hot path only needs the size).
  static std::size_t footprint_from_count(std::size_t nnz, int h, int w,
                                          int idx_bytes = 2) {
    return nnz * static_cast<std::size_t>(idx_bytes) +
           static_cast<std::size_t>(h) * static_cast<std::size_t>(w) *
               static_cast<std::size_t>(idx_bytes);
  }

  /// Reconstruct the dense binary map (for tests / golden comparisons).
  snn::SpikeMap decode() const;

  int h() const { return h_; }
  int w() const { return w_; }
  int c() const { return c_; }
  std::size_t nnz() const { return nnz_; }
  double density() const {
    const auto total = static_cast<double>(h_) * w_ * c_;
    return total > 0 ? static_cast<double>(nnz()) / total : 0.0;
  }

  /// Channel indices of the spikes at spatial position (y, x).
  std::span<const std::uint16_t> at(int y, int x) const {
    const std::size_t p = static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(w_) +
                          static_cast<std::size_t>(x);
    return {c_idcs_.data() + s_ptr_[p],
            static_cast<std::size_t>(s_ptr_[p + 1] - s_ptr_[p])};
  }

  /// Number of spikes at spatial position (y, x) — the SpVA stream length.
  std::uint32_t stream_len(int y, int x) const {
    const std::size_t p = static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(w_) +
                          static_cast<std::size_t>(x);
    return s_ptr_[p + 1] - s_ptr_[p];
  }

  const std::vector<std::uint32_t>& s_ptr() const { return s_ptr_; }
  std::span<const std::uint16_t> c_idcs() const {
    return {c_idcs_.data(), nnz_};
  }
  /// Whether row_offsets() is filled: the map is narrow.
  bool has_row_offsets() const { return is_narrow(c_); }
  /// Narrow maps: per spike i at column x, x * c() + c_idcs()[i]. Empty
  /// for wider maps.
  std::span<const std::uint32_t> row_offsets() const {
    return {row_offsets_.data(), has_row_offsets() ? nnz_ : 0};
  }

  /// Storage footprint in bytes with `idx_bytes`-wide indices and counts
  /// (the paper assumes 2). `s_ptr` is stored as one count per position.
  std::size_t footprint_bytes(int idx_bytes = 2) const {
    const std::size_t positions = static_cast<std::size_t>(h_) * w_;
    return nnz() * static_cast<std::size_t>(idx_bytes) +
           positions * static_cast<std::size_t>(idx_bytes);
  }

  /// Footprint of spatial rows [y_lo, y_hi) as a standalone map (2-byte
  /// indices and counts) — the ifmap stripe one sharded cluster streams —
  /// read off the `s_ptr` prefix sums without copying the rows.
  std::size_t rows_footprint_bytes(int y_lo, int y_hi) const {
    SPK_CHECK(0 <= y_lo && y_lo <= y_hi && y_hi <= h_,
              "CsrIfmap: bad row range [" << y_lo << ", " << y_hi << ")");
    const std::size_t p_lo =
        static_cast<std::size_t>(y_lo) * static_cast<std::size_t>(w_);
    const std::size_t p_hi =
        static_cast<std::size_t>(y_hi) * static_cast<std::size_t>(w_);
    return footprint_from_count(s_ptr_[p_hi] - s_ptr_[p_lo], y_hi - y_lo, w_);
  }

 private:
  /// The narrow encode stores a whole channel octet past its last spike.
  static constexpr std::size_t kNarrowSlack = 8;

  int h_ = 0, w_ = 0, c_ = 0;
  std::size_t nnz_ = 0;                ///< spikes: c_idcs_[0, nnz_) in use
  std::vector<std::uint32_t> s_ptr_;   ///< h*w+1 prefix sums
  std::vector<std::uint16_t> c_idcs_;  ///< channel index per spike
  std::vector<std::uint32_t> row_offsets_;  ///< narrow maps: x * c + index
};

}  // namespace spikestream::compress
