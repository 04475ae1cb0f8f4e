// Leaky Integrate-and-Fire neuron dynamics (Eq. 1 of the paper):
//   i_m(t)  = sum_n s_{i,n}(t) * w_n
//   v_m(t)  = v_m(t-1) * alpha + r * i_m(t) - v_rst * s_{o,m}(t)
//   s_o(t)  = 1 if v_m(t) >= v_th else 0
// With v_rst = v_th this is the usual "soft reset by subtraction".
#pragma once

#include "common/simd.hpp"
#include "snn/tensor.hpp"

namespace spikestream::snn {

struct LifParams {
  float v_th = 1.0f;    ///< membrane threshold (calibrated per layer)
  float alpha = 0.9f;   ///< leak / decay factor
  float r = 1.0f;       ///< membrane resistance
  float v_rst = 1.0f;   ///< reset subtraction (kept equal to v_th)
};

/// Rows [row_lo, row_hi) of lif_step_into, for callers that split one layer
/// into row bands: `out` must already have the layer's shape. Rows are
/// contiguous in HWC and the step is elementwise, so disjoint bands may run
/// concurrently and together equal one whole-layer call bit for bit.
/// Returns the band's spike count.
inline std::size_t lif_step_rows(const LifParams& p, const Tensor& current,
                                 Tensor& membrane, SpikeMap& out, int row_lo,
                                 int row_hi) {
  SPK_CHECK(current.same_shape(membrane) && out.h == current.h &&
                out.w == current.w && out.c == current.c,
            "LIF shape mismatch");
  const std::size_t row =
      static_cast<std::size_t>(current.w) * static_cast<std::size_t>(current.c);
  const std::size_t lo = static_cast<std::size_t>(row_lo) * row;
  return common::simd::lif_step(current.v.data() + lo, membrane.v.data() + lo,
                                out.v.data() + lo,
                                static_cast<std::size_t>(row_hi - row_lo) * row,
                                p.alpha, p.r, p.v_th, p.v_rst);
}

/// One LIF timestep over a whole layer into a caller-owned spike buffer
/// (scratch-arena reuse, zero allocations in steady state): integrates
/// `current` into `membrane` (updated in place), writes the output spikes and
/// returns how many neurons fired. Dispatches to the widest host SIMD tier
/// available (common/simd.hpp); every tier computes v with a fused
/// mem * alpha + (r * cur), so results are bit-identical across tiers.
inline std::size_t lif_step_into(const LifParams& p, const Tensor& current,
                                 Tensor& membrane, SpikeMap& out) {
  out.reshape(current.h, current.w, current.c);
  return lif_step_rows(p, current, membrane, out, 0, current.h);
}

/// One LIF timestep over a whole layer: integrates `current` into `membrane`
/// (updated in place) and writes the output spikes. Shapes must match.
inline SpikeMap lif_step(const LifParams& p, const Tensor& current,
                         Tensor& membrane) {
  SpikeMap out;
  lif_step_into(p, current, membrane, out);
  return out;
}

}  // namespace spikestream::snn
