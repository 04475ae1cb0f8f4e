#include "kernels/layer_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__AVX512F__) && defined(__F16C__)
#include <immintrin.h>
#endif

#include "common/check.hpp"
#include "common/simd.hpp"
#include "kernels/scheduler.hpp"
#include "snn/lif.hpp"
#include "snn/reference.hpp"

namespace spikestream::kernels {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBaseline: return "baseline";
    case Variant::kSpikeStream: return "spikestream";
    case Variant::kDenseNoTc: return "dense-no-tc";
  }
  return "?";
}

namespace {

/// SIMD output-channel groups for a format (last group may be partial).
int n_groups(int out_c, common::FpFormat fmt) {
  const int simd = common::simd_lanes(fmt);
  return (out_c + simd - 1) / simd;
}

/// Average memory-port pressure per core per cycle for the conflict model.
double access_rate(Variant v, const CostParams& p) {
  if (v == Variant::kBaseline) {
    // Baseline: lw + fld per element over ~11 cycles.
    return 2.0 / p.baseline_elem_cycles;
  }
  // Streamed variants: one data word + 1/4 index word (or a second affine
  // stream) per element, one element per II cycles.
  return 1.25 / p.fadd_latency;
}

/// SEC-DED ECC overlay (arch::EccConfig): closed-form check/scrub cycles and
/// expected correction outcomes over the words this layer actually moved —
/// DRAM beats from the final dma_bytes, SPM words from tcdm_words. Applied
/// once per layer at the end of finish_timing so it composes with every DMA
/// schedule (cold/warm/segment-major) without re-threading the tile planner;
/// strictly a no-op when ECC is off, keeping historical numbers bit-exact.
void apply_ecc_overlay(const RunOptions& opt, KernelStats& st) {
  const arch::EccConfig& ecc = opt.cost.dram.ecc;
  if (!ecc.enabled) return;
  const double beats = st.dma_bytes / opt.cost.dram.bytes_per_cycle;
  const double dram_words = st.dma_bytes / 8.0;  // 64-bit codewords
  const double words = dram_words + st.tcdm_words;
  double cyc = beats * ecc.dram_cycles_per_beat +
               st.tcdm_words * ecc.spm_cycles_per_word;
  if (ecc.scrub_interval_cycles > 0) {
    // One re-read of the layer's DRAM-touched footprint per scrub period,
    // amortized over the layer's own window.
    cyc += st.cycles / ecc.scrub_interval_cycles * beats;
  }
  st.ecc_words = words;
  st.ecc_corrected = ecc.expected_corrected(words);
  st.ecc_uncorrectable = ecc.expected_uncorrectable(words);
  st.ecc_cycles = cyc;
  st.cycles += cyc;
}

/// Shared tail of every timing pass: apply the plan's DMA timeline to the
/// stats and derive wall-clock cycles. With batch-level weight-tile reuse on
/// and this scratch's simulated cluster still holding the layer's
/// (single-tile) weight set from the previous sample, the warm DMA timeline
/// is charged instead and the skipped weight traffic is itemized in
/// dma_saved_bytes. Marks the scratch warm for the next sample either way.
void finish_timing(const RunOptions& opt, KernelScratch& scratch) {
  LayerRun& run = scratch.run;
  KernelStats& st = run.stats;
  if (run.plan.segment_major) {
    // Segment-major batched FC schedule: every sample of the batch is
    // charged the same amortized DMA timeline (weight bands / lanes + its
    // own ifmap/ofmap/spill share), so the numbers do not depend on lane
    // history — there is no warm/cold split to track. The saving is the
    // per-sample weight re-stream the batch loop inversion removed, net of
    // the spill traffic (which stays inside dma_bytes and is itemized).
    st.dma_cycles = run.plan.sm_dma_cycles;
    st.dma_bytes = run.plan.sm_dma_bytes;
    st.dma_saved_bytes = run.plan.dma_bytes - run.plan.sm_dma_bytes;
    st.dma_bytes_spill = run.plan.sm_spill_bytes;
    // Banked DRAM itemization: row outcomes of the amortized streams, plus
    // the spill/fill cycles the double-buffered schedule hid under the
    // concurrent band streams (already net in sm_dma_cycles). All zero
    // under flat legacy.
    st.dma_row_hits = run.plan.sm_row_hits;
    st.dma_row_misses = run.plan.sm_row_misses;
    st.dma_cycles_hidden = run.plan.sm_hidden_cycles;
    st.cycles = overlap_cycles(run.plan, st.compute_cycles, opt.double_buffer);
    apply_ecc_overlay(opt, st);
    scratch.weights_warm = true;
    return;
  }
  const bool warm = opt.batch_weight_reuse && scratch.weights_warm &&
                    run.plan.pinned_weight_fraction > 0;
  st.dma_cycles = warm ? run.plan.dma_cycles_warm : run.plan.dma_cycles;
  st.dma_bytes = warm ? run.plan.dma_bytes_warm : run.plan.dma_bytes;
  st.dma_saved_bytes =
      warm ? run.plan.dma_bytes - run.plan.dma_bytes_warm : 0.0;
  st.dma_bytes_spill = 0.0;
  st.dma_row_hits = warm ? run.plan.dma_row_hits_warm : run.plan.dma_row_hits;
  st.dma_row_misses =
      warm ? run.plan.dma_row_misses_warm : run.plan.dma_row_misses;
  st.dma_cycles_hidden = 0.0;
  st.cycles =
      overlap_cycles(run.plan, st.compute_cycles, opt.double_buffer, warm);
  apply_ecc_overlay(opt, st);
  scratch.weights_warm = true;
}

void schedule_into(const RunOptions& opt, std::span<const double> tasks,
                   ScheduleResult& r) {
  if (opt.workload_stealing) {
    steal_schedule_into(tasks, opt.cores, opt.cost.steal_cost, r);
  } else {
    static_schedule_into(tasks, opt.cores, r);
  }
}

/// Shared activity bookkeeping for one sparse SpVA of length `s`.
void count_spva(KernelStats& st, Variant v, double s) {
  st.fpu_ops += s;
  if (v == Variant::kSpikeStream) {
    st.int_instrs += 14;          // setup + frep + loop control
    st.tcdm_words += s + s / 4.0; // data words + packed 16-bit index words
    st.ssr_elems += s;
  } else {
    st.int_instrs += 16 + 8 * s;  // outer bookkeeping + Listing 1b body
    st.tcdm_words += 2.0 * s;     // lw index + fld weight word
  }
}

void count_activation(KernelStats& st, const CostParams& p, int simd,
                      double spikes, bool fp8) {
  const double cyc = activation_cycles(p, simd, spikes, fp8);
  st.int_instrs += cyc;            // thresholding is integer-pipe work
  st.tcdm_words += 1.0 + spikes / 4.0;  // s_ptr update + packed c_idcs
}

/// Accumulate weight rows into `acc[0..out_c)`. Rows are added strictly in
/// order — `acc = (((acc + w0) + w1) + w2) + w3` — so the result is
/// bit-identical to the naive one-row-at-a-time loop (and to the golden
/// reference); processing four rows per sweep just amortizes the
/// accumulator loads/stores over four streamed row reads.
void add_rows(float* __restrict__ acc, const void* const* rows,
              std::size_t n_rows, int out_c) {
  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    const float* __restrict__ w0 = static_cast<const float*>(rows[r]);
    const float* __restrict__ w1 = static_cast<const float*>(rows[r + 1]);
    const float* __restrict__ w2 = static_cast<const float*>(rows[r + 2]);
    const float* __restrict__ w3 = static_cast<const float*>(rows[r + 3]);
    for (int co = 0; co < out_c; ++co) {
      acc[co] = (((acc[co] + w0[co]) + w1[co]) + w2[co]) + w3[co];
    }
  }
  for (const void* const* row = rows + r; row != rows + n_rows; ++row) {
    const float* __restrict__ w0 = static_cast<const float*>(*row);
    for (int co = 0; co < out_c; ++co) acc[co] += w0[co];
  }
}

#if defined(__AVX512F__) && defined(__F16C__)
#define SPIKESTREAM_HALF_ROWS 1

/// vcvtph2ps of 16 binary16 values. The zero-masked form compiles to the
/// same single instruction as _mm512_cvtph_ps, whose header expansion from
/// _mm512_undefined_ps trips GCC 12's -Wmaybe-uninitialized.
inline __m512 load_half16(const std::uint16_t* p) {
  return _mm512_maskz_cvtph_ps(
      0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

/// Half-precision weight streaming: rows hold IEEE binary16 bit patterns
/// (LayerWeights::half), converted to float32 by vcvtph2ps right before the
/// add. Lane-wise the accumulation order and the converted values are
/// exactly those of add_rows() on the float32 rows, so spikes stay
/// bit-identical — only the memory traffic is halved. Requires out_c to be a
/// multiple of 16 (WeightRows::half).
void add_rows_half(float* acc, const void* const* rows, std::size_t n_rows,
                   int out_c) {
  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    const auto* w0 = static_cast<const std::uint16_t*>(rows[r]);
    const auto* w1 = static_cast<const std::uint16_t*>(rows[r + 1]);
    const auto* w2 = static_cast<const std::uint16_t*>(rows[r + 2]);
    const auto* w3 = static_cast<const std::uint16_t*>(rows[r + 3]);
    for (int co = 0; co + 16 <= out_c; co += 16) {
      __m512 s = _mm512_loadu_ps(acc + co);
      s = _mm512_add_ps(s, load_half16(w0 + co));
      s = _mm512_add_ps(s, load_half16(w1 + co));
      s = _mm512_add_ps(s, load_half16(w2 + co));
      s = _mm512_add_ps(s, load_half16(w3 + co));
      _mm512_storeu_ps(acc + co, s);
    }
  }
  for (; r < n_rows; ++r) {
    const auto* w0 = static_cast<const std::uint16_t*>(rows[r]);
    for (int co = 0; co + 16 <= out_c; co += 16) {
      const __m512 s =
          _mm512_add_ps(_mm512_loadu_ps(acc + co), load_half16(w0 + co));
      _mm512_storeu_ps(acc + co, s);
    }
  }
}
#endif  // __AVX512F__ && __F16C__

/// One layer's weight rows as the functional passes stream them: float32,
/// or binary16 on the half-precision fast path (half-exact weights, out_c a
/// multiple of 16).
struct WeightRows {
  const char* base = nullptr;
  std::size_t row_bytes = 0;
  int out_c = 0;
  bool half = false;
};

WeightRows weight_rows(const snn::LayerWeights& w, int out_c) {
  WeightRows r;
#ifdef SPIKESTREAM_HALF_ROWS
  r.half = w.half_exact && out_c % 16 == 0;
#endif
  r.base = r.half ? reinterpret_cast<const char*>(w.half.data())
                  : reinterpret_cast<const char*>(w.v.data());
  r.row_bytes = static_cast<std::size_t>(out_c) *
                (r.half ? sizeof(std::uint16_t) : sizeof(float));
  r.out_c = out_c;
  return r;
}

/// One contiguous run of CSR spikes [lo, hi) whose weight rows are
/// base + idx[i] — the spikes under one kernel row of a receptive field, or
/// a band of an FC input.
struct IndexRun {
  std::uint32_t lo = 0, hi = 0;
  std::ptrdiff_t base = 0;
};

/// Eight float32 lanes (GCC/Clang vector extension): one AVX register, or
/// two SSE registers on narrower hosts. Lane-wise adds are plain IEEE
/// float32 adds.
using Lanes8 = float __attribute__((vector_size(32)));

/// Add the weight rows of `runs` (in order) into `acc[0..out_c)`.
template <class Idx>
void add_runs(const WeightRows& w, float* __restrict__ acc, const Idx* idx,
              const IndexRun* runs, int n_runs) {
  if (!w.half && w.out_c == 8) {
    // One row per register: the accumulator stays in it across every run.
    // Runs are short at SNN sparsity (0-3 spikes per kernel row of the deep
    // tower), so each run ends in three slots added unconditionally: a slot
    // past the run selects a zero row instead of branching on the count.
    // Adding +0 leaves the accumulator's bits unchanged, because it starts
    // at +0 and an IEEE sum is -0 only when both operands are.
    static constexpr float kZeroRow[8] = {};
    static constexpr Idx kNoIndex = 0;
    const auto* wf = reinterpret_cast<const float*>(w.base);
    Lanes8 a;
    std::memcpy(&a, acc, sizeof a);
    const auto add = [&a](const float* row) {
      Lanes8 v;
      std::memcpy(&v, row, sizeof v);
      a += v;
    };
    for (int r = 0; r < n_runs; ++r) {
      const IndexRun run = runs[r];
      std::uint32_t i = run.lo;
      for (; i + 3 < run.hi; ++i) add(wf + (run.base + idx[i]) * 8);
      for (std::uint32_t j = 0; j < 3; ++j) {
        const bool live = i + j < run.hi;
        const Idx* at = live ? idx + i + j : &kNoIndex;
        add(live ? wf + (run.base + *at) * 8 : kZeroRow);
      }
    }
    std::memcpy(acc, &a, sizeof a);
    return;
  }
  // Wider rows: row pointers gathered in stack blocks. Each block's rows are
  // added in order after the previous block's, so any blocking sums the
  // same float32 sequence.
  constexpr std::size_t kBlock = 64;
  const void* rows[kBlock];
  std::size_t n = 0;
  const auto flush = [&] {
#ifdef SPIKESTREAM_HALF_ROWS
    if (w.half) {
      add_rows_half(acc, rows, n, w.out_c);
      n = 0;
      return;
    }
#endif
    add_rows(acc, rows, n, w.out_c);
    n = 0;
  };
  for (int r = 0; r < n_runs; ++r) {
    for (std::uint32_t i = runs[r].lo; i < runs[r].hi; ++i) {
      rows[n++] = w.base + static_cast<std::size_t>(runs[r].base + idx[i]) *
                               w.row_bytes;
      if (n == kBlock) flush();
    }
  }
  if (n > 0) flush();
}

}  // namespace

// ---------------------------------------------------------------------------
// Functional passes
// ---------------------------------------------------------------------------

void shape_functional(const snn::LayerSpec& spec,
                      const compress::CsrIfmap* ifmap,
                      KernelScratch& scratch) {
  scratch.currents.reshape(spec.out_h(), spec.out_w(), spec.out_c);
  scratch.run.out_spikes.reshape(spec.out_h(), spec.out_w(), spec.out_c);
  if (ifmap == nullptr) return;
  SPK_CHECK(ifmap->h() == spec.in_h && ifmap->w() == spec.in_w &&
                ifmap->c() == spec.in_c,
            "conv " << spec.name << ": ifmap shape mismatch");
}

std::size_t conv_functional_rows(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 const compress::CsrIfmap& ifmap,
                                 snn::Tensor& membrane, KernelScratch& scratch,
                                 int oy_lo, int oy_hi) {
  const bool by_run = ifmap.has_row_offsets();
  const int k = spec.k;
  const int ow = spec.out_w();
  const int out_c = spec.out_c;

  snn::Tensor& currents = scratch.currents;
  const std::size_t row_elems =
      static_cast<std::size_t>(ow) * static_cast<std::size_t>(out_c);
  std::fill_n(currents.v.data() + static_cast<std::size_t>(oy_lo) * row_elems,
              static_cast<std::size_t>(oy_hi - oy_lo) * row_elems, 0.0f);

  // A receptive field's weight rows, in the reference's (kh, kw, ci) order.
  // The k input positions under one kernel row are adjacent in the CSR's
  // row-major order, so their spikes form one index run: with a narrow
  // map's row offsets, spike i at column x streams row
  // (kh*k + x - ox)*in_c + c = base + g[i]. Otherwise each position is its
  // own span over c_idcs, based at (kh*k + kw)*in_c. Both walks add the
  // same rows in the same order.
  const WeightRows w = weight_rows(weights, out_c);
  const std::uint32_t* g = ifmap.row_offsets().data();
  const std::uint16_t* c_idcs = ifmap.c_idcs().data();
  const std::vector<std::uint32_t>& s_ptr = ifmap.s_ptr();
  const std::ptrdiff_t in_c = spec.in_c;
  constexpr int kMaxRuns = 16;  // runs handed to one add_runs call
  IndexRun runs[kMaxRuns];
  for (int oy = oy_lo; oy < oy_hi; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      float* acc = &currents.at(oy, ox, 0);
      int n = 0;
      const auto flush = [&] {
        if (by_run) {
          add_runs(w, acc, g, runs, n);
        } else {
          add_runs(w, acc, c_idcs, runs, n);
        }
        n = 0;
      };
      for (std::ptrdiff_t kh = 0; kh < k; ++kh) {
        const std::size_t p = static_cast<std::size_t>(oy + kh) *
                                  static_cast<std::size_t>(spec.in_w) +
                              static_cast<std::size_t>(ox);
        if (by_run) {
          runs[n++] = {s_ptr[p], s_ptr[p + static_cast<std::size_t>(k)],
                       (kh * k - ox) * in_c};
          if (n == kMaxRuns) flush();
          continue;
        }
        for (int kw = 0; kw < k; ++kw) {
          runs[n++] = {s_ptr[p + kw], s_ptr[p + kw + 1], (kh * k + kw) * in_c};
          if (n == kMaxRuns) flush();
        }
      }
      if (n > 0) flush();
    }
  }
  return snn::lif_step_rows(spec.lif, currents, membrane,
                            scratch.run.out_spikes, oy_lo, oy_hi);
}

void conv_functional(const snn::LayerSpec& spec,
                     const snn::LayerWeights& weights,
                     const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
                     KernelScratch& scratch) {
  shape_functional(spec, &ifmap, scratch);
  scratch.run.out_nnz = conv_functional_rows(spec, weights, ifmap, membrane,
                                             scratch, 0, spec.out_h());
}

void fc_functional(const snn::LayerSpec& spec, const snn::LayerWeights& weights,
                   const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
                   KernelScratch& scratch) {
  SPK_CHECK(ifmap.h() == 1 && ifmap.w() == 1 && ifmap.c() == spec.in_c,
            "fc " << spec.name << ": input shape mismatch");
  const int out_c = spec.out_c;
  snn::Tensor& currents = scratch.currents;
  currents.reshape(1, 1, out_c);
  std::fill(currents.v.begin(), currents.v.end(), 0.0f);

  const auto span = ifmap.at(0, 0);
  const IndexRun run{0, static_cast<std::uint32_t>(span.size()), 0};
  add_runs(weight_rows(weights, out_c), currents.v.data(), span.data(), &run,
           1);
  scratch.run.out_nnz =
      snn::lif_step_into(spec.lif, currents, membrane, scratch.run.out_spikes);
}

void fc_functional_batch(const snn::LayerSpec& spec,
                         const snn::LayerWeights& weights,
                         std::span<const FcBatchLane> lanes) {
  const int out_c = spec.out_c;
  const WeightRows w = weight_rows(weights, out_c);
  for (const FcBatchLane& lane : lanes) {
    SPK_CHECK(lane.ifmap->h() == 1 && lane.ifmap->w() == 1 &&
                  lane.ifmap->c() == spec.in_c,
              "fc " << spec.name << ": input shape mismatch");
    snn::Tensor& currents = lane.scratch->main.currents;
    currents.reshape(1, 1, out_c);
    std::fill(currents.v.begin(), currents.v.end(), 0.0f);
  }

  // Band width sized so one band's weight rows stay hot in the host cache
  // while every lane sweeps them (the host-side analogue of streaming the
  // band into SPM once per batch). Bands partition the sorted CSR index
  // space, so each lane's rows are still added in exactly the order its
  // serial fc_functional call would use — bit-identical currents.
  constexpr std::size_t kBandBytes = 32 * 1024;
  const int band_rows = std::max<int>(
      1, static_cast<int>(kBandBytes / std::max<std::size_t>(w.row_bytes, 1)));
  // Per-lane position in its sorted index span. thread_local so the steady
  // state reuses capacity (the batch call never nests or recurses); every
  // other buffer lives in the lanes' own scratch arenas.
  static thread_local std::vector<std::uint32_t> cursors;
  cursors.assign(lanes.size(), 0);
  for (int c_lo = 0; c_lo < spec.in_c; c_lo += band_rows) {
    // Compared as int: in_c may be 65536, one past the 16-bit index range.
    const int c_hi = std::min(spec.in_c, c_lo + band_rows);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const auto span = lanes[i].ifmap->at(0, 0);
      IndexRun run{cursors[i], cursors[i], 0};
      while (run.hi < span.size() && static_cast<int>(span[run.hi]) < c_hi) {
        ++run.hi;
      }
      cursors[i] = run.hi;
      if (run.hi > run.lo) {
        add_runs(w, lanes[i].scratch->main.currents.v.data(), span.data(),
                 &run, 1);
      }
    }
  }

  for (const FcBatchLane& lane : lanes) {
    KernelScratch& ks = lane.scratch->main;
    ks.run.out_nnz = snn::lif_step_into(spec.lif, ks.currents, *lane.membrane,
                                        ks.run.out_spikes);
  }
}

std::size_t encode_functional_rows(const snn::LayerSpec& spec,
                                   const snn::LayerWeights& weights,
                                   const snn::Tensor& padded_image,
                                   snn::Tensor& membrane,
                                   KernelScratch& scratch, int oy_lo,
                                   int oy_hi) {
  SPK_CHECK(padded_image.h == spec.in_h && padded_image.c == spec.in_c,
            "encode: input shape mismatch");
  snn::Reference::conv_currents_dense_rows(padded_image, weights, oy_lo, oy_hi,
                                           scratch.currents);
  return snn::lif_step_rows(spec.lif, scratch.currents, membrane,
                            scratch.run.out_spikes, oy_lo, oy_hi);
}

void encode_functional(const snn::LayerSpec& spec,
                       const snn::LayerWeights& weights,
                       const snn::Tensor& padded_image, snn::Tensor& membrane,
                       KernelScratch& scratch) {
  shape_functional(spec, nullptr, scratch);
  scratch.run.out_nnz = encode_functional_rows(
      spec, weights, padded_image, membrane, scratch, 0, spec.out_h());
}

// ---------------------------------------------------------------------------
// Timing passes
// ---------------------------------------------------------------------------

namespace {

/// Conflict stretch of the conv/FC sparse streams.
double sparse_stretch(const RunOptions& opt) {
  return opt.variant == Variant::kBaseline
             ? 1.0
             : opt.cost.conflict_stretch(access_rate(opt.variant, opt.cost),
                                         opt.cores);
}

/// The window's sub-layer: its channel extent over its output rows' halo'd
/// input rows.
snn::LayerSpec window_spec(const snn::LayerSpec& spec, const PriceWindow& win) {
  snn::LayerSpec sub = spec;
  sub.out_c = win.c_hi - win.c_lo;
  if (spec.kind != snn::LayerKind::kFc) {
    sub.in_h = win.oy_hi - win.oy_lo + spec.k - 1;
  }
  return sub;
}

void conv_time_window(const snn::LayerSpec& spec,
                      const compress::CsrIfmap& ifmap,
                      const StreamProfile& profile, const snn::SpikeMap& out,
                      const PriceWindow& win, const RunOptions& opt,
                      KernelScratch& scratch) {
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;
  const int simd = common::simd_lanes(fmt);
  const bool fp8 = fmt == common::FpFormat::FP8;
  const snn::LayerSpec sub = window_spec(spec, win);
  const int k = spec.k;
  const int ow = spec.out_w();

  LayerRun& run = scratch.run;
  const int groups = n_groups(sub.out_c, fmt);
  const double stretch = sparse_stretch(opt);

  KernelStats& st = run.stats;
  st.reset();
  st.active_cores = opt.cores;
  std::vector<double>& rf_costs = scratch.tasks;
  rf_costs.clear();
  rf_costs.reserve(static_cast<std::size_t>(win.oy_hi - win.oy_lo) * ow);
  scratch.group_counts.resize(static_cast<std::size_t>(groups));
  double* gcounts = scratch.group_counts.data();
  // The activity counters accumulate in locals, which the rf_costs and
  // group-count stores cannot alias, and land in `st` once at the end. Each
  // counter sees the same additions in the same order as summing into `st`
  // directly would, so the totals are bit-identical.
  double fpu_ops = 0, int_instrs = 0, tcdm_words = 0, ssr_elems = 0;
  // Activation of one group of `gs` spikes: thresholding is integer-pipe
  // work, plus the s_ptr update and the packed c_idcs words.
  const auto activate = [&](double gs) {
    const double cyc = activation_cycles(p, simd, gs, fp8);
    int_instrs += cyc;
    tcdm_words += 1.0 + gs / 4.0;
    return cyc;
  };
  double fired = 0;
  for (int oy = win.oy_lo; oy < win.oy_hi; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      // The k*k SpVA streams of this receptive field (from the profile);
      // the same streams repeat for every SIMD output-channel group.
      const std::size_t pos = static_cast<std::size_t>(oy) * ow + ox;
      const double elems = profile.elems[pos];
      double fpu_time = profile.fpu_time[pos];  // FPU sequencer timeline
      double int_time = 0;  // integer-core timeline (setup + activation)
      fpu_ops += elems * groups;
      common::simd::group_spike_counts(&out.at(oy, ox, win.c_lo), sub.out_c,
                                       simd, groups, gcounts);
      for (int g = 0; g < groups; ++g) fired += gcounts[g];

      double rf = 0;
      if (opt.variant == Variant::kSpikeStream) {
        fpu_time *= groups;
        int_time = p.steal_cost + p.ss_setup * k * k * groups;
        for (int g = 0; g < groups; ++g) int_time += activate(gcounts[g]);
        // Pseudo dual-issue: integer work overlaps the FPU streams.
        rf = std::max(fpu_time, int_time);
        int_instrs += 14.0 * k * k * groups;
        tcdm_words += (elems + elems / 4.0) * groups;
        ssr_elems += elems * groups;
      } else if (opt.variant == Variant::kDenseNoTc) {
        // Uncompressed ifmap: one affine weight stream per position walks
        // the *entire* fan-in; the dense activation vector streams alongside
        // (fmadd with the 0/1 spike value). No indices, no s_ptr.
        const double dense_elems = static_cast<double>(k) * k * spec.in_c;
        fpu_time = (p.fadd_latency * dense_elems * stretch +
                    p.ss_residue * k * k) * groups;
        int_time = p.steal_cost + p.dense_setup * k * k * groups;
        for (int g = 0; g < groups; ++g) int_time += activate(gcounts[g]);
        rf = std::max(fpu_time, int_time);
        fpu_ops += (dense_elems - elems) * groups;  // elems already added
        int_instrs += 10.0 * k * k * groups;
        tcdm_words += 2.0 * dense_elems * groups;
        ssr_elems += 2.0 * dense_elems * groups;
      } else {
        // Baseline: everything serializes through the integer pipe.
        rf = (elems * p.baseline_elem_cycles +
              p.baseline_spva_overhead * k * k) *
             groups;
        for (int g = 0; g < groups; ++g) rf += activate(gcounts[g]);
        int_instrs += (16.0 * k * k + 8.0 * elems) * groups;
        tcdm_words += 2.0 * elems * groups;
      }
      rf_costs.push_back(rf);
    }
  }
  st.fpu_ops = fpu_ops;
  st.int_instrs = int_instrs;
  st.tcdm_words = tcdm_words;
  st.ssr_elems = ssr_elems;
  run.out_nnz = static_cast<std::size_t>(fired);

  schedule_into(opt, rf_costs, scratch.sched);
  st.core_cycles = scratch.sched.core_cycles;
  st.compute_cycles = scratch.sched.makespan + p.icache_layer_warmup;

  run.plan = plan_layer(
      sub, fmt,
      static_cast<double>(
          ifmap.rows_footprint_bytes(win.oy_lo, win.oy_lo + sub.in_h)),
      static_cast<double>(compress::CsrIfmap::footprint_from_count(
          run.out_nnz, sub.out_h(), ow)),
      p, 128.0 * 1024, opt.double_buffer);
  finish_timing(opt, scratch);
}

void fc_time_window(const snn::LayerSpec& spec,
                    const compress::CsrIfmap& ifmap, const snn::SpikeMap& out,
                    const PriceWindow& win, const RunOptions& opt,
                    KernelScratch& scratch) {
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;
  const int simd = common::simd_lanes(fmt);
  const bool fp8 = fmt == common::FpFormat::FP8;
  const snn::LayerSpec sub = window_spec(spec, win);

  LayerRun& run = scratch.run;
  const int groups = n_groups(sub.out_c, fmt);
  scratch.group_counts.resize(static_cast<std::size_t>(groups));
  double* gcounts = scratch.group_counts.data();
  common::simd::group_spike_counts(&out.at(0, 0, win.c_lo), sub.out_c, simd,
                                   groups, gcounts);
  double fired = 0;
  for (int g = 0; g < groups; ++g) fired += gcounts[g];
  run.out_nnz = static_cast<std::size_t>(fired);
  run.plan = plan_layer(
      sub, fmt, static_cast<double>(ifmap.footprint_bytes()),
      static_cast<double>(
          compress::CsrIfmap::footprint_from_count(run.out_nnz, 1, 1)),
      p, 128.0 * 1024, opt.double_buffer, opt.segment_major_lanes);

  const double s_total = static_cast<double>(ifmap.nnz());
  const int segs = run.plan.in_segments;
  const double s_seg = s_total / segs;
  const double stretch = sparse_stretch(opt);

  KernelStats& st = run.stats;
  st.reset();
  st.active_cores = opt.cores;
  std::vector<double>& tasks = scratch.tasks;
  tasks.clear();
  tasks.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    const double gs = gcounts[g];
    double t = 0;
    if (opt.variant == Variant::kSpikeStream) {
      const double fpu_time =
          (p.fadd_latency * s_seg * stretch + p.ss_residue) * segs;
      const double int_time = p.ss_setup * segs +
                              activation_cycles(p, simd, gs, fp8);
      t = std::max(fpu_time, int_time);
    } else if (opt.variant == Variant::kDenseNoTc) {
      const double dense_seg = static_cast<double>(spec.in_c) / segs;
      const double fpu_time =
          (p.fadd_latency * dense_seg * stretch + p.ss_residue) * segs;
      const double int_time = p.dense_setup * segs +
                              activation_cycles(p, simd, gs, fp8);
      t = std::max(fpu_time, int_time);
    } else {
      t = (s_seg * p.baseline_elem_cycles + p.baseline_spva_overhead) * segs +
          activation_cycles(p, simd, gs, fp8);
    }
    if (opt.variant == Variant::kDenseNoTc) {
      // Dense activity: the full fan-in streams through two affine SSRs.
      st.fpu_ops += spec.in_c;
      st.int_instrs += 10.0 * segs;
      st.tcdm_words += 2.0 * spec.in_c;
      st.ssr_elems += 2.0 * spec.in_c;
    } else {
      for (int s = 0; s < segs; ++s) count_spva(st, opt.variant, s_seg);
    }
    count_activation(st, p, simd, gs, fp8);
    tasks.push_back(t);
  }
  ScheduleResult& sched = scratch.sched;
  schedule_into(opt, tasks, sched);
  // Index pre-scaling pass (base ISA lacks strided indirect streams, Section
  // VI): performed once, split across cores, before the group streams start.
  // With the proposed extension an index addresses a weight row directly and
  // the pass disappears.
  double prescale = 0.0;
  if (opt.variant == Variant::kSpikeStream && !opt.strided_indirect_ext) {
    prescale = s_total * p.fc_prescale_per_spike / opt.cores;
    st.int_instrs += s_total * p.fc_prescale_per_spike;
  }
  for (double& c : sched.core_cycles) c += prescale;
  sched.makespan += prescale;

  st.core_cycles = sched.core_cycles;
  st.compute_cycles = sched.makespan + p.icache_layer_warmup;
  finish_timing(opt, scratch);
}

void encode_time_window(const snn::LayerSpec& spec, const snn::SpikeMap& out,
                        const PriceWindow& win, const RunOptions& opt,
                        KernelScratch& scratch) {
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;
  const int simd = common::simd_lanes(fmt);
  const bool fp8 = fmt == common::FpFormat::FP8;
  const snn::LayerSpec sub = window_spec(spec, win);

  // Conv-as-matmul over the im2row stream: each core owns a set of output-
  // channel groups (Section III-F) and walks all output positions.
  LayerRun& run = scratch.run;
  const int groups = n_groups(sub.out_c, fmt);
  const double dot_len = static_cast<double>(spec.k) * spec.k * spec.in_c;
  const int ow = spec.out_w();
  const double stretch =
      opt.variant == Variant::kBaseline
          ? 1.0
          : p.conflict_stretch(2.0 / p.dense_ii(), opt.cores);

  KernelStats& st = run.stats;
  st.reset();
  st.active_cores = opt.cores;

  // One sweep over the window's output spikes fills the per-(position,
  // group) counts the group-major timing loops below consume.
  const std::size_t positions =
      static_cast<std::size_t>(win.oy_hi - win.oy_lo) * ow;
  scratch.group_counts.resize(positions * static_cast<std::size_t>(groups));
  double* gcounts = scratch.group_counts.data();
  double fired = 0;
  for (int oy = win.oy_lo; oy < win.oy_hi; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      const std::size_t pos = static_cast<std::size_t>(oy - win.oy_lo) * ow + ox;
      double* pc = gcounts + pos * static_cast<std::size_t>(groups);
      common::simd::group_spike_counts(&out.at(oy, ox, win.c_lo), sub.out_c,
                                       simd, groups, pc);
      for (int g = 0; g < groups; ++g) fired += pc[g];
    }
  }
  run.out_nnz = static_cast<std::size_t>(fired);

  std::vector<double>& tasks = scratch.tasks;
  tasks.clear();
  tasks.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    double fpu_time = 0, int_time = 0, t = 0;
    for (std::size_t pos = 0; pos < positions; ++pos) {
      const double gs = gcounts[pos * static_cast<std::size_t>(groups) + g];
      const double act = activation_cycles(p, simd, gs, fp8);
      count_activation(st, p, simd, gs, fp8);
      st.fpu_ops += dot_len;
      st.fpu_mac_ops += dot_len;
      if (opt.variant != Variant::kBaseline) {
        fpu_time += p.dense_ii() * dot_len * stretch + p.dense_residue;
        int_time += p.dense_setup + act;
        st.int_instrs += 10;               // affine SSR setup per dot
        st.tcdm_words += 2.0 * dot_len;    // input + weight streams
        st.ssr_elems += 2.0 * dot_len;
      } else {
        t += baseline_dense_dot_cycles(p, dot_len) + act;
        st.int_instrs += 12 + 5.0 * dot_len;  // 2x-unrolled scalar loop
        st.tcdm_words += 2.0 * dot_len;
      }
    }
    if (opt.variant != Variant::kBaseline) {
      t = std::max(fpu_time, int_time);  // decoupled pipelines overlap
    }
    tasks.push_back(t);
  }
  schedule_into(opt, tasks, scratch.sched);
  st.core_cycles = scratch.sched.core_cycles;
  st.compute_cycles = scratch.sched.makespan + p.icache_layer_warmup;

  run.plan = plan_encode_layer(sub, fmt, p, 128.0 * 1024, opt.double_buffer);
  finish_timing(opt, scratch);
}

}  // namespace

void conv_stream_profile(const snn::LayerSpec& spec,
                         const compress::CsrIfmap& ifmap,
                         const RunOptions& opt, StreamProfile& profile) {
  const CostParams& p = opt.cost;
  const int k = spec.k;
  const int oh = spec.out_h(), ow = spec.out_w();
  const double stretch = sparse_stretch(opt);
  const std::size_t positions = static_cast<std::size_t>(oh) * ow;
  profile.elems.resize(positions);
  profile.fpu_time.resize(positions);
  std::size_t pos = 0;
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, ++pos) {
      double elems = 0;
      double fpu_time = 0;
      for (int kh = 0; kh < k; ++kh) {
        for (int kw = 0; kw < k; ++kw) {
          const double s = ifmap.stream_len(oy + kh, ox + kw);
          elems += s;
          fpu_time += p.fadd_latency * s * stretch + p.ss_residue;
        }
      }
      profile.elems[pos] = elems;
      profile.fpu_time[pos] = fpu_time;
    }
  }
}

void time_window(const snn::LayerSpec& spec, const compress::CsrIfmap* ifmap,
                 const StreamProfile& profile, const snn::SpikeMap& out,
                 const PriceWindow& win, const RunOptions& opt,
                 KernelScratch& ks) {
  switch (spec.kind) {
    case snn::LayerKind::kEncodeConv:
      encode_time_window(spec, out, win, opt, ks);
      return;
    case snn::LayerKind::kConv:
      conv_time_window(spec, *ifmap, profile, out, win, opt, ks);
      return;
    case snn::LayerKind::kFc:
      fc_time_window(spec, *ifmap, out, win, opt, ks);
      return;
  }
}

void conv_timing(const snn::LayerSpec& spec, const compress::CsrIfmap& ifmap,
                 const RunOptions& opt, KernelScratch& scratch) {
  conv_stream_profile(spec, ifmap, opt, scratch.profile);
  conv_time_window(spec, ifmap, scratch.profile, scratch.run.out_spikes,
                   whole_layer(spec), opt, scratch);
}

void fc_timing(const snn::LayerSpec& spec, const compress::CsrIfmap& ifmap,
               const RunOptions& opt, KernelScratch& scratch) {
  fc_time_window(spec, ifmap, scratch.run.out_spikes, whole_layer(spec), opt,
                 scratch);
}

void encode_timing(const snn::LayerSpec& spec, const RunOptions& opt,
                   KernelScratch& scratch) {
  encode_time_window(spec, scratch.run.out_spikes, whole_layer(spec), opt,
                     scratch);
}

void fc_fanin_shard_timing(const snn::LayerSpec& spec,
                           const compress::CsrIfmap& ifmap, int c_lo, int c_hi,
                           const RunOptions& opt, KernelScratch& scratch) {
  SPK_CHECK(ifmap.h() == 1 && ifmap.w() == 1 && ifmap.c() == spec.in_c,
            "fc fan-in " << spec.name << ": input shape mismatch");
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;

  // CSR channel indices are sorted, so the spikes this cluster owns are one
  // contiguous run of the index array. Bounds compare as int: c_hi may be
  // 65536, one past the 16-bit index range.
  const auto span = ifmap.at(0, 0);
  const auto below = [](std::uint16_t c, int bound) {
    return static_cast<int>(c) < bound;
  };
  const auto lo_it = std::lower_bound(span.begin(), span.end(), c_lo, below);
  const auto hi_it = std::lower_bound(span.begin(), span.end(), c_hi, below);
  const double s_total = static_cast<double>(hi_it - lo_it);

  // This cluster's slice of the layer: its weight-row band plus its ifmap
  // share. Partial currents stay on chip (they cross the NoC, not the DMA),
  // so the ofmap transfer volume is zero.
  snn::LayerSpec sub = spec;
  sub.in_c = c_hi - c_lo;
  LayerRun& run = scratch.run;
  run.plan = plan_layer(
      sub, fmt,
      static_cast<double>(compress::CsrIfmap::footprint_from_count(
          static_cast<std::size_t>(s_total), 1, 1)),
      0.0, p, 128.0 * 1024, opt.double_buffer, opt.segment_major_lanes);

  const int groups = n_groups(spec.out_c, fmt);
  const int segs = run.plan.in_segments;
  const double s_seg = s_total / segs;
  const double stretch = sparse_stretch(opt);

  KernelStats& st = run.stats;
  st.reset();
  st.active_cores = opt.cores;
  std::vector<double>& tasks = scratch.tasks;
  tasks.clear();
  tasks.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    double t = 0;
    if (opt.variant == Variant::kSpikeStream) {
      const double fpu_time =
          (p.fadd_latency * s_seg * stretch + p.ss_residue) * segs;
      t = std::max(fpu_time, p.ss_setup * segs);
    } else if (opt.variant == Variant::kDenseNoTc) {
      const double dense_seg = static_cast<double>(sub.in_c) / segs;
      const double fpu_time =
          (p.fadd_latency * dense_seg * stretch + p.ss_residue) * segs;
      t = std::max(fpu_time, p.dense_setup * segs);
    } else {
      t = (s_seg * p.baseline_elem_cycles + p.baseline_spva_overhead) * segs;
    }
    if (opt.variant == Variant::kDenseNoTc) {
      st.fpu_ops += sub.in_c;
      st.int_instrs += 10.0 * segs;
      st.tcdm_words += 2.0 * sub.in_c;
      st.ssr_elems += 2.0 * sub.in_c;
    } else {
      for (int s = 0; s < segs; ++s) count_spva(st, opt.variant, s_seg);
    }
    tasks.push_back(t);
  }
  ScheduleResult& sched = scratch.sched;
  schedule_into(opt, tasks, sched);
  // Index pre-scaling covers only this cluster's own spikes (see fc_timing).
  double prescale = 0.0;
  if (opt.variant == Variant::kSpikeStream && !opt.strided_indirect_ext) {
    prescale = s_total * p.fc_prescale_per_spike / opt.cores;
    st.int_instrs += s_total * p.fc_prescale_per_spike;
  }
  for (double& c : sched.core_cycles) c += prescale;
  sched.makespan += prescale;

  st.core_cycles = sched.core_cycles;
  st.compute_cycles = sched.makespan + p.icache_layer_warmup;
  finish_timing(opt, scratch);
}

FcFanInMergeCost fc_fanin_merge_cost(const snn::LayerSpec& spec,
                                     const snn::SpikeMap& out_spikes,
                                     int n_shards, const RunOptions& opt) {
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;
  const int simd = common::simd_lanes(fmt);
  const bool fp8 = fmt == common::FpFormat::FP8;
  const int groups = n_groups(spec.out_c, fmt);

  FcFanInMergeCost m;
  // Reduction: stream each of the n-1 partial vectors in from the NoC and
  // add it group-wise into the resident accumulator (one affine stream per
  // partial, one SIMD fadd per group).
  const double partials = static_cast<double>(n_shards) - 1.0;
  m.cycles += partials * (p.dense_setup + p.fadd_latency * groups);
  m.fpu_ops += partials * groups;
  m.int_instrs += partials * 10.0;
  m.tcdm_words += 2.0 * partials * groups;  // partial read + accumulator rmw
  // Activation runs exactly once, with the same accounting as fc_timing.
  const std::uint8_t* row = &out_spikes.at(0, 0, 0);
  for (int g = 0; g < groups; ++g) {
    const int lo = g * simd;
    const int hi = std::min(lo + simd, spec.out_c);
    double gs = 0;
    for (int ch = lo; ch < hi; ++ch) gs += row[ch];
    const double cyc = activation_cycles(p, simd, gs, fp8);
    m.cycles += cyc;
    m.int_instrs += cyc;
    m.tcdm_words += 1.0 + gs / 4.0;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Combined layer execution
// ---------------------------------------------------------------------------

const LayerRun& run_conv_layer(const snn::LayerSpec& spec,
                               const snn::LayerWeights& weights,
                               const compress::CsrIfmap& ifmap,
                               snn::Tensor& membrane, const RunOptions& opt,
                               KernelScratch& scratch) {
  conv_functional(spec, weights, ifmap, membrane, scratch);
  conv_timing(spec, ifmap, opt, scratch);
  return scratch.run;
}

const LayerRun& run_fc_layer(const snn::LayerSpec& spec,
                             const snn::LayerWeights& weights,
                             const compress::CsrIfmap& ifmap,
                             snn::Tensor& membrane, const RunOptions& opt,
                             KernelScratch& scratch) {
  fc_functional(spec, weights, ifmap, membrane, scratch);
  fc_timing(spec, ifmap, opt, scratch);
  return scratch.run;
}

const LayerRun& run_encode_layer(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 const snn::Tensor& padded_image,
                                 snn::Tensor& membrane, const RunOptions& opt,
                                 KernelScratch& scratch) {
  encode_functional(spec, weights, padded_image, membrane, scratch);
  encode_timing(spec, opt, scratch);
  return scratch.run;
}

}  // namespace spikestream::kernels
