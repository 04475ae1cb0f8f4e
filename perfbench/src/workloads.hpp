// The benchmark's workloads and the pieces they share: the calibrated
// networks and engine configurations, the modeled-statistics summary, the
// paper-fidelity pass, the golden-reference check and the traced engine
// stepping that gives the per-layer host numbers.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "kernels/layer_kernels.hpp"
#include "runtime/backend.hpp"
#include "runtime/engine.hpp"
#include "snn/network.hpp"
#include "snn/tensor.hpp"
#include "trace.hpp"

namespace perfbench {

namespace snn = spikestream::snn;
namespace kernels = spikestream::kernels;
namespace runtime = spikestream::runtime;

/// Samples per offline batch and the S-VGG11 segment-major wave width.
inline constexpr std::size_t kBatch = 8;

// --- networks and configurations --------------------------------------------

/// The figure benches' calibrated S-VGG11 (weights from seed 1, thresholds
/// calibrated to the paper's firing-rate profile). Independent of --seed:
/// the seed only draws the inputs.
snn::Network calibrated_svgg11();
/// The calibrated deep tower (16 layers on 6x6x3 inputs).
snn::Network calibrated_deep_tower();

/// SpikeStream FP16 with segment-major FC waves of kBatch lanes and
/// batch-level weight-tile reuse.
kernels::RunOptions svgg11_options();
/// SpikeStream FP16 priced against the banked DRAM model.
kernels::RunOptions tower_options();
/// 8 modeled clusters, hybrid partition, planner-chosen execution mode,
/// ring-quadrant NoC with contention, shards executed serially on the host.
runtime::BackendConfig tower_backend();

// --- modeled statistics -------------------------------------------------------

/// Layer kinds the per-layer metrics are grouped by.
enum KindIdx { kEnc = 0, kConv = 1, kFc = 2, kKinds = 3 };
KindIdx kind_of(const snn::LayerSpec& spec);
const char* kind_name(KindIdx k);

/// Per-sample modeled figures of one executed batch. Deterministic for a
/// given engine configuration and inputs.
struct Modeled {
  double cycles_per_sample = 0;  ///< stage timeline when pipelined
  double energy_uj_per_sample = 0;
  double dma_mb_per_sample = 0;
  double fpu_util = 0;  ///< network FPU ops over (cycles x cores)
  std::array<double, kKinds> cycles{};     ///< per sample, by layer kind
  std::array<double, kKinds> util{};       ///< mean over layers of the kind
  std::array<double, kKinds> energy_uj{};  ///< per sample, by layer kind
  double compute_cycles = 0, dma_cycles = 0, dma_hidden_cycles = 0;
  double dma_saved_mb = 0, row_hit_rate = 0, noc_mb = 0;
  double noc_contention_cycles = 0, fifo_stall_cycles = 0;
  double stage_service = 0, stage_stall = 0, stage_idle = 0;  ///< per sample
  int stages = 0;  ///< planned pipeline stages (0 without a sharded plan)
  std::vector<double> layer_cycles;  ///< per network layer, per sample
};
Modeled summarize_modeled(const runtime::InferenceEngine& eng,
                          const std::vector<runtime::InferenceResult>& batch);
void report_modeled_end_to_end(Report& rep, const Modeled& m);
void report_modeled_per_layer(Report& rep, const Modeled& m);

/// |ours / paper - 1| for the end-to-end SpikeStream FP16 over baseline
/// FP16 speedup (paper: 4.39x) and the layer-average SpikeStream FP16 FPU
/// utilization (paper: 52.3 %), from one untimed modeled-only pass over the
/// seed's S-VGG11 batch with the Fig. 3c options.
struct PaperErrors {
  double speedup = 0, util = 0;
  double speedup_error = 0, util_error = 0;
};
PaperErrors paper_errors(const snn::Network& svgg11,
                         const std::vector<snn::Tensor>& images);
void report_paper(Report& rep, const PaperErrors& p);

/// Run every image through snn::Reference on the engine's quantized network
/// and compare its final output spikes with `outputs[i]`. Returns how many
/// differ.
std::size_t reference_mismatches(const runtime::InferenceEngine& eng,
                                 const std::vector<snn::Tensor>& images,
                                 const std::vector<snn::SpikeMap>& outputs);

// --- traced engine stepping ---------------------------------------------------

/// Per-sample host time of the engine's layers and their phases, from spans
/// around InferenceEngine::begin_sample/run_layer stepping and a replay of
/// each layer's captured input through CsrIfmap::encode_into and the
/// kernels' functional and timing passes.
struct LayerTrace {
  double sample_us = 0;  ///< whole-sample span
  std::array<double, kKinds> layer_us{};  ///< run_layer spans by layer kind
  double encode_us = 0, functional_us = 0, timing_us = 0;
  double handoff_us = 0;   ///< run_layer total minus the three phases
  double fc_batch_us = 0;  ///< FC layers through run_layer_batch, per sample
  double overhead_ratio = 0;  ///< traced over untraced sample time
  double reconcile_error = 0;
  std::vector<double> layer_total_us;  ///< per network layer
  std::uint64_t samples = 0;
};
LayerTrace trace_engine_layers(const runtime::InferenceEngine& eng,
                               const std::vector<snn::Tensor>& images,
                               double seconds, Tracer& tr, Report& rep);
void report_layer_trace(Report& rep, const LayerTrace& t);

/// Print the per-network-layer detail of a traced run (host and modeled).
void print_layer_table(const runtime::InferenceEngine& eng,
                       const LayerTrace& t, const Modeled& m);

// --- workloads ----------------------------------------------------------------

/// svgg11-offline and tower8-hybrid: closed-loop batches through a
/// one-worker BatchRunner.
Report run_offline(const Args& args, Tracer* tr);
/// svgg11-serve: open-loop Poisson load on an InferenceServer.
Report run_serve(const Args& args, Tracer* tr);

}  // namespace perfbench
