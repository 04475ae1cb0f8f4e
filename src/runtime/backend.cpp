#include "runtime/backend.hpp"

#include "common/check.hpp"
#include "runtime/backend_cycle.hpp"
#include "runtime/backend_sharded.hpp"
#include "snn/state.hpp"

namespace spikestream::runtime {

const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::kAnalytical: return "analytical";
    case BackendKind::kCycleAccurate: return "cycle-accurate";
    case BackendKind::kSharded: return "sharded";
  }
  return "?";
}

void ExecutionBackend::run_fc_batch(const snn::LayerSpec& spec,
                                    const snn::LayerWeights& weights,
                                    std::span<const FcBatchLane> lanes) const {
  for (const FcBatchLane& lane : lanes) {
    run_fc(spec, weights, *lane.ifmap, *lane.membrane, *lane.scratch);
  }
}

void ExecutionBackend::presize_state(snn::NetworkState& state,
                                     const snn::Network& net) const {
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const snn::LayerSpec& spec = net.layer(l);
    // An encode layer reads the dense image: its input is never compressed.
    if (spec.kind == snn::LayerKind::kEncodeConv) continue;
    kernels::LayerScratch& scratch = state.scratch(l);
    const std::size_t positions = static_cast<std::size_t>(spec.in_h) *
                                  static_cast<std::size_t>(spec.in_w);
    // Input-compression arena: worst case is every input neuron spiking.
    scratch.csr.reserve(positions, spec.in_c);
  }
}

// ---------------------------------------------------------------------------
// AnalyticalBackend
// ---------------------------------------------------------------------------

const kernels::LayerRun& AnalyticalBackend::run_conv(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  kernels::KernelScratch& ks = scratch.main;
  kernels::conv_functional(spec, weights, ifmap, membrane, ks);
  kernels::conv_timing(spec, ifmap, opt_, ks);
  return ks.run;
}

const kernels::LayerRun& AnalyticalBackend::run_fc(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  kernels::fc_functional(spec, weights, ifmap, membrane, scratch.main);
  time_fc(spec, ifmap, scratch);
  return scratch.main.run;
}

void AnalyticalBackend::time_fc(const snn::LayerSpec& spec,
                                const compress::CsrIfmap& ifmap,
                                kernels::LayerScratch& scratch) const {
  kernels::fc_timing(spec, ifmap, opt_, scratch.main);
}

void AnalyticalBackend::run_fc_batch(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    std::span<const FcBatchLane> lanes) const {
  if (lanes.size() <= 1 || opt_.segment_major_lanes <= 1) {
    ExecutionBackend::run_fc_batch(spec, weights, lanes);
    return;
  }
  // Band-major functional sweep across every lane (the host-side mirror of
  // streaming each weight band into SPM once per batch), then the usual
  // per-lane timing pass — which charges the same deterministic amortized
  // numbers the serial path charges, so this call is bit-identical to the
  // per-lane loop in both spikes and stats.
  kernels::fc_functional_batch(spec, weights, lanes);
  for (const FcBatchLane& lane : lanes) {
    time_fc(spec, *lane.ifmap, *lane.scratch);
  }
}

const kernels::LayerRun& AnalyticalBackend::run_encode(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const snn::Tensor& padded_image, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  kernels::KernelScratch& ks = scratch.main;
  kernels::encode_functional(spec, weights, padded_image, membrane, ks);
  kernels::encode_timing(spec, opt_, ks);
  return ks.run;
}

std::unique_ptr<ExecutionBackend> make_backend(
    const kernels::RunOptions& opt, const BackendConfig& cfg,
    std::shared_ptr<common::WorkerPool> pool) {
  switch (cfg.kind) {
    case BackendKind::kAnalytical:
      return std::make_unique<AnalyticalBackend>(opt);
    case BackendKind::kCycleAccurate:
      return std::make_unique<CycleAccurateBackend>(opt, cfg.iss_sample_spvas);
    case BackendKind::kSharded:
      return std::make_unique<ShardedBackend>(opt, cfg, std::move(pool));
  }
  SPK_CHECK(false, "unknown backend kind");
  return nullptr;
}

}  // namespace spikestream::runtime
