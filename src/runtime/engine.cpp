#include "runtime/engine.hpp"

#include <thread>

#include "common/check.hpp"
#include "common/worker_pool.hpp"
#include "compress/aer.hpp"
#include "compress/csr_ifmap.hpp"
#include "snn/reference.hpp"

namespace spikestream::runtime {

namespace {

/// The engine creates the persistent pool its backend (and any BatchRunner
/// on top) fans out on — one clamped set of threads for both the per-layer
/// shard level and the per-sample batch level, so the two can never
/// oversubscribe the host. Backends that never thread get no pool.
std::shared_ptr<common::WorkerPool> pool_for(const BackendConfig& cfg) {
  if (cfg.kind == BackendKind::kSharded && cfg.shard_threads) {
    return std::make_shared<common::WorkerPool>(
        static_cast<int>(std::thread::hardware_concurrency()) - 1);
  }
  return nullptr;
}

}  // namespace

InferenceEngine::InferenceEngine(const snn::Network& net,
                                 const kernels::RunOptions& opt,
                                 const arch::EnergyParams& energy)
    : InferenceEngine(net, opt, BackendConfig{}, energy) {}

InferenceEngine::InferenceEngine(const snn::Network& net,
                                 const kernels::RunOptions& opt,
                                 const BackendConfig& backend,
                                 const arch::EnergyParams& energy)
    : net_(net),
      pool_(pool_for(backend)),
      backend_(make_backend(opt, backend, pool_)),
      energy_(energy) {
  init();
}

InferenceEngine::InferenceEngine(const snn::Network& net,
                                 std::shared_ptr<ExecutionBackend> backend,
                                 const arch::EnergyParams& energy)
    : net_(net), backend_(std::move(backend)), energy_(energy) {
  init();
}

void InferenceEngine::init() {
  SPK_CHECK(backend_ != nullptr, "InferenceEngine: null backend");
  net_.quantize_weights(backend_->options().fmt);
  backend_->prepare(net_);  // partition plans live beside the weights
  state_.reshape(net_);
  backend_->presize_state(state_, net_);
}

void InferenceEngine::reset() { state_.clear(); }

InferenceResult InferenceEngine::run(const snn::Tensor& image) {
  return run(image, state_);
}

InferenceResult InferenceEngine::run_events(const snn::SpikeMap& events) {
  return run_events(events, state_);
}

InferenceResult InferenceEngine::run(const snn::Tensor& image,
                                     snn::NetworkState& state) const {
  InferenceResult out;
  run(image, state, out);
  return out;
}

InferenceResult InferenceEngine::run_events(const snn::SpikeMap& events,
                                            snn::NetworkState& state) const {
  InferenceResult out;
  run_events(events, state, out);
  return out;
}

void InferenceEngine::run(const snn::Tensor& image, snn::NetworkState& state,
                          InferenceResult& out) const {
  run_impl(&image, nullptr, state, out);
}

void InferenceEngine::run_events(const snn::SpikeMap& events,
                                 snn::NetworkState& state,
                                 InferenceResult& out) const {
  SPK_CHECK(net_.num_layers() > 0 &&
                net_.layer(0).kind != snn::LayerKind::kEncodeConv,
            "event input requires a network without an encode layer");
  run_impl(nullptr, &events, state, out);
}

void InferenceEngine::begin_sample(InferenceResult& out) const {
  out.layers.resize(net_.num_layers());
  out.total_cycles = 0;
  out.total_energy_mj = 0;
}

const compress::CsrIfmap& InferenceEngine::encode_layer_input(
    std::size_t l, const snn::SpikeMap& carry, snn::NetworkState& state,
    InferenceResult& out) const {
  const snn::LayerSpec& spec = net_.layer(l);
  kernels::LayerScratch& scratch = state.scratch(l);
  LayerMetrics& m = out.layers[l];
  m.name = spec.name;
  compress::CsrIfmap& csr = scratch.csr;
  compress::CsrIfmap::encode_into(carry, csr);
  // Footprints and firing rates come straight from the CSR counts — the
  // AER event list is never materialized on the hot path.
  m.csr_bytes = static_cast<double>(csr.footprint_bytes());
  m.aer_bytes = static_cast<double>(compress::AerEvents::footprint_from_count(
      csr.nnz(), spec.kind != snn::LayerKind::kFc));
  m.in_firing_rate = carry.size() ? static_cast<double>(csr.nnz()) /
                                        static_cast<double>(carry.size())
                                  : 0.0;
  return csr;
}

const snn::SpikeMap* InferenceEngine::finish_layer(
    std::size_t l, const kernels::LayerRun& lr, snn::NetworkState& state,
    InferenceResult& out) const {
  const kernels::RunOptions& opt = backend_->options();
  const snn::LayerSpec& spec = net_.layer(l);
  kernels::LayerScratch& scratch = state.scratch(l);
  LayerMetrics& m = out.layers[l];
  m.out_firing_rate =
      lr.out_spikes.size() ? static_cast<double>(lr.out_nnz) /
                                 static_cast<double>(lr.out_spikes.size())
                           : 0.0;
  m.stats = lr.stats;
  m.energy = arch::compute_energy(energy_, lr.stats.to_activity(), opt.fmt);
  m.power_w = arch::average_power_w(energy_, lr.stats.to_activity(), opt.fmt);
  out.total_cycles += lr.stats.cycles;
  out.total_energy_mj += m.energy.total_mj();

  // Route spikes to the next layer exactly like the reference, through the
  // scratch-owned pool/pad/flatten buffers.
  const snn::SpikeMap* next = &lr.out_spikes;
  if (spec.pool_after) {
    snn::or_pool2_into(*next, scratch.pooled);
    next = &scratch.pooled;
  }
  if (l + 1 < net_.num_layers()) {
    if (net_.layer(l + 1).kind == snn::LayerKind::kFc) {
      snn::flatten_into(*next, scratch.routed);
    } else {
      snn::pad_into(*next, spec.pad_next, scratch.routed);
    }
    return &scratch.routed;
  }
  out.final_output = lr.out_spikes;
  return nullptr;
}

const snn::SpikeMap* InferenceEngine::run_layer(std::size_t l,
                                                const snn::Tensor* image,
                                                const snn::SpikeMap* carry,
                                                snn::NetworkState& state,
                                                InferenceResult& out) const {
  SPK_CHECK(state.num_layers() == net_.num_layers(),
            "NetworkState does not match this network (use make_state())");
  const kernels::RunOptions& opt = backend_->options();
  const snn::LayerSpec& spec = net_.layer(l);
  const snn::LayerWeights& w = net_.weights(l);
  snn::Tensor& membrane = state.membrane(l);
  kernels::LayerScratch& scratch = state.scratch(l);

  const kernels::LayerRun* lr = nullptr;
  if (spec.kind == snn::LayerKind::kEncodeConv) {
    SPK_CHECK(image != nullptr, "encode layer needs a dense image input");
    LayerMetrics& m = out.layers[l];
    m.name = spec.name;
    snn::Reference::pad_dense_into(*image, (spec.in_h - image->h) / 2,
                                   scratch.padded);
    lr = &backend_->run_encode(spec, w, scratch.padded, membrane, scratch);
    // Layer-1 ifmap is a dense RGB tensor: report its dense HWC size as
    // "ours" and the event-per-pixel AER equivalent as the AER column.
    const double px = static_cast<double>(spec.in_h) * spec.in_w * spec.in_c;
    m.csr_bytes = px * common::fp_bytes(opt.fmt);
    m.aer_bytes = px * 8.0;
    m.in_firing_rate = 1.0;
  } else {
    SPK_CHECK(carry != nullptr, "layer " << spec.name << ": no input");
    const compress::CsrIfmap& csr = encode_layer_input(l, *carry, state, out);
    if (spec.kind == snn::LayerKind::kConv) {
      lr = &backend_->run_conv(spec, w, csr, membrane, scratch);
    } else {
      lr = &backend_->run_fc(spec, w, csr, membrane, scratch);
    }
  }
  return finish_layer(l, *lr, state, out);
}

void InferenceEngine::run_layer_batch(std::size_t l,
                                      std::span<BatchLane> lanes,
                                      common::WorkerPool* pool) const {
  const snn::LayerSpec& spec = net_.layer(l);
  const bool batched_fc = spec.kind == snn::LayerKind::kFc &&
                          lanes.size() > 1 &&
                          backend_->options().segment_major_lanes > 1;
  if (batched_fc) {
    // Per-lane input compression, one batch-scope kernel call, per-lane
    // metric/routing tails — all lanes advance through this layer together.
    // thread_local so the steady state reuses capacity (the batched path
    // never nests: the FC batch call does not recurse into layer stepping).
    static thread_local std::vector<FcBatchLane> fc;
    fc.assign(lanes.size(), FcBatchLane{});
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      BatchLane& lane = lanes[i];
      SPK_CHECK(lane.carry != nullptr,
                "layer " << spec.name << ": no input (lane " << i << ")");
      fc[i].ifmap =
          &encode_layer_input(l, *lane.carry, *lane.state, *lane.out);
      fc[i].membrane = &lane.state->membrane(l);
      fc[i].scratch = &lane.state->scratch(l);
    }
    backend_->run_fc_batch(spec, net_.weights(l), fc);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].carry = finish_layer(l, lanes[i].state->scratch(l).main.run,
                                    *lanes[i].state, *lanes[i].out);
    }
    return;
  }
  auto step_lane = [&](BatchLane& lane) {
    lane.carry = run_layer(l, lane.image, lane.carry, *lane.state, *lane.out);
  };
  if (pool != nullptr && lanes.size() > 1) {
    pool->parallel_for(lanes.size(), lanes.size(),
                       [&](std::size_t, std::size_t i) {
                         step_lane(lanes[i]);
                       });
  } else {
    for (BatchLane& lane : lanes) step_lane(lane);
  }
}

void InferenceEngine::run_wave(std::span<BatchLane> lanes, int timesteps,
                               common::WorkerPool* pool,
                               common::FunctionRef<void(int t)> step_done,
                               const WaveHooks* hooks) const {
  for (BatchLane& lane : lanes) lane.state->clear();
  for (int t = 0; t < timesteps; ++t) {
    for (BatchLane& lane : lanes) {
      begin_sample(*lane.out);
      lane.carry = nullptr;
    }
    for (std::size_t l = 0; l < net_.num_layers(); ++l) {
      if (hooks != nullptr) hooks->before_layer(t, l);
      run_layer_batch(l, lanes, pool);
      if (hooks != nullptr) hooks->after_layer(t, l);
    }
    step_done(t);
  }
}

void InferenceEngine::run_impl(const snn::Tensor* image,
                               const snn::SpikeMap* events,
                               snn::NetworkState& state,
                               InferenceResult& out) const {
  begin_sample(out);
  // Spikes flowing into the next layer. Points at the previous layer's
  // `routed` scratch buffer (or the caller's event map for layer 0), so the
  // carry is never copied.
  const snn::SpikeMap* carry = events;
  for (std::size_t l = 0; l < net_.num_layers(); ++l) {
    carry = run_layer(l, image, carry, state, out);
  }
}

}  // namespace spikestream::runtime
