#include "runtime/batch.hpp"

#include <algorithm>
#include <span>
#include <thread>

#include "common/worker_pool.hpp"

namespace spikestream::runtime {

BatchRunner::BatchRunner(const snn::Network& net,
                         const kernels::RunOptions& opt,
                         const BackendConfig& backend,
                         const arch::EnergyParams& energy, int workers)
    : engine_(net, opt, backend, energy),
      workers_(common::WorkerPool::clamp_to_hardware(
          workers > 0
              ? workers
              : static_cast<int>(std::thread::hardware_concurrency()))),
      pool_(engine_.worker_pool()) {
  // Sample fan-out and shard fan-out share one set of threads, so batch
  // workers can no longer oversubscribe the host whatever the backend; when
  // the engine's backend never threads, the runner brings its own pool.
  if (pool_ == nullptr && workers_ > 1) {
    pool_ = std::make_shared<common::WorkerPool>(workers_ - 1);
  }
}

BatchRunner::~BatchRunner() = default;

std::vector<MultiStepResult> BatchRunner::run(
    const std::vector<snn::Tensor>& images, int timesteps) const {
  std::vector<MultiStepResult> results(images.size());
  for (MultiStepResult& r : results) r.timesteps = timesteps;
  // Per-slot timestep buffers, reused across samples and timesteps.
  std::vector<InferenceResult> steps(slots(images.size()));
  run_steps(
      images, timesteps,
      [&](std::size_t slot, std::size_t) -> InferenceResult& {
        return steps[slot];
      },
      [&](std::size_t i, const InferenceResult& step) {
        results[i].accumulate_step(step);
      });
  return results;
}

std::vector<InferenceResult> BatchRunner::run_single_step(
    const std::vector<snn::Tensor>& images) const {
  std::vector<InferenceResult> results(images.size());
  run_steps(
      images, /*timesteps=*/1,
      [&](std::size_t, std::size_t i) -> InferenceResult& {
        return results[i];
      },
      [](std::size_t, const InferenceResult&) {});
  return results;
}

bool BatchRunner::lockstep() const {
  return engine_.options().segment_major_lanes > 1;
}

std::size_t BatchRunner::slots(std::size_t n) const {
  const int width =
      lockstep() ? engine_.options().segment_major_lanes : workers_;
  return std::min(std::max<std::size_t>(n, 1),
                  static_cast<std::size_t>(width));
}

void BatchRunner::run_steps(const std::vector<snn::Tensor>& images,
                            int timesteps, StepOut out, StepDone done) const {
  if (images.empty() || timesteps <= 0) return;
  std::vector<snn::NetworkState> states(slots(images.size()));
  for (snn::NetworkState& s : states) s = engine_.make_state();
  if (lockstep()) {
    run_waves(images, timesteps, states, out, done);
  } else {
    run_fan_out(images, timesteps, states, out, done);
  }
}

// Each worker slot keeps one NetworkState for the whole batch: membranes are
// cleared between samples while the scratch arenas inside stay warm, so every
// sample after the first runs allocation-free.
void BatchRunner::run_fan_out(const std::vector<snn::Tensor>& images,
                              int timesteps,
                              std::vector<snn::NetworkState>& states,
                              StepOut out, StepDone done) const {
  auto sample = [&](std::size_t slot, std::size_t i) {
    snn::NetworkState& state = states[slot];
    state.clear();
    InferenceResult& step = out(slot, i);
    for (int t = 0; t < timesteps; ++t) {
      engine_.run(images[i], state, step);
      done(i, step);
    }
  };
  if (states.size() <= 1 || pool_ == nullptr) {
    for (std::size_t i = 0; i < images.size(); ++i) sample(0, i);
    return;
  }
  pool_->parallel_for(images.size(), states.size(), sample);
}

// Wave lanes own one NetworkState each; InferenceEngine::run_wave advances
// a chunk of up to W samples through the network layer by layer together.
void BatchRunner::run_waves(const std::vector<snn::Tensor>& images,
                            int timesteps,
                            std::vector<snn::NetworkState>& states,
                            StepOut out, StepDone done) const {
  const std::size_t n = images.size();
  const std::size_t W = states.size();
  std::vector<InferenceEngine::BatchLane> lanes(W);
  for (std::size_t w0 = 0; w0 < n; w0 += W) {
    const std::size_t wn = std::min(W, n - w0);
    for (std::size_t i = 0; i < wn; ++i) {
      lanes[i] = {&images[w0 + i], nullptr, &states[i], &out(i, w0 + i)};
    }
    engine_.run_wave(std::span(lanes.data(), wn), timesteps, pool_.get(),
                     [&](int) {
                       for (std::size_t i = 0; i < wn; ++i) {
                         done(w0 + i, *lanes[i].out);
                       }
                     });
  }
}

}  // namespace spikestream::runtime
