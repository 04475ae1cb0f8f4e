// Batch inference runner: amortizes network copy + weight quantization across
// a batch of samples (both happen exactly once, at construction) and runs the
// samples concurrently on a shared immutable engine — each worker slot owns
// one snn::NetworkState (cleared between samples, its scratch arenas reused),
// so per-sample membrane dynamics stay fully independent and the outputs are
// bit-identical to a serial run, whatever the worker count. Lane states are
// built fresh on every call, so no call inherits weight residency from an
// earlier one: with RunOptions::batch_weight_reuse each call's first sample
// per lane is cold, and repeated calls return identical modeled stats.
//
// Samples fan out on the engine's persistent WorkerPool — the same threads
// the sharded backend fans its per-layer shards out on — so batch x shard
// parallelism can never oversubscribe the host and no thread is ever spawned
// per call.
//
// Segment-major lockstep: with RunOptions::segment_major_lanes >= 2 the
// runner switches from sample fan-out to lockstep waves — up to that many
// samples advance through the network layer by layer *together* in one
// InferenceEngine::run_wave call per chunk (the same loop the server drives,
// with no layer hooks), handing all wave lanes to the backend in one call
// per segmented FC layer, so each fan-in weight band streams once per wave
// instead of once per sample. Non-FC layers of a wave still
// fan out across the pool. Outputs and modeled stats stay bit-identical to
// the per-sample path (the segment-major accounting is deterministic
// per-sample, independent of the execution schedule).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/function_ref.hpp"
#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"

namespace spikestream::common {
class WorkerPool;
}  // namespace spikestream::common

namespace spikestream::runtime {


class BatchRunner {
 public:
  /// `workers` = 0 picks std::thread::hardware_concurrency(); explicit
  /// counts are clamped to it.
  BatchRunner(const snn::Network& net, const kernels::RunOptions& opt,
              const BackendConfig& backend = {},
              const arch::EnergyParams& energy = {}, int workers = 0);
  ~BatchRunner();

  /// `timesteps` LIF steps per image (constant-current coding). Results are
  /// in input order and independent of the worker count.
  std::vector<MultiStepResult> run(const std::vector<snn::Tensor>& images,
                                   int timesteps = 1) const;

  /// Single-timestep variant keeping the full per-layer metrics per sample.
  std::vector<InferenceResult> run_single_step(
      const std::vector<snn::Tensor>& images) const;

  const InferenceEngine& engine() const { return engine_; }
  int workers() const { return workers_; }

 private:
  /// Where one timestep of sample `i` writes its result: `slot` is the
  /// worker slot (fan-out) or wave lane (lockstep) running it.
  using StepOut = common::FunctionRef<InferenceResult&(std::size_t slot,
                                                       std::size_t i)>;
  /// Called after each finished timestep of sample `i`.
  using StepDone =
      common::FunctionRef<void(std::size_t i, const InferenceResult& step)>;

  /// True when the engine's options ask for segment-major lockstep waves.
  bool lockstep() const;
  /// Slots the schedule engages for an `n`-sample batch: worker slots for
  /// fan-out, the wave width for lockstep waves.
  std::size_t slots(std::size_t n) const;

  /// Run `timesteps` steps of every image on the schedule lockstep()
  /// picks, over one fresh NetworkState per slot (so no call inherits
  /// weight residency from an earlier one). Each sample starts from cleared
  /// membranes.
  void run_steps(const std::vector<snn::Tensor>& images, int timesteps,
                 StepOut out, StepDone done) const;
  /// Sample fan-out: worker slots claim whole samples from the pool.
  void run_fan_out(const std::vector<snn::Tensor>& images, int timesteps,
                   std::vector<snn::NetworkState>& states, StepOut out,
                   StepDone done) const;
  /// Lockstep waves: chunks of up to slots(n) samples, one run_wave each.
  void run_waves(const std::vector<snn::Tensor>& images, int timesteps,
                 std::vector<snn::NetworkState>& states, StepOut out,
                 StepDone done) const;

  InferenceEngine engine_;
  int workers_;
  std::shared_ptr<common::WorkerPool> pool_;
};

}  // namespace spikestream::runtime
