// Pluggable execution backends: one interface, three performance models.
//
//  * AnalyticalBackend    — the layer-granular mechanistic cost model
//    (kernels/layer_kernels + kernels/cost_model), the path every figure
//    bench uses. Fast: one network timestep costs microseconds of host time.
//  * CycleAccurateBackend — the same functional math, but per-layer timing is
//    re-anchored by running the paper's inner loops on the cycle-level
//    `arch::Cluster` ISS (what tests/test_model_vs_iss.cpp did ad hoc).
//  * ShardedBackend       — partitions each layer across N simulated clusters
//    (kernels/partition.hpp picks the shard axis), runs the shards on the
//    persistent worker pool and merges the per-cluster KernelStats:
//    wall-clock takes the max, activity sums.
//
// All backends compute bit-identical spikes (they share one functional pass
// contract); they differ only in the timing/energy attribution. Backends are
// immutable after construction and safe to share across threads — per-sample
// state (membranes AND the scratch arenas every run borrows) lives in
// snn::NetworkState; a kernels::LayerScratch is threaded through each call so
// steady-state execution allocates nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "arch/noc.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/layer_kernels.hpp"
#include "kernels/partition.hpp"
#include "kernels/scratch.hpp"
#include "snn/network.hpp"
#include "snn/tensor.hpp"

namespace spikestream::snn {
class NetworkState;
}

namespace spikestream::common {
class WorkerPool;
}  // namespace spikestream::common

namespace spikestream::runtime {


enum class BackendKind {
  kAnalytical,     ///< mechanistic cost model (default, fastest)
  kCycleAccurate,  ///< ISS-calibrated per-layer timing
  kSharded,        ///< N-cluster tile partition with thread workers
};

const char* backend_name(BackendKind k);

struct BackendConfig {
  BackendKind kind = BackendKind::kAnalytical;
  /// ShardedBackend: number of simulated clusters a layer is split across.
  int clusters = 4;
  /// ShardedBackend: use the persistent worker pool on the host. A conv or
  /// encode layer's single functional pass then splits into contiguous
  /// output-row bands, one per simulated cluster (capped at the output
  /// rows), and the clusters' timing passes fan out too. The bands follow
  /// the host, not the partition plan. False = one serial call per layer,
  /// useful for debugging. Spikes and modeled stats are bit-identical
  /// either way.
  bool shard_threads = true;
  /// ShardedBackend: host-side fan-out cutoff. A layer with fewer output
  /// elements than this runs its functional pass as one call and prices its
  /// clusters serially on the submitting thread even with shard_threads on:
  /// for small layers the pool handoff and worker wakeups cost more host
  /// time than the work itself. FC layers have one output row and never
  /// band. Only host wall-clock changes.
  int shard_min_work = 32 * 1024;
  /// ShardedBackend: how layers are split across clusters (see
  /// kernels/partition.hpp). The default reproduces the historical
  /// output-channel tiling exactly.
  kernels::PartitionStrategy partition =
      kernels::PartitionStrategy::kOutputChannel;
  /// ShardedBackend: inter-cluster interconnect model. Traffic is always
  /// counted (KernelStats::noc_bytes, priced by the energy model); enabling
  /// `noc.model_contention` additionally lets it gate layer wall-clock.
  arch::NocParams noc;
  /// ShardedBackend: stage-parallel pipelining (see kernels::PipelineConfig).
  /// When enabled, prepare() partitions the network's layers into pipeline
  /// stages over cluster groups (or keeps one data-parallel stage when that
  /// costs less), prices each layer at its group width and charges the
  /// boundary FIFO handoffs. Off by default (historical behavior, bit-exact).
  kernels::PipelineConfig pipeline;
  /// CycleAccurateBackend: SpVAs per ISS calibration run (larger = tighter
  /// amortization of the microkernel prologue, slower calibration).
  int iss_sample_spvas = 32;
};

/// One in-flight sample's borrowed buffers for a batch-scope FC call (see
/// ExecutionBackend::run_fc_batch): its compressed input, its persistent
/// membrane, and the per-layer scratch arena its results land in. Shared
/// with the kernel layer so batch-scope calls pass the caller's lane array
/// straight through, no per-call marshalling.
using FcBatchLane = kernels::FcBatchLane;

class ExecutionBackend {
 public:
  explicit ExecutionBackend(const kernels::RunOptions& opt) : opt_(opt) {}
  virtual ~ExecutionBackend() = default;

  ExecutionBackend(const ExecutionBackend&) = delete;
  ExecutionBackend& operator=(const ExecutionBackend&) = delete;

  virtual const char* name() const = 0;
  /// Simulated clusters one layer is spread across (1 except for sharding).
  virtual int num_clusters() const { return 1; }

  /// Called once per engine construction with the quantized network: lets a
  /// backend precompute per-layer state (the sharded backend builds its
  /// ShardPlan here, so partition choices are made once per network, not per
  /// run). Must be idempotent and thread-safe; the default does nothing.
  virtual void prepare(const snn::Network& net) const { (void)net; }

  /// Pre-size the per-layer scratch arenas of a freshly built NetworkState
  /// for this backend's execution shape (e.g. one shard lane per planned
  /// cluster), so even the first run fans out without growing vectors. The
  /// base implementation reserves the occupancy-dependent buffers (the CSR
  /// index arena, the hoisted weight-row pointer list) for each layer's
  /// zero-sparsity worst case: steady-state execution then stays allocation-
  /// free even when a late timestep pushes occupancy to a new maximum.
  /// Overrides should call it before adding their own shaping.
  virtual void presize_state(snn::NetworkState& state,
                             const snn::Network& net) const;

  const kernels::RunOptions& options() const { return opt_; }

  // Per-layer execution. `membrane` is the layer's persistent neuron state
  // (output-shaped) and is updated in place; `scratch` is the borrowed arena
  // all buffers live in — the returned reference aliases `scratch.main.run`
  // and is valid until the next run on the same scratch. Implementations must
  // be safe to call concurrently from multiple threads as long as each call
  // uses a distinct scratch (BatchRunner shares one backend across all sample
  // workers, one NetworkState each).
  virtual const kernels::LayerRun& run_encode(
      const snn::LayerSpec& spec, const snn::LayerWeights& weights,
      const snn::Tensor& padded_image, snn::Tensor& membrane,
      kernels::LayerScratch& scratch) const = 0;
  virtual const kernels::LayerRun& run_conv(
      const snn::LayerSpec& spec, const snn::LayerWeights& weights,
      const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
      kernels::LayerScratch& scratch) const = 0;
  virtual const kernels::LayerRun& run_fc(
      const snn::LayerSpec& spec, const snn::LayerWeights& weights,
      const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
      kernels::LayerScratch& scratch) const = 0;

  // Batch-scope FC execution: run one FC layer for every lane of a lockstep
  // batch in a single call, so a backend that understands the segment-major
  // schedule (RunOptions::segment_major_lanes) can stream each weight band
  // once across all lanes instead of once per sample. The contract is
  // strict: spikes AND modeled stats must be bit-identical to calling
  // run_fc once per lane in order — the segment-major *accounting* is
  // per-sample deterministic (amortized batch means, charged by the timing
  // pass whether or not this hook runs), so the hook only changes host-side
  // execution order/locality. The default implementation is that per-lane
  // loop; each lane's scratch/membrane must be distinct.
  virtual void run_fc_batch(const snn::LayerSpec& spec,
                            const snn::LayerWeights& weights,
                            std::span<const FcBatchLane> lanes) const;

  // One-shot conveniences (tests / benches): run with a private scratch and
  // return the result by value.
  kernels::LayerRun run_encode(const snn::LayerSpec& spec,
                               const snn::LayerWeights& weights,
                               const snn::Tensor& padded_image,
                               snn::Tensor& membrane) const {
    kernels::LayerScratch s;
    run_encode(spec, weights, padded_image, membrane, s);
    return std::move(s.main.run);
  }
  kernels::LayerRun run_conv(const snn::LayerSpec& spec,
                             const snn::LayerWeights& weights,
                             const compress::CsrIfmap& ifmap,
                             snn::Tensor& membrane) const {
    kernels::LayerScratch s;
    run_conv(spec, weights, ifmap, membrane, s);
    return std::move(s.main.run);
  }
  kernels::LayerRun run_fc(const snn::LayerSpec& spec,
                           const snn::LayerWeights& weights,
                           const compress::CsrIfmap& ifmap,
                           snn::Tensor& membrane) const {
    kernels::LayerScratch s;
    run_fc(spec, weights, ifmap, membrane, s);
    return std::move(s.main.run);
  }

 protected:
  kernels::RunOptions opt_;
};

/// The seed's hard-wired analytical path, now one backend among several.
class AnalyticalBackend : public ExecutionBackend {
 public:
  explicit AnalyticalBackend(const kernels::RunOptions& opt)
      : ExecutionBackend(opt) {}

  const char* name() const override { return "analytical"; }

  const kernels::LayerRun& run_encode(
      const snn::LayerSpec& spec, const snn::LayerWeights& weights,
      const snn::Tensor& padded_image, snn::Tensor& membrane,
      kernels::LayerScratch& scratch) const override;
  const kernels::LayerRun& run_conv(const snn::LayerSpec& spec,
                                    const snn::LayerWeights& weights,
                                    const compress::CsrIfmap& ifmap,
                                    snn::Tensor& membrane,
                                    kernels::LayerScratch& scratch)
      const override;
  const kernels::LayerRun& run_fc(const snn::LayerSpec& spec,
                                  const snn::LayerWeights& weights,
                                  const compress::CsrIfmap& ifmap,
                                  snn::Tensor& membrane,
                                  kernels::LayerScratch& scratch)
      const override;

  /// Segment-major batch-scope FC: one band-major functional sweep over all
  /// lanes (kernels::fc_functional_batch), then the exact per-lane timing
  /// pass — bit-identical to the per-lane default by construction.
  void run_fc_batch(const snn::LayerSpec& spec,
                    const snn::LayerWeights& weights,
                    std::span<const FcBatchLane> lanes) const override;

  using ExecutionBackend::run_conv;
  using ExecutionBackend::run_encode;
  using ExecutionBackend::run_fc;

 protected:
  /// FC timing tail shared by run_fc and run_fc_batch: the timing pass over
  /// the spikes the functional pass just wrote into `scratch.main`. Virtual
  /// so the cycle-accurate backend can append its ISS re-anchoring and
  /// batch-scope calls stay correct through one code path.
  virtual void time_fc(const snn::LayerSpec& spec,
                       const compress::CsrIfmap& ifmap,
                       kernels::LayerScratch& scratch) const;
};

/// Instantiate a backend from a config. `pool` is the persistent worker pool
/// a sharded backend should fan its shards out on (shared with the batch
/// runner when the engine provides one); null lets the backend create its
/// own. Non-sharded backends ignore it.
std::unique_ptr<ExecutionBackend> make_backend(
    const kernels::RunOptions& opt, const BackendConfig& cfg = {},
    std::shared_ptr<common::WorkerPool> pool = nullptr);

}  // namespace spikestream::runtime
