// Multi-cluster sharded backend, rebuilt on the partition-plan subsystem
// (kernels/partition.hpp): each layer is priced according to an immutable
// LayerPlan — output-channel tiles, spatial ifmap stripes, or FC fan-in
// segments — computed once per network at Partitioner::kDefaultDensity
// (cost-model-driven for the hybrid strategy) and cached by layer signature;
// only a cluster fail-stop replaces a plan.
//
// The functional pass never shards. Every layer runs it once over the full
// layer, on the engine's own weights, straight into the engine's membrane
// and scratch.main; the plan then shapes only pricing and NoC traffic. Each
// cluster prices the window of the layer it owns (its channel range, or its
// output-row stripe over the halo'd input rows) straight from the layer's
// output spikes and, for conv, from the one per-layer stream profile — no
// per-cluster copies of spikes or CSR rows. An FC fan-in segment is charged
// for streaming its input-channel band plus an explicit partial-reduction
// tail on the merging cluster. Spikes are therefore
// bit-identical to a single-cluster run for every plan by construction, and
// a weight flipped in the engine's network is seen by every plan at once.
//
// Host threading is independent of the plan: with shard_threads on, a conv
// or encode layer big enough for the pool splits its functional pass into
// contiguous output-row bands on the persistent WorkerPool (shared with
// BatchRunner when the engine provides one), and the clusters' timing
// passes fan out there too. Per-cluster buffers live in the lanes of the
// borrowed LayerScratch, so steady state performs zero heap allocations in
// both serial and pooled mode.
//
// Per-cluster KernelStats merge with wall-clock = max and activity = sum;
// inter-cluster traffic (broadcast replicas, stripe halos, ofmap gathers,
// partial reductions) is charged per link to an arch::NocModel, recorded in
// KernelStats::noc_bytes and — when NocParams::model_contention is set —
// gates the layer's wall-clock at the bottleneck link instead of assuming a
// perfect fabric.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "arch/noc.hpp"
#include "common/function_ref.hpp"
#include "common/worker_pool.hpp"
#include "kernels/partition.hpp"
#include "runtime/backend.hpp"

namespace spikestream::runtime {

class ShardedBackend : public ExecutionBackend {
 public:
  /// Reads the ShardedBackend fields of `cfg` (clusters, shard_threads,
  /// shard_min_work, partition, noc, pipeline). `pool` = null creates a
  /// private pool sized for the cluster count (when cfg.shard_threads);
  /// passing the engine's pool shares one set of threads between shard
  /// fan-out and batch-sample fan-out. Throws when cfg.clusters exceeds
  /// arch::NocModel::kMaxClusters (the per-cluster fault and link state).
  ShardedBackend(const kernels::RunOptions& opt, const BackendConfig& cfg,
                 std::shared_ptr<common::WorkerPool> pool = nullptr);

  const char* name() const override { return "sharded"; }
  int num_clusters() const override { return clusters_; }
  kernels::PartitionStrategy strategy() const {
    return partitioner_.strategy();
  }
  const arch::NocParams& noc_params() const { return noc_; }
  const kernels::PipelineConfig& pipeline_config() const { return pipeline_; }

  /// The stage assignment prepare() chose (default-constructed — zero stages
  /// — before prepare, or when stage-parallel execution is disabled).
  /// Per-layer runs then price each layer at its stage's group width and
  /// charge the boundary handoffs; the batch-scope FIFO timeline lives in
  /// runtime/stage_pipeline.hpp.
  const kernels::StagePlan& stage_plan() const { return stage_plan_; }
  /// True when prepare() armed a multi-stage pipeline for this network.
  bool stage_parallel_active() const {
    return pipeline_.enabled && stage_plan_.num_stages() > 1;
  }

  /// Plan every layer (and, with pipelining on, pin the stage assignment),
  /// so the plans live alongside the quantized weights from construction on.
  /// Nothing else is built: shards read the engine's weights directly.
  void prepare(const snn::Network& net) const override;
  /// One lane per planned cluster in every sharded layer's scratch.
  void presize_state(snn::NetworkState& state,
                     const snn::Network& net) const override;

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

  using ExecutionBackend::run_conv;
  using ExecutionBackend::run_encode;
  using ExecutionBackend::run_fc;

  /// The (cached) partition plan of one layer. Exposed for benches/tests.
  /// The returned reference is valid until a fail_cluster() swaps this
  /// layer's plan — hold the value, not the ref, across a fault.
  const kernels::LayerPlan& plan_for(const snn::LayerSpec& spec) const;

  // --- fault injection / degraded mode (runtime/faults.hpp) -----------------
  // All const (the backend is shared const on the hot path) and thread-safe:
  // a fail-stop swaps plans in the copy-on-write plan cache, so in-flight
  // waves keep their pinned plans and the next dispatch picks up the
  // degraded ones. Cluster ids below are *active slot* ids: after a
  // fail-stop the survivors are renumbered into the dense
  // [0, active_clusters()) range the re-planned shards execute on.

  /// Fail-stop: mask `cluster` out of the active set and re-pick every
  /// prepared layer's plan over the survivors (stage pipelines re-balance at
  /// the reduced width). Exactly one re-plan pass per accepted fault — see
  /// degrade_replans(). Returns false (and changes nothing) when the cluster
  /// is out of range, already failed, or the last survivor. Completed spikes
  /// are bit-identical across any plan, so only modeled timing degrades.
  bool fail_cluster(int cluster) const;
  /// Straggler: multiply the shard service time of one active cluster slot
  /// by `factor` >= 1 (1 restores full speed).
  void set_cluster_slowdown(int cluster, double factor) const;
  /// Derate one active cluster slot's NoC injection/ejection bandwidth by
  /// `factor` >= 1 (1 restores full width); ring links are unaffected.
  void set_link_degrade(int cluster, double factor) const;

  /// Clusters still in the active set (== num_clusters() when healthy).
  int active_clusters() const {
    return active_clusters_.load(std::memory_order_relaxed);
  }
  int failed_clusters() const { return clusters_ - active_clusters(); }
  /// Degraded-mode re-plan passes completed — exactly one per accepted
  /// fail_cluster(), never more (plans change at no other time).
  int degrade_replans() const {
    return degrade_replans_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-layer stage assignment, filled by prepare() in stage mode. Keyed by
  /// layer signature like the plan cache; read-only after prepare.
  struct StageInfo {
    int stage = 0;
    int cluster_lo = 0;  ///< first cluster of the owning group
    int group = 1;       ///< group width the layer's plan was sized for
    bool boundary = false;       ///< last layer of a non-final stage
    int next_cluster_lo = 0;     ///< consumer group's lead cluster
  };

  /// True when `spec` is big enough for pool fan-out to beat its handoff
  /// overhead (the minimum-work cutoff).
  bool pool_worthwhile(const snn::LayerSpec& spec) const;
  /// Output-row bands the functional pass of `spec` splits into: one per
  /// simulated cluster (capped at the output rows) when threads are on and
  /// the layer is pool-worthwhile, else 1. FC layers have one row.
  std::size_t host_bands(const snn::LayerSpec& spec) const;

  /// Run `fn(shard_index)` for every shard — on the pool when `pooled`,
  /// serially otherwise (bit-identical either way).
  void for_shards(std::size_t n, bool pooled,
                  common::FunctionRef<void(std::size_t)> fn) const;

  /// The whole layer's functional pass into scratch.main and `membrane`.
  /// Conv/encode split into host_bands(spec) row bands; FC is one call.
  /// `ifmap` is null for encode layers, `image` for the others.
  void run_functional(const snn::LayerSpec& spec,
                      const snn::LayerWeights& weights,
                      const compress::CsrIfmap* ifmap,
                      const snn::Tensor* image, snn::Tensor& membrane,
                      kernels::LayerScratch& scratch) const;

  /// Shared body of run_conv / run_fc / run_encode: pin the plan, run the
  /// functional pass once, price the plan's shards, charge a stage handoff.
  const kernels::LayerRun& run_layer(const snn::LayerSpec& spec,
                                     const snn::LayerWeights& weights,
                                     const compress::CsrIfmap* ifmap,
                                     const snn::Tensor* image,
                                     snn::Tensor& membrane,
                                     kernels::LayerScratch& scratch) const;

  /// Merge per-shard stats into `merged` (wall-clock max / activity sum)
  /// and keep the slowest shard's DMA plan; spikes and out_nnz stay the
  /// functional pass's. `base` is the first cluster slot the shards run on:
  /// a slot with an injected slowdown has its shard's wall-clock scaled by
  /// the straggler factor before the max.
  void merge_shard_stats(const kernels::LayerScratch& scratch, std::size_t n,
                         kernels::LayerRun& merged, int base) const;

  /// An empty per-link model of the fabric, with the injected link derates
  /// applied: a pricing site charges one layer's transfers to it, then hands
  /// it to apply_noc.
  arch::NocModel noc_model() const;
  /// Add `model`'s link bytes to st.noc_bytes (each link traversal once: a
  /// multicast is not billed one replica per receiver) and, with contention
  /// modeling on, let the bottleneck link gate the layer's wall-clock (the
  /// raise is itemized in KernelStats::noc_contention_cycles).
  void apply_noc(kernels::KernelStats& st, const arch::NocModel& model) const;

  /// Boundary-layer tail of a pipeline stage: charge the producing group for
  /// packing its output spikes into the inter-stage FIFO and for the handoff
  /// crossing to the consumer group's lead cluster. No-op outside stage mode
  /// (`info` null) and for non-boundary layers.
  void apply_stage_handoff(const snn::LayerSpec& spec, const StageInfo* info,
                           kernels::LayerRun& run) const;

  // The pricing passes below run after run_functional: scratch.main.run
  // holds the full layer's spikes (and scratch.main.profile a conv layer's
  // stream profile), and each cluster's timing pass prices its window of
  // them in place. `base` is the first cluster slot of the executing group.

  /// Output-channel tiles (input broadcast, each cluster prices its
  /// SIMD-aligned channel range, the owner gathers the ofmap slices) and
  /// ifmap stripes (conv and encode: each cluster prices its output-row band
  /// over its halo'd input stripe; neighbors exchange halos).
  void price_windows(const kernels::LayerPlan& plan,
                     const snn::LayerSpec& spec,
                     const compress::CsrIfmap* ifmap,
                     kernels::LayerScratch& scratch, int base) const;
  /// FC fan-in segments: each cluster prices its input-channel band, plus
  /// the partial-sum reduction tail on the merging cluster.
  void price_fc_fanin(const kernels::LayerPlan& plan,
                      const snn::LayerSpec& spec,
                      const compress::CsrIfmap& ifmap,
                      kernels::LayerScratch& scratch, int base) const;

  /// Current plan by copyable handle: the dispatch path pins the plan it
  /// executes with for the whole layer run, so a fail-stop re-plan can swap
  /// in a new plan concurrently without invalidating in-flight shards
  /// (copy-on-write — the old plan lives until its last holder drops it).
  /// With `stage` non-null, the same lookup also sets it to the layer's
  /// stage assignment, or null outside stage mode / for layers the prepared
  /// network did not contain (they run at the full cluster count, exactly
  /// like an unknown signature in the plan cache).
  std::shared_ptr<const kernels::LayerPlan> plan_handle(
      const snn::LayerSpec& spec, const StageInfo** stage = nullptr) const;

  /// Stage mode: balance `specs` into a pipeline over `part`'s cluster count
  /// and pin every member layer's plan at its stage's group width (stage
  /// assignment and plans swap together under plan_mu_).
  void pin_stage_plans(const kernels::Partitioner& part,
                       std::span<const snn::LayerSpec> specs) const;

  // --- degraded-mode internals ----------------------------------------------

  /// Re-pick every prepared layer's plan over `width` clusters (COW swap
  /// under plan_mu_; stage mode re-balances the pipeline first) — the plans
  /// a fresh `width`-cluster backend would build. Caller holds fault_mu_.
  void replan_for_width(int width) const;
  /// Straggler factor of one active cluster slot (1.0 = healthy). One
  /// relaxed flag load on the healthy hot path.
  double shard_slowdown(int cluster) const {
    if (!any_slowdown_.load(std::memory_order_relaxed)) return 1.0;
    if (cluster < 0 || cluster >= arch::NocModel::kMaxClusters) return 1.0;
    return slowdown_[static_cast<std::size_t>(cluster)].load(
        std::memory_order_relaxed);
  }

  int clusters_;
  bool threads_;
  int min_work_;  ///< output elements below which fan-out stays serial
  kernels::Partitioner partitioner_;
  arch::NocParams noc_;
  kernels::PipelineConfig pipeline_;
  /// Stage assignment of the prepared network (stage mode only). Written
  /// once under plan_mu_ by prepare(); map nodes are stable, so post-prepare
  /// readers hold only the shared lock.
  mutable kernels::StagePlan stage_plan_;
  mutable std::map<std::uint64_t, StageInfo> stage_info_;
  std::shared_ptr<common::WorkerPool> pool_;
  /// Reader-writer lock: after prepare() the plan cache is read-only on the
  /// hot path (one shared acquisition per layer dispatch); the exclusive
  /// side only runs for specs never planned before — or for a fail-stop
  /// re-plan swap.
  mutable std::shared_mutex plan_mu_;
  mutable std::map<std::uint64_t, std::shared_ptr<const kernels::LayerPlan>>
      plans_;

  // --- fault state (runtime/faults.hpp) -------------------------------------
  /// Serializes structural fault application (fail_cluster and friends are
  /// rare control-plane calls; the data plane reads only the atomics below).
  /// Lock order: fault_mu_ -> plan_mu_.
  mutable std::mutex fault_mu_;
  /// The specs prepare() planned, in layer order — the plan cache only keeps
  /// signatures, so degraded re-planning needs them to rebuild every plan.
  mutable std::vector<snn::LayerSpec> prepared_specs_;
  mutable std::array<bool, arch::NocModel::kMaxClusters> failed_{};
  mutable std::atomic<int> active_clusters_{1};
  mutable std::atomic<int> degrade_replans_{0};
  mutable std::atomic<bool> any_slowdown_{false};
  mutable std::atomic<bool> any_link_derate_{false};
  mutable std::array<std::atomic<double>, arch::NocModel::kMaxClusters>
      slowdown_;
  mutable std::array<std::atomic<double>, arch::NocModel::kMaxClusters>
      link_derate_;
};

}  // namespace spikestream::runtime
