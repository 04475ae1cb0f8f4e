#include "runtime/backend_sharded.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/float_formats.hpp"
#include "snn/state.hpp"

namespace spikestream::runtime {

ShardedBackend::ShardedBackend(const kernels::RunOptions& opt,
                               const BackendConfig& cfg,
                               std::shared_ptr<common::WorkerPool> pool)
    : ExecutionBackend(opt),
      clusters_(std::max(1, cfg.clusters)),
      threads_(cfg.shard_threads),
      min_work_(std::max(0, cfg.shard_min_work)),
      partitioner_(opt, clusters_, cfg.partition),
      noc_(cfg.noc),
      pipeline_(cfg.pipeline),
      pool_(std::move(pool)) {
  SPK_CHECK(cfg.clusters <= arch::NocModel::kMaxClusters,
            "sharded backend: " << cfg.clusters << " clusters exceeds the "
                                << arch::NocModel::kMaxClusters
                                << "-cluster NoC model");
  if (threads_ && pool_ == nullptr) {
    pool_ = std::make_shared<common::WorkerPool>(clusters_ - 1);
  }
  active_clusters_.store(clusters_, std::memory_order_relaxed);
  for (auto& s : slowdown_) s.store(1.0, std::memory_order_relaxed);
  for (auto& d : link_derate_) d.store(1.0, std::memory_order_relaxed);
}

std::shared_ptr<const kernels::LayerPlan> ShardedBackend::plan_handle(
    const snn::LayerSpec& spec, const StageInfo** stage) const {
  const std::uint64_t sig = kernels::layer_signature(spec);
  if (stage != nullptr) *stage = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(plan_mu_);
    if (stage != nullptr && pipeline_.enabled) {
      const auto st = stage_info_.find(sig);
      if (st != stage_info_.end()) *stage = &st->second;  // node-stable
    }
    const auto it = plans_.find(sig);
    if (it != plans_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(plan_mu_);
  const auto it = plans_.find(sig);  // re-check: another writer may have won
  if (it != plans_.end()) return it->second;
  // Cold miss: plan at the *active* width, so a layer first seen after a
  // fail-stop never lands shards on a failed cluster. Healthy runs take the
  // member partitioner (no construction on the common path).
  const int width = active_clusters_.load(std::memory_order_relaxed);
  kernels::LayerPlan plan =
      width == clusters_
          ? partitioner_.plan_layer(spec)
          : kernels::Partitioner(opt_, width, partitioner_.strategy())
                .plan_layer(spec);
  return plans_
      .emplace(sig, std::make_shared<const kernels::LayerPlan>(std::move(plan)))
      .first->second;
}

const kernels::LayerPlan& ShardedBackend::plan_for(
    const snn::LayerSpec& spec) const {
  // The handle keeps the plan's refcount in the cache; the reference stays
  // valid until a fail-stop re-plan replaces it (see the header note).
  return *plan_handle(spec);
}

// ---------------------------------------------------------------------------
// Fault injection / degraded mode
// ---------------------------------------------------------------------------

void ShardedBackend::pin_stage_plans(
    const kernels::Partitioner& part,
    std::span<const snn::LayerSpec> specs) const {
  kernels::StagePlan sp = part.plan_pipeline(specs, pipeline_, noc_);
  std::unique_lock<std::shared_mutex> lock(plan_mu_);
  stage_plan_ = std::move(sp);
  stage_info_.clear();
  for (int s = 0; s < stage_plan_.num_stages(); ++s) {
    const kernels::PipelineStage& st =
        stage_plan_.stages[static_cast<std::size_t>(s)];
    const kernels::Partitioner group_part(opt_, st.clusters(),
                                          partitioner_.strategy());
    for (int l = st.layer_lo; l < st.layer_hi; ++l) {
      const snn::LayerSpec& spec = specs[static_cast<std::size_t>(l)];
      StageInfo info;
      info.stage = s;
      info.cluster_lo = st.cluster_lo;
      info.group = st.clusters();
      info.boundary = s + 1 < stage_plan_.num_stages() && l == st.layer_hi - 1;
      info.next_cluster_lo =
          info.boundary
              ? stage_plan_.stages[static_cast<std::size_t>(s + 1)].cluster_lo
              : 0;
      const std::uint64_t sig = kernels::layer_signature(spec);
      stage_info_[sig] = info;
      plans_[sig] = std::make_shared<const kernels::LayerPlan>(
          group_part.plan_layer(spec));
    }
  }
}

void ShardedBackend::replan_for_width(int width) const {
  if (prepared_specs_.empty()) return;  // nothing prepared: cold misses will
                                        // plan at the active width anyway
  const kernels::Partitioner part(opt_, width, partitioner_.strategy());
  if (pipeline_.enabled && stage_plan_.num_stages() > 0) {
    // Stage mode: re-balance the whole pipeline at the surviving width and
    // re-pin every member layer's plan at its new group size — the same
    // shape prepare() built, one cluster narrower.
    pin_stage_plans(part, prepared_specs_);
    return;
  }
  for (const snn::LayerSpec& spec : prepared_specs_) {
    auto next =
        std::make_shared<const kernels::LayerPlan>(part.plan_layer(spec));
    std::unique_lock<std::shared_mutex> lock(plan_mu_);
    plans_[kernels::layer_signature(spec)] = std::move(next);
  }
}

bool ShardedBackend::fail_cluster(int cluster) const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  const int active = active_clusters_.load(std::memory_order_relaxed);
  if (cluster < 0 || cluster >= clusters_ || active <= 1) return false;
  if (failed_[static_cast<std::size_t>(cluster)]) return false;
  failed_[static_cast<std::size_t>(cluster)] = true;
  const int width = active - 1;
  // Survivors renumber into the dense [0, width) slot range: plans encode
  // shard counts and ranges, not physical cluster ids, so masking a cluster
  // is exactly re-planning one narrower. COW swap — in-flight runs keep the
  // plan they pinned; the next dispatch executes degraded.
  replan_for_width(width);
  active_clusters_.store(width, std::memory_order_relaxed);
  degrade_replans_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ShardedBackend::set_cluster_slowdown(int cluster, double factor) const {
  if (cluster < 0 || cluster >= arch::NocModel::kMaxClusters) return;
  std::lock_guard<std::mutex> lock(fault_mu_);
  slowdown_[static_cast<std::size_t>(cluster)].store(
      std::max(1.0, factor), std::memory_order_relaxed);
  bool any = false;
  for (int c = 0; c < clusters_; ++c) {
    any |= slowdown_[static_cast<std::size_t>(c)].load(
               std::memory_order_relaxed) > 1.0;
  }
  any_slowdown_.store(any, std::memory_order_relaxed);
}

void ShardedBackend::set_link_degrade(int cluster, double factor) const {
  if (cluster < 0 || cluster >= arch::NocModel::kMaxClusters) return;
  std::lock_guard<std::mutex> lock(fault_mu_);
  link_derate_[static_cast<std::size_t>(cluster)].store(
      std::max(1.0, factor), std::memory_order_relaxed);
  bool any = false;
  for (int c = 0; c < clusters_; ++c) {
    any |= link_derate_[static_cast<std::size_t>(c)].load(
               std::memory_order_relaxed) > 1.0;
  }
  any_link_derate_.store(any, std::memory_order_relaxed);
}

void ShardedBackend::prepare(const snn::Network& net) const {
  {
    // The plan cache is signature-keyed; keep the specs themselves so a
    // fail-stop can re-plan every prepared layer without the Network.
    std::lock_guard<std::mutex> lock(fault_mu_);
    prepared_specs_.clear();
    prepared_specs_.reserve(net.num_layers());
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      prepared_specs_.push_back(net.layer(l));
    }
  }
  if (pipeline_.enabled && clusters_ > 1 && net.num_layers() > 0) {
    // Choose the execution mode for this network (data-parallel vs
    // stage-parallel vs hybrid) and pin every member layer's partition plan
    // at its stage's group width: the plan cache then serves group-sized
    // plans on the hot path with no stage-awareness. Layers outside the
    // prepared network (unknown signatures) still fall back to full-width
    // plans via plan_handle.
    pin_stage_plans(partitioner_,
                    std::span(&net.layer(0), net.num_layers()));
  }
  for (std::size_t l = 0; l < net.num_layers(); ++l) plan_for(net.layer(l));
}

void ShardedBackend::presize_state(snn::NetworkState& state,
                                   const snn::Network& net) const {
  ExecutionBackend::presize_state(state, net);  // worst-case main arenas
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const std::size_t shards = plan_for(net.layer(l)).n();
    kernels::LayerScratch& scratch = state.scratch(l);
    if (shards > 1 && scratch.lanes.size() < shards) {
      scratch.lanes.resize(shards);
    }
  }
}

bool ShardedBackend::pool_worthwhile(const snn::LayerSpec& spec) const {
  // Output elements approximate the per-layer host work (functional pass and
  // per-cluster spike slicing are both O(out elements)); below the cutoff the
  // pool handoff and worker wakeups dominate, so the submitting thread does
  // the work itself. Simulated timing still models the planned clusters.
  const double elems = static_cast<double>(spec.out_h()) * spec.out_w() *
                       static_cast<double>(spec.out_c);
  return elems >= static_cast<double>(min_work_);
}

std::size_t ShardedBackend::host_bands(const snn::LayerSpec& spec) const {
  if (!threads_ || pool_ == nullptr || !pool_worthwhile(spec)) return 1;
  return static_cast<std::size_t>(std::min(clusters_, spec.out_h()));
}

void ShardedBackend::for_shards(
    std::size_t n, bool pooled,
    common::FunctionRef<void(std::size_t)> fn) const {
  if (!pooled || !threads_ || pool_ == nullptr || n <= 1) {
    for (std::size_t s = 0; s < n; ++s) fn(s);
    return;
  }
  pool_->parallel_for(n, n,
                      [&fn](std::size_t, std::size_t i) { fn(i); });
}

void ShardedBackend::run_functional(const snn::LayerSpec& spec,
                                    const snn::LayerWeights& weights,
                                    const compress::CsrIfmap* ifmap,
                                    const snn::Tensor* image,
                                    snn::Tensor& membrane,
                                    kernels::LayerScratch& scratch) const {
  kernels::KernelScratch& main = scratch.main;
  if (spec.kind == snn::LayerKind::kFc) {
    kernels::fc_functional(spec, weights, *ifmap, membrane, main);
    return;
  }
  // Conv / encode: contiguous output-row bands write disjoint rows of the
  // shared currents, membrane and spikes (rows are contiguous in HWC).
  kernels::shape_functional(spec, ifmap, main);
  const std::size_t bands = host_bands(spec);
  const std::size_t oh = static_cast<std::size_t>(spec.out_h());
  std::atomic<std::size_t> fired{0};
  for_shards(bands, true, [&](std::size_t b) {
    const int lo = static_cast<int>(oh * b / bands);
    const int hi = static_cast<int>(oh * (b + 1) / bands);
    const std::size_t n =
        image != nullptr
            ? kernels::encode_functional_rows(spec, weights, *image, membrane,
                                              main, lo, hi)
            : kernels::conv_functional_rows(spec, weights, *ifmap, membrane,
                                            main, lo, hi);
    fired += n;
  });
  main.run.out_nnz = fired.load();
}

// Each shard's timing pass ran the tile planner on its own sub-spec, so
// under the banked DRAM model every cluster prices its streams against a
// private DRAM channel: merge_parallel takes the max of the per-channel DMA
// timelines (channels drain concurrently) and sums the row-hit/row-miss
// activity counters, exactly like the other per-cluster activity.
void ShardedBackend::merge_shard_stats(const kernels::LayerScratch& scratch,
                                       std::size_t n,
                                       kernels::LayerRun& merged,
                                       int base) const {
  std::size_t slowest = 0;
  double slowest_eff = -1.0;
  double eff_max = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const kernels::LayerRun& run = scratch.lanes[s].run;
    if (s == 0) {
      merged.stats = run.stats;
    } else {
      merged.stats.merge_parallel(run.stats);
    }
    // Straggler injection: a slowed cluster slot serves its shard `factor`
    // times slower. Only the shard's wall-clock stretches (the itemized
    // compute/DMA work is unchanged — the extra time is stall on the sick
    // cluster); the layer's merged wall-clock is the max over effective
    // shard times.
    const double eff =
        run.stats.cycles * shard_slowdown(base + static_cast<int>(s));
    eff_max = std::max(eff_max, eff);
    if (eff > slowest_eff) {
      slowest_eff = eff;
      slowest = s;
    }
  }
  if (eff_max > merged.stats.cycles) merged.stats.cycles = eff_max;
  merged.plan = scratch.lanes[slowest].run.plan;
}

arch::NocModel ShardedBackend::noc_model() const {
  arch::NocModel model(noc_, clusters_);
  if (any_link_derate_.load(std::memory_order_relaxed)) {
    for (int c = 0; c < clusters_; ++c) {
      model.set_link_derate(
          c, link_derate_[static_cast<std::size_t>(c)].load(
                 std::memory_order_relaxed));
    }
  }
  return model;
}

void ShardedBackend::apply_noc(kernels::KernelStats& st,
                               const arch::NocModel& model) const {
  // noc_bytes counts each link traversal once (a multicast payload is NOT
  // multiplied by the receiver count); the fabric gate is hop latency plus
  // the bottleneck link's serialization.
  st.noc_bytes += model.total_link_bytes();
  if (noc_.model_contention) {
    const double gate = model.cycles();
    if (gate > st.cycles) {
      st.noc_contention_cycles += gate - st.cycles;
      st.cycles = gate;
    }
  }
}

void ShardedBackend::apply_stage_handoff(const snn::LayerSpec& spec,
                                         const StageInfo* info,
                                         kernels::LayerRun& run) const {
  if (info == nullptr || !info->boundary) return;
  // The producing group packs each boundary spike into the inter-stage FIFO
  // (integer-core work alongside the activation append), then the CSR
  // payload crosses the fabric to the consumer group's lead cluster.
  const double push =
      static_cast<double>(run.out_nnz) * opt_.cost.fifo_push_per_spike;
  run.stats.compute_cycles += push;
  run.stats.cycles += push;
  run.stats.int_instrs += push;
  const double bytes =
      static_cast<double>(compress::CsrIfmap::footprint_from_count(
          run.out_nnz, spec.out_h(), spec.out_w()));
  arch::NocModel noc = noc_model();
  noc.unicast(info->cluster_lo + info->group - 1, info->next_cluster_lo,
              bytes);
  apply_noc(run.stats, noc);
}

// ---------------------------------------------------------------------------
// Output-channel tiles and ifmap stripes
// ---------------------------------------------------------------------------

void ShardedBackend::price_windows(const kernels::LayerPlan& plan,
                                   const snn::LayerSpec& spec,
                                   const compress::CsrIfmap* ifmap,
                                   kernels::LayerScratch& scratch,
                                   int base) const {
  const std::size_t n = plan.n();
  kernels::LayerRun& merged = scratch.main.run;
  const bool stripes = plan.axis == kernels::ShardAxis::kIfmapStripe;
  for_shards(n, pool_worthwhile(spec), [&](std::size_t s) {
    const kernels::ShardRange r = plan.shards[s];
    kernels::PriceWindow win = kernels::whole_layer(spec);
    if (stripes) {
      win.oy_lo = r.lo;
      win.oy_hi = r.hi;
    } else {
      win.c_lo = r.lo;
      win.c_hi = r.hi;
    }
    kernels::time_window(spec, ifmap, scratch.main.profile, merged.out_spikes,
                         win, opt_, scratch.lanes[s]);
  });
  merge_shard_stats(scratch, n, merged, base);

  arch::NocModel noc = noc_model();
  if (!stripes) {
    // The input is multicast from the owner to every cluster of the group
    // (each link charged once); the owner gathers the other clusters' ofmap
    // slices.
    const double input_bytes =
        ifmap != nullptr
            ? static_cast<double>(ifmap->footprint_bytes())
            : static_cast<double>(common::fp_bytes(opt_.fmt)) * spec.in_h *
                  spec.in_w * spec.in_c;
    noc.multicast(base, base, base + static_cast<int>(n), input_bytes);
    for (std::size_t s = 1; s < n; ++s) {
      noc.unicast(base + static_cast<int>(s), base,
                  static_cast<double>(compress::CsrIfmap::footprint_from_count(
                      scratch.lanes[s].run.out_nnz, spec.out_h(),
                      spec.out_w())));
    }
    apply_noc(merged.stats, noc);
    return;
  }
  // Stripes need no broadcast: clusters exchange only the halo overlap plus
  // the ofmap gather to the owner. Sparse stripes overlap by their summed
  // footprints minus one resident copy; dense image stripes duplicate
  // (k - 1) rows per neighbor pair. Halos flow between adjacent stripes,
  // split evenly over the n - 1 neighbor pairs.
  double halo = 0;
  if (ifmap != nullptr) {
    halo = -static_cast<double>(ifmap->footprint_bytes());
    for (const kernels::ShardRange& r : plan.shards) {
      halo += static_cast<double>(
          ifmap->rows_footprint_bytes(r.lo, r.hi + spec.k - 1));
    }
    halo = std::max(0.0, halo);
  } else {
    halo = static_cast<double>(n - 1) * static_cast<double>(spec.k - 1) *
           static_cast<double>(common::fp_bytes(opt_.fmt)) * spec.in_w *
           spec.in_c;
  }
  const double per_pair = halo / static_cast<double>(n - 1);
  for (std::size_t s = 1; s < n; ++s) {
    const int c = base + static_cast<int>(s);
    noc.unicast(c - 1, c, per_pair);
    noc.unicast(c, base,
                static_cast<double>(compress::CsrIfmap::footprint_from_count(
                    scratch.lanes[s].run.out_nnz, plan.shards[s].extent(),
                    spec.out_w())));
  }
  apply_noc(merged.stats, noc);
}

// ---------------------------------------------------------------------------
// FC fan-in segments (partial-sum sharding)
// ---------------------------------------------------------------------------

void ShardedBackend::price_fc_fanin(const kernels::LayerPlan& plan,
                                    const snn::LayerSpec& spec,
                                    const compress::CsrIfmap& ifmap,
                                    kernels::LayerScratch& scratch,
                                    int base) const {
  const std::size_t n = plan.n();
  for_shards(n, pool_worthwhile(spec), [&](std::size_t s) {
    kernels::fc_fanin_shard_timing(spec, ifmap, plan.shards[s].lo,
                                   plan.shards[s].hi, opt_,
                                   scratch.lanes[s]);
  });

  kernels::LayerRun& merged = scratch.main.run;
  merge_shard_stats(scratch, n, merged, base);

  // Sequential tail: partial vectors cross the NoC to the merging cluster,
  // are reduced group-wise, then thresholded exactly once. The inputs were
  // disjoint (no broadcast), so the partials are the only extra traffic.
  const kernels::FcFanInMergeCost tail = kernels::fc_fanin_merge_cost(
      spec, merged.out_spikes, static_cast<int>(n), opt_);
  merged.stats.compute_cycles += tail.cycles;
  merged.stats.cycles += tail.cycles;
  merged.stats.fpu_ops += tail.fpu_ops;
  merged.stats.int_instrs += tail.int_instrs;
  merged.stats.tcdm_words += tail.tcdm_words;
  // Partial-sum vectors converge on the merging cluster, one per peer.
  const double partial_bytes = static_cast<double>(spec.out_c) *
                               static_cast<double>(common::fp_bytes(opt_.fmt));
  arch::NocModel noc = noc_model();
  for (std::size_t s = 1; s < n; ++s) {
    noc.unicast(base + static_cast<int>(s), base, partial_bytes);
  }
  apply_noc(merged.stats, noc);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

const kernels::LayerRun& ShardedBackend::run_layer(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap* ifmap, const snn::Tensor* image,
    snn::Tensor& membrane, kernels::LayerScratch& scratch) const {
  const StageInfo* stage = nullptr;
  const auto plan_ref = plan_handle(spec, &stage);  // pinned for this run
  const kernels::LayerPlan& plan = *plan_ref;
  SPK_CHECK(!plan.shards.empty(), "sharded " << spec.name << ": empty plan");
  const int base = stage != nullptr ? stage->cluster_lo : 0;
  // One functional pass over the full layer, whatever the plan: every shard
  // axis computes each neuron with its complete fan-in in the reference
  // order, so the plan only decides how the clusters are priced. A conv
  // layer's stream profile is likewise built once, then priced per window.
  run_functional(spec, weights, ifmap, image, membrane, scratch);
  if (spec.kind == snn::LayerKind::kConv) {
    kernels::conv_stream_profile(spec, *ifmap, opt_, scratch.main.profile);
  }
  if (plan.n() > 1 && scratch.lanes.size() < plan.n()) {
    scratch.lanes.resize(plan.n());  // presize_state normally did this
  }
  if (plan.n() <= 1) {
    kernels::time_window(spec, ifmap, scratch.main.profile,
                         scratch.main.run.out_spikes,
                         kernels::whole_layer(spec), opt_, scratch.main);
  } else if (plan.axis == kernels::ShardAxis::kOutputChannel ||
             (plan.axis == kernels::ShardAxis::kIfmapStripe &&
              spec.kind != snn::LayerKind::kFc)) {
    price_windows(plan, spec, ifmap, scratch, base);
  } else {
    SPK_CHECK(plan.axis == kernels::ShardAxis::kFanIn &&
                  spec.kind == snn::LayerKind::kFc,
              spec.name << ": unsupported shard axis");
    price_fc_fanin(plan, spec, *ifmap, scratch, base);
  }
  // Every path above lands its merged result in scratch.main.run, so the
  // stage-boundary handoff (no-op outside stage mode) tails all of them.
  apply_stage_handoff(spec, stage, scratch.main.run);
  return scratch.main.run;
}

const kernels::LayerRun& ShardedBackend::run_conv(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  return run_layer(spec, weights, &ifmap, nullptr, membrane, scratch);
}

const kernels::LayerRun& ShardedBackend::run_fc(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  return run_layer(spec, weights, &ifmap, nullptr, membrane, scratch);
}

const kernels::LayerRun& ShardedBackend::run_encode(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const snn::Tensor& padded_image, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  return run_layer(spec, weights, nullptr, &padded_image, membrane, scratch);
}

}  // namespace spikestream::runtime
