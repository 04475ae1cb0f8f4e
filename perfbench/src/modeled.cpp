// Networks, engine configurations, modeled-statistics summaries, the paper
// pass and the golden-reference check shared by every workload.
#include <cmath>
#include <memory>

#include "arch/dram/dram.hpp"
#include "arch/noc.hpp"
#include "common/rng.hpp"
#include "kernels/partition.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/batch.hpp"
#include "runtime/stage_pipeline.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kNetworkSeed = 1;
constexpr int kCalibImages = 4;
constexpr double kPaperSpeedup = 4.39;  // end-to-end SS FP16 / base FP16
constexpr double kPaperUtil = 0.523;    // layer-average SS FP16 FPU use

}  // namespace

snn::Network calibrated_svgg11() {
  snn::Network net = snn::Network::make_svgg11();
  spikestream::common::Rng rng(kNetworkSeed);
  net.init_weights(rng);
  const auto calib = snn::make_batch(kCalibImages, kNetworkSeed * 17 + 3);
  snn::calibrate_thresholds(net, calib, snn::svgg11_target_rates());
  return net;
}

snn::Network calibrated_deep_tower() {
  snn::Network net = snn::Network::make_deep_tower();
  spikestream::common::Rng rng(kNetworkSeed);
  net.init_weights(rng);
  const auto calib =
      snn::make_batch(kCalibImages, kNetworkSeed * 17 + 3, 6, 6, 3);
  snn::calibrate_thresholds(net, calib, snn::deep_tower_target_rates());
  return net;
}

kernels::RunOptions svgg11_options() {
  kernels::RunOptions opt;
  opt.variant = kernels::Variant::kSpikeStream;
  opt.fmt = spikestream::common::FpFormat::FP16;
  opt.segment_major_lanes = static_cast<int>(kBatch);
  opt.batch_weight_reuse = true;
  return opt;
}

kernels::RunOptions tower_options() {
  kernels::RunOptions opt;
  opt.variant = kernels::Variant::kSpikeStream;
  opt.fmt = spikestream::common::FpFormat::FP16;
  opt.cost.dram = spikestream::arch::DramConfig::banked();
  return opt;
}

runtime::BackendConfig tower_backend() {
  runtime::BackendConfig cfg;
  cfg.kind = runtime::BackendKind::kSharded;
  cfg.clusters = 8;
  cfg.shard_threads = false;
  cfg.partition = kernels::PartitionStrategy::kHybrid;
  cfg.noc.topology = spikestream::arch::NocTopology::kRingQuadrant;
  cfg.noc.model_contention = true;
  cfg.pipeline.enabled = true;
  cfg.pipeline.mode = kernels::ExecMode::kAuto;
  return cfg;
}

KindIdx kind_of(const snn::LayerSpec& spec) {
  switch (spec.kind) {
    case snn::LayerKind::kEncodeConv: return kEnc;
    case snn::LayerKind::kConv: return kConv;
    case snn::LayerKind::kFc: return kFc;
  }
  return kConv;
}

const char* kind_name(KindIdx k) {
  static constexpr const char* kNames[kKinds] = {"encode", "conv", "fc"};
  return kNames[k];
}

Modeled summarize_modeled(const runtime::InferenceEngine& eng,
                          const std::vector<runtime::InferenceResult>& batch) {
  const snn::Network& net = eng.network();
  const double n = static_cast<double>(batch.size());
  Modeled m;
  m.layer_cycles.assign(net.num_layers(), 0.0);
  std::array<int, kKinds> kind_layers{};
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    ++kind_layers[kind_of(net.layer(l))];
  }
  double total_cycles = 0, energy_mj = 0, fpu_ops = 0, core_cycles = 0;
  double dma = 0, saved = 0, hits = 0, misses = 0, noc = 0;
  for (const runtime::InferenceResult& res : batch) {
    total_cycles += res.total_cycles;
    energy_mj += res.total_energy_mj;
    for (std::size_t l = 0; l < res.layers.size(); ++l) {
      const runtime::LayerMetrics& lm = res.layers[l];
      const kernels::KernelStats& st = lm.stats;
      const KindIdx k = kind_of(net.layer(l));
      m.layer_cycles[l] += st.cycles / n;
      m.cycles[k] += st.cycles / n;
      m.util[k] += st.fpu_utilization();
      m.energy_uj[k] += lm.energy.total_mj() * 1e3 / n;
      fpu_ops += st.fpu_ops;
      core_cycles += st.cycles * st.active_cores;
      m.compute_cycles += st.compute_cycles / n;
      m.dma_cycles += st.dma_cycles / n;
      m.dma_hidden_cycles += st.dma_cycles_hidden / n;
      m.noc_contention_cycles += st.noc_contention_cycles / n;
      dma += st.dma_bytes;
      saved += st.dma_saved_bytes;
      hits += st.dma_row_hits;
      misses += st.dma_row_misses;
      noc += st.noc_bytes;
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    if (kind_layers[k] > 0) m.util[k] /= n * kind_layers[k];
  }
  m.cycles_per_sample = total_cycles / n;
  m.energy_uj_per_sample = energy_mj * 1e3 / n;
  m.dma_mb_per_sample = dma / (1e6 * n);
  m.dma_saved_mb = saved / (1e6 * n);
  m.noc_mb = noc / (1e6 * n);
  m.row_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m.fpu_util = core_cycles > 0 ? fpu_ops / core_cycles : 0.0;

  // A pipelined sharded plan overlaps samples across stages: its throughput
  // is the batch-scope stage timeline's makespan per sample (as Fig. 3c's
  // pipeline rows report it), not the sum of per-sample layer cycles.
  const auto* sharded =
      dynamic_cast<const runtime::ShardedBackend*>(&eng.backend());
  if (sharded != nullptr) {
    m.stages = sharded->stage_plan().num_stages();
    if (sharded->stage_parallel_active()) {
      const runtime::StageTimeline tl = runtime::simulate_stage_pipeline(
          sharded->stage_plan(), net, batch, sharded->pipeline_config());
      m.cycles_per_sample = tl.cycles_per_sample(batch.size());
      m.fifo_stall_cycles = tl.total_stall_cycles / n;
      for (const runtime::StageTrace& st : tl.stages) {
        m.stage_service += st.service_cycles / n;
        m.stage_stall += st.stall_cycles / n;
        m.stage_idle += st.idle_cycles / n;
      }
    }
  }
  return m;
}

void report_modeled_end_to_end(Report& rep, const Modeled& m) {
  rep.set("modeled_mcycles_per_sample", m.cycles_per_sample / 1e6);
  rep.set("modeled_energy_uj_per_sample", m.energy_uj_per_sample);
  rep.set("modeled_dma_mb_per_sample", m.dma_mb_per_sample);
  rep.set("modeled_fpu_util", m.fpu_util);
}

void report_modeled_per_layer(Report& rep, const Modeled& m) {
  for (int k = 0; k < kKinds; ++k) {
    const std::string kn = kind_name(static_cast<KindIdx>(k));
    rep.set("arch.cycles." + kn, m.cycles[static_cast<std::size_t>(k)]);
    rep.set("arch.fpu_util." + kn, m.util[static_cast<std::size_t>(k)]);
    rep.set("arch.energy_uj." + kn, m.energy_uj[static_cast<std::size_t>(k)]);
  }
  rep.set("arch.compute_cycles", m.compute_cycles);
  rep.set("arch.dma_cycles", m.dma_cycles);
  rep.set("arch.dma_hidden_cycles", m.dma_hidden_cycles);
  rep.set("arch.dma_mb", m.dma_mb_per_sample);
  rep.set("arch.dma_saved_mb", m.dma_saved_mb);
  rep.set("arch.dram_row_hit_rate", m.row_hit_rate);
  rep.set("arch.noc_mb", m.noc_mb);
  rep.set("arch.noc_contention_cycles", m.noc_contention_cycles);
  rep.set("arch.fifo_stall_cycles", m.fifo_stall_cycles);
  rep.set("runtime.stage.service_cycles", m.stage_service);
  rep.set("runtime.stage.stall_cycles", m.stage_stall);
  rep.set("runtime.stage.idle_cycles", m.stage_idle);
  rep.set("kernels.partition.stages", m.stages);
}

PaperErrors paper_errors(const snn::Network& svgg11,
                         const std::vector<snn::Tensor>& images) {
  kernels::RunOptions base;
  base.variant = kernels::Variant::kBaseline;
  base.fmt = spikestream::common::FpFormat::FP16;
  kernels::RunOptions ss = base;
  ss.variant = kernels::Variant::kSpikeStream;

  // One runner at a time, so the pass never holds two weight copies.
  auto mean_cycles_and_util = [&](const kernels::RunOptions& opt,
                                  double& util) {
    const runtime::BatchRunner runner(svgg11, opt, {}, {}, 1);
    const auto results = runner.run_single_step(images);
    double cycles = 0;
    util = 0;
    for (const runtime::InferenceResult& r : results) {
      cycles += r.total_cycles;
      for (const runtime::LayerMetrics& lm : r.layers) {
        util += lm.stats.fpu_utilization();
      }
    }
    const double n = static_cast<double>(results.size());
    util /= n * static_cast<double>(svgg11.num_layers());
    return cycles / n;
  };
  double base_util = 0, ss_util = 0;
  const double base_cycles = mean_cycles_and_util(base, base_util);
  const double ss_cycles = mean_cycles_and_util(ss, ss_util);

  PaperErrors p;
  p.speedup = base_cycles / ss_cycles;
  p.util = ss_util;
  p.speedup_error = std::fabs(p.speedup / kPaperSpeedup - 1.0);
  p.util_error = std::fabs(p.util / kPaperUtil - 1.0);
  std::printf("paper: end-to-end SS FP16 / base FP16 %.4fx (paper %.2fx), "
              "layer-average FPU utilization %.2f%% (paper %.1f%%)\n",
              p.speedup, kPaperSpeedup, 100 * p.util, 100 * kPaperUtil);
  return p;
}

void report_paper(Report& rep, const PaperErrors& p) {
  rep.set("paper_speedup_error", p.speedup_error);
  rep.set("paper_util_error", p.util_error);
}

std::size_t reference_mismatches(const runtime::InferenceEngine& eng,
                                 const std::vector<snn::Tensor>& images,
                                 const std::vector<snn::SpikeMap>& outputs) {
  snn::Reference ref(eng.network());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    ref.reset();
    const snn::SpikeMap& want = ref.step(images[i]).back().output;
    const snn::SpikeMap& got = outputs[i];
    if (!want.same_shape(got) || want.v != got.v) ++bad;
  }
  return bad;
}

}  // namespace perfbench
