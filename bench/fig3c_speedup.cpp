// Reproduces Fig. 3c: per-layer speedup of SpikeStream FP16 over the FP16
// baseline, and of SpikeStream FP8 over SpikeStream FP16; plus the end-to-end
// summary speedups quoted in the abstract / Section IV-A.
//
// Second section: the stage-parallel cluster pipeline. For each (network,
// cluster count) the planner's three execution shapes run on identical
// batches — pure data-parallel, forced stage-parallel, forced hybrid, and
// planner-chosen (auto) — and the table reports modeled steady-state cycles
// per sample with the FIFO stall and NoC contention shares itemized. The
// rows persist to BENCH_fig3c.json so CI can require the planner-chosen
// pipeline to keep beating data-parallel on the deep tower
// (scripts/check_bench_regression.py --pipeline-speedup-floor).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench/json_writer.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/stage_pipeline.hpp"

namespace sb = spikestream::bench;
namespace sc = spikestream::common;
namespace k = spikestream::kernels;
namespace rt = spikestream::runtime;
namespace snn = spikestream::snn;

namespace {

struct PipelineRow {
  std::string network;
  int clusters = 0;
  std::string requested;  ///< mode asked of the planner ("off" = pipeline off)
  std::string chosen;     ///< concrete mode of the resulting plan
  int stages = 1;
  double steady_cycles_per_sample = 0;  ///< measured initiation interval
  double cycles_per_sample = 0;         ///< makespan / batch (incl. fill)
  double fifo_stall_cycles = 0;         ///< whole-batch FIFO backpressure
  double noc_contention_cycles = 0;     ///< whole-batch fabric serialization
  double speedup_vs_dp = 1.0;           ///< steady-state, against the DP row
};

PipelineRow run_pipeline_row(const std::string& network,
                             const snn::Network& net,
                             const std::vector<snn::Tensor>& images,
                             int clusters, k::ExecMode mode, bool enabled) {
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kSharded;
  cfg.clusters = clusters;
  cfg.shard_threads = false;
  cfg.partition = k::PartitionStrategy::kHybrid;
  cfg.noc.model_contention = true;
  cfg.pipeline.enabled = enabled;
  cfg.pipeline.mode = mode;

  const k::RunOptions opt;
  const rt::InferenceEngine eng(net, opt, cfg);
  snn::NetworkState state = eng.make_state();
  std::vector<rt::InferenceResult> batch;
  for (const auto& img : images) batch.push_back(eng.run(img, state));

  PipelineRow row;
  row.network = network;
  row.clusters = clusters;
  row.requested = enabled ? k::exec_mode_name(mode) : "off";
  const auto& sb_ = static_cast<const rt::ShardedBackend&>(eng.backend());
  row.chosen = enabled ? k::exec_mode_name(sb_.stage_plan().mode)
                       : "data-parallel";
  row.stages = enabled ? sb_.stage_plan().num_stages() : 1;

  double total = 0;
  for (const auto& r : batch) {
    total += r.total_cycles;
    for (const auto& lm : r.layers) {
      row.noc_contention_cycles += lm.stats.noc_contention_cycles;
    }
  }
  const double n = static_cast<double>(batch.size());
  if (enabled && sb_.stage_parallel_active()) {
    const rt::StageTimeline tl = rt::simulate_stage_pipeline(
        sb_.stage_plan(), net, batch, sb_.pipeline_config());
    row.steady_cycles_per_sample = tl.steady_cycles_per_sample;
    row.cycles_per_sample = tl.cycles_per_sample(batch.size());
    row.fifo_stall_cycles = tl.total_stall_cycles;
  } else {
    // One stage: samples serialize, steady state == the mean sample.
    row.steady_cycles_per_sample = total / n;
    row.cycles_per_sample = total / n;
  }
  return row;
}

}  // namespace

int main() {
  const int batch = sb::batch_size_from_env();
  const auto net = sb::make_calibrated_svgg11();
  const auto images =
      spikestream::snn::make_batch(static_cast<std::size_t>(batch), 2024);

  k::RunOptions base, ss16, ss8;
  base.variant = k::Variant::kBaseline;
  base.fmt = sc::FpFormat::FP16;
  ss16.variant = k::Variant::kSpikeStream;
  ss16.fmt = sc::FpFormat::FP16;
  ss8.variant = k::Variant::kSpikeStream;
  ss8.fmt = sc::FpFormat::FP8;
  const sb::BatchRun rb = sb::run_batch(net, base, images);
  const sb::BatchRun r16 = sb::run_batch(net, ss16, images);
  const sb::BatchRun r8 = sb::run_batch(net, ss8, images);

  sc::Table t("Fig. 3c — per-layer speedups, batch=" + std::to_string(batch));
  t.set_header({"layer", "runtime base FP16 [ms]", "SS FP16 over base FP16",
                "SS FP8 over SS FP16"});
  double s16_acc = 0, s8_acc = 0;
  for (std::size_t l = 0; l < rb.layers.size(); ++l) {
    const double s16 = rb.layers[l].cycles.mean() / r16.layers[l].cycles.mean();
    const double s8 = r16.layers[l].cycles.mean() / r8.layers[l].cycles.mean();
    s16_acc += s16;
    s8_acc += s8;
    t.add_row({rb.layers[l].name,
               sc::Table::num(rb.layers[l].cycles.mean() / 1e6, 3),
               sc::Table::num(s16, 2) + "x", sc::Table::num(s8, 2) + "x"});
  }
  t.print();

  const auto n = static_cast<double>(rb.layers.size());
  const double e2e_ss16 = rb.total_cycles.mean() / r16.total_cycles.mean();
  const double e2e_ss8 = rb.total_cycles.mean() / r8.total_cycles.mean();
  std::printf("\nlayer-average speedup SS FP16 / base FP16: %.2fx (paper: 5.62x)\n",
              s16_acc / n);
  std::printf("layer-average speedup SS FP8 / SS FP16:    %.2fx (paper: 1.71x)\n",
              s8_acc / n);
  std::printf("end-to-end speedup SS FP16 / base FP16:    %.2fx (paper: 4.39x)\n",
              e2e_ss16);
  std::printf("end-to-end speedup SS FP8  / base FP16:    %.2fx (paper: 7.29x)\n",
              e2e_ss8);
  std::printf("end-to-end inference: base %.2f ms, SS FP16 %.2f ms, SS FP8 %.2f ms\n",
              rb.total_cycles.mean() / 1e6, r16.total_cycles.mean() / 1e6,
              r8.total_cycles.mean() / 1e6);

  // -------------------------------------------------------------------------
  // Stage-parallel cluster pipeline: DP vs stage vs hybrid vs planner-chosen.
  // -------------------------------------------------------------------------
  const int pipe_batch = 8;
  const snn::Network tower = sb::make_calibrated_deep_tower();
  const auto tower_imgs =
      snn::make_batch(static_cast<std::size_t>(pipe_batch), 2025, 6, 6, 3);
  const auto svgg_imgs =
      snn::make_batch(static_cast<std::size_t>(pipe_batch), 2026);

  std::vector<PipelineRow> rows;
  for (int clusters : {4, 8}) {
    rows.push_back(run_pipeline_row("tower", tower, tower_imgs, clusters,
                                    k::ExecMode::kDataParallel, false));
    const double dp = rows.back().steady_cycles_per_sample;
    for (auto mode : {k::ExecMode::kStageParallel, k::ExecMode::kHybrid,
                      k::ExecMode::kAuto}) {
      rows.push_back(
          run_pipeline_row("tower", tower, tower_imgs, clusters, mode, true));
      rows.back().speedup_vs_dp = dp / rows.back().steady_cycles_per_sample;
    }
  }
  {
    // S-VGG11 control: the planner must keep choosing data-parallel here.
    rows.push_back(run_pipeline_row("svgg11", net, svgg_imgs, 8,
                                    k::ExecMode::kDataParallel, false));
    const double dp = rows.back().steady_cycles_per_sample;
    for (auto mode : {k::ExecMode::kStageParallel, k::ExecMode::kAuto}) {
      rows.push_back(
          run_pipeline_row("svgg11", net, svgg_imgs, 8, mode, true));
      rows.back().speedup_vs_dp = dp / rows.back().steady_cycles_per_sample;
    }
  }

  sc::Table pt("Stage pipeline — modeled steady-state cycles/sample, batch=" +
               std::to_string(pipe_batch));
  pt.set_header({"network", "clusters", "mode", "chosen", "stages",
                 "steady cyc/s.", "amort cyc/s.", "fifo stall", "noc cont.",
                 "vs DP"});
  for (const auto& r : rows) {
    pt.add_row({r.network, std::to_string(r.clusters), r.requested, r.chosen,
                std::to_string(r.stages),
                sc::Table::num(r.steady_cycles_per_sample, 0),
                sc::Table::num(r.cycles_per_sample, 0),
                sc::Table::num(r.fifo_stall_cycles, 0),
                sc::Table::num(r.noc_contention_cycles, 0),
                sc::Table::num(r.speedup_vs_dp, 2) + "x"});
  }
  pt.print();

  if (std::FILE* f = std::fopen("BENCH_fig3c.json", "w")) {
    sb::JsonWriter w(f, /*compact_depth=*/2);
    w.begin_object();
    w.field("bench", "fig3c");
    w.field("batch", batch);
    w.field("e2e_ss16_over_base", e2e_ss16, 4);
    w.field("e2e_ss8_over_base", e2e_ss8, 4);
    w.field("pipeline_batch", pipe_batch);
    w.key("pipeline");
    w.begin_array();
    for (const auto& r : rows) {
      w.break_line();  // one row object per line, fields inline
      w.begin_object();
      w.field("network", r.network);
      w.field("clusters", r.clusters);
      w.field("mode", r.requested);
      w.field("chosen", r.chosen);
      w.field("stages", r.stages);
      w.field("steady_cycles_per_sample", r.steady_cycles_per_sample, 2);
      w.field("cycles_per_sample", r.cycles_per_sample, 2);
      w.field("fifo_stall_cycles", r.fifo_stall_cycles, 2);
      w.field("noc_contention_cycles", r.noc_contention_cycles, 2);
      w.field("speedup_vs_dp", r.speedup_vs_dp, 4);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote BENCH_fig3c.json\n");
  }
  return 0;
}
