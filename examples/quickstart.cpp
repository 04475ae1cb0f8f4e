// Quickstart: build a small spiking network, calibrate its thresholds, and
// run one inference with both code variants, printing the headline metrics.
//
//   $ ./quickstart
//
// This is the 5-minute tour of the public API:
//   snn::Network        — layer specs + weights
//   snn::calibrate_*    — threshold balancing to a firing-rate profile
//   runtime::InferenceEngine — executes layers with timing + energy models
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "runtime/engine.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"

namespace snn = spikestream::snn;
namespace k = spikestream::kernels;
namespace rt = spikestream::runtime;
namespace sc = spikestream::common;

int main() {
  // 1) A small 3-layer SNN: spike-encoding conv, spiking conv, classifier.
  snn::Network net = snn::Network::make_tiny(/*in_hw=*/18, /*in_c=*/3,
                                             /*mid_c=*/32, /*out_n=*/10);
  sc::Rng rng(42);
  net.init_weights(rng);

  // 2) Calibrate per-layer thresholds to a target firing-rate profile.
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  const auto achieved = snn::calibrate_thresholds(net, calib, targets);
  std::printf("calibrated output rates:");
  for (double r : achieved) std::printf(" %.3f", r);
  std::printf("\n\n");

  // 3) Run the same image through the baseline and SpikeStream variants.
  const snn::Tensor image = snn::make_batch(1, 99, 16, 16, 3)[0];
  for (auto variant : {k::Variant::kBaseline, k::Variant::kSpikeStream}) {
    k::RunOptions opt;
    opt.variant = variant;
    opt.fmt = sc::FpFormat::FP16;
    rt::InferenceEngine engine(net, opt);
    const rt::InferenceResult res = engine.run(image);

    std::printf("%-12s: %8.1f kcycles  %6.3f mJ  ",
                k::variant_name(variant), res.total_cycles / 1e3,
                res.total_energy_mj);
    double util = 0;
    for (const auto& m : res.layers) util += m.stats.fpu_utilization();
    std::printf("avg FPU util %5.1f%%  output spikes:",
                100.0 * util / static_cast<double>(res.layers.size()));
    for (int i = 0; i < res.final_output.c; ++i) {
      std::printf(" %d", res.final_output.v[static_cast<std::size_t>(i)]);
    }
    std::printf("\n");
  }

  // 4) Scale out: the same network on 4 simulated clusters. The sharded
  //    backend computes each layer once and prices each cluster's
  //    output-channel tile of it (plus the NoC traffic between them), so
  //    the spikes are bit-identical and only the modeled cycles change.
  k::RunOptions opt;
  opt.fmt = sc::FpFormat::FP16;
  rt::BackendConfig sharded;
  sharded.kind = rt::BackendKind::kSharded;
  sharded.clusters = 4;
  rt::InferenceEngine engine(net, opt, sharded);
  const rt::InferenceResult res = engine.run(image);
  std::printf("%-12s: %8.1f kcycles (4 clusters)       output spikes:",
              engine.backend().name(), res.total_cycles / 1e3);
  for (int i = 0; i < res.final_output.c; ++i) {
    std::printf(" %d", res.final_output.v[static_cast<std::size_t>(i)]);
  }
  std::printf("\n");

  std::printf("\nAll backends compute identical spikes; SpikeStream just "
              "gets them sooner,\nand sharding spreads them over clusters.\n");
  return 0;
}
