// Threshold calibration: targets should be hit on the calibration batch and
// generalize to held-out images.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/network.hpp"
#include "snn/reference.hpp"

namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

/// Oracle for the thresholds calibrate_thresholds picked: recompute every
/// layer's pooled input currents through the golden reference on the
/// calibrated network (each layer sees the same calibrated prefix
/// calibration did), fully sort them, and read the (1 - target) quantile.
/// `rates` receives each layer's output firing rate over all images.
std::vector<float> sorted_quantile_thresholds(
    const snn::Network& net, const std::vector<snn::Tensor>& images,
    const std::vector<double>& targets, std::vector<double>& rates) {
  std::vector<std::vector<float>> pools(net.num_layers());
  std::vector<std::size_t> spikes(net.num_layers()), neurons(net.num_layers());
  snn::Reference ref(net);
  for (const auto& img : images) {
    ref.reset();
    const auto& io = ref.step(img);
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      spikes[l] += snn::spike_count(io[l].output);
      neurons[l] += io[l].output.size();
      const snn::LayerWeights& w = net.weights(l);
      snn::Tensor cur;
      switch (net.layer(l).kind) {
        case snn::LayerKind::kEncodeConv:
          cur = snn::Reference::conv_currents_dense(io[l].dense_input, w);
          break;
        case snn::LayerKind::kConv:
          cur = snn::Reference::conv_currents(io[l].spike_input, w);
          break;
        case snn::LayerKind::kFc:
          cur = snn::Reference::fc_currents(io[l].spike_input, w);
          break;
      }
      pools[l].insert(pools[l].end(), cur.v.begin(), cur.v.end());
    }
  }
  rates.clear();
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    rates.push_back(static_cast<double>(spikes[l]) /
                    static_cast<double>(neurons[l]));
  }
  std::vector<float> out;
  for (std::size_t l = 0; l < pools.size(); ++l) {
    std::vector<float>& pool = pools[l];
    std::sort(pool.begin(), pool.end());
    const auto qi = static_cast<std::size_t>(
        std::clamp((1.0 - targets[l]) * static_cast<double>(pool.size()), 0.0,
                   static_cast<double>(pool.size() - 1)));
    out.push_back(pool[qi] <= 0.0f ? 1e-3f : pool[qi]);
  }
  return out;
}

void expect_thresholds_match_sorted_quantiles(
    snn::Network net, const std::vector<snn::Tensor>& images,
    const std::vector<double>& targets) {
  const std::vector<double> achieved =
      snn::calibrate_thresholds(net, images, targets);
  std::vector<double> rates;
  const std::vector<float> expect =
      sorted_quantile_thresholds(net, images, targets, rates);
  EXPECT_EQ(rates, achieved);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const snn::LifParams& lif = net.layer(l).lif;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(expect[l]),
              std::bit_cast<std::uint32_t>(lif.v_th))
        << net.layer(l).name << ": " << expect[l] << " vs " << lif.v_th;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(lif.v_th),
              std::bit_cast<std::uint32_t>(lif.v_rst))
        << net.layer(l).name;
  }
}

}  // namespace

TEST(Calibrate, Svgg11ThresholdsEqualSortedQuantiles) {
  snn::Network net = snn::Network::make_svgg11();
  sc::Rng rng(1);
  net.init_weights(rng);
  expect_thresholds_match_sorted_quantiles(net, snn::make_batch(2, 20),
                                           snn::svgg11_target_rates());
}

TEST(Calibrate, Svgg11ThresholdsEqualSortedQuantilesOnThreeImages) {
  // Three images on the S-VGG11 fan-out: an image count that is not a
  // multiple of the executor count on a 2- or 4-thread host.
  snn::Network net = snn::Network::make_svgg11();
  sc::Rng rng(1);
  net.init_weights(rng);
  expect_thresholds_match_sorted_quantiles(net, snn::make_batch(3, 21),
                                           snn::svgg11_target_rates());
}

TEST(Calibrate, DeepTowerThresholdsEqualSortedQuantiles) {
  snn::Network net = snn::Network::make_deep_tower();
  sc::Rng rng(1);
  net.init_weights(rng);
  expect_thresholds_match_sorted_quantiles(
      net, snn::make_batch(4, 20, 6, 6, 3), snn::deep_tower_target_rates());
}

TEST(Calibrate, HitsTargetRatesOnCalibrationBatch) {
  snn::Network net = snn::Network::make_tiny(12, 3, 8, 6);
  sc::Rng rng(1);
  net.init_weights(rng);
  const auto images = snn::make_batch(6, 55, 10, 10, 3);
  const std::vector<double> targets = {0.2, 0.15, 0.3};
  const auto achieved = snn::calibrate_thresholds(net, images, targets);
  ASSERT_EQ(achieved.size(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_NEAR(achieved[l], targets[l], 0.05) << "layer " << l;
    EXPECT_GT(net.layer(l).lif.v_th, 0.0f);
  }
}

TEST(Calibrate, GeneralizesToHeldOutImages) {
  snn::Network net = snn::Network::make_tiny(12, 3, 8, 6);
  sc::Rng rng(2);
  net.init_weights(rng);
  const auto calib = snn::make_batch(8, 10, 10, 10, 3);
  const std::vector<double> targets = {0.25, 0.2, 0.3};
  snn::calibrate_thresholds(net, calib, targets);

  const auto held_out = snn::make_batch(8, 999, 10, 10, 3);
  snn::Reference ref(net);
  sc::RunningStats rate_l0;
  for (const auto& img : held_out) {
    ref.reset();
    const auto& io = ref.step(img);
    rate_l0.add(snn::firing_rate(io[0].output));
  }
  EXPECT_NEAR(rate_l0.mean(), 0.25, 0.10);
}

TEST(Calibrate, MonotoneRateInThreshold) {
  // Property: raising v_th after calibration can only reduce the rate.
  snn::Network net = snn::Network::make_tiny(10, 3, 6, 4);
  sc::Rng rng(3);
  net.init_weights(rng);
  const auto images = snn::make_batch(4, 77, 8, 8, 3);
  const std::vector<double> mono_targets = {0.3, 0.2, 0.2};
  snn::calibrate_thresholds(net, images, mono_targets);

  auto rate_at = [&](float scale) {
    snn::Network n2 = net;
    n2.layer(0).lif.v_th *= scale;
    n2.layer(0).lif.v_rst = n2.layer(0).lif.v_th;
    snn::Reference ref(n2);
    double acc = 0;
    for (const auto& img : images) {
      ref.reset();
      acc += snn::firing_rate(ref.step(img)[0].output);
    }
    return acc / static_cast<double>(images.size());
  };
  EXPECT_GE(rate_at(0.5f), rate_at(1.0f) - 1e-9);
  EXPECT_GE(rate_at(1.0f), rate_at(2.0f) - 1e-9);
}

TEST(Calibrate, Svgg11ProfileDecreasingWithDepth) {
  const auto targets = snn::svgg11_target_rates();
  ASSERT_EQ(targets.size(), 8u);
  // Mid-network rates decrease with depth (the paper's sparsity trend),
  // and FC layers are extremely sparse.
  for (std::size_t l = 2; l + 2 < targets.size(); ++l) {
    EXPECT_GE(targets[l], targets[l + 1]) << l;
  }
  EXPECT_LE(targets[6], 0.06);
}
