#include "snn/calibrate.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/worker_pool.hpp"
#include "snn/reference.hpp"

namespace spikestream::snn {

std::vector<double> svgg11_target_rates() {
  // Output rates chosen so the resulting ifmap firing-activity profile
  // follows the paper's Fig. 3a: moderate activity after encoding, a peak in
  // the mid layers, increasing sparsity with depth, extreme sparsity in FC.
  return {0.15,   // conv1 output = conv2 ifmap activity
          0.30,   // conv2 -> conv3
          0.22,   // conv3 -> conv4
          0.18,   // conv4 -> conv5
          0.10,   // conv5 -> conv6
          0.06,   // conv6 -> fc7
          0.04,   // fc7 -> fc8
          0.10};  // fc8 output (10 classes; ~1 winner)
}

std::vector<double> wide_fc_target_rates() {
  // Same flavour as the S-VGG11 profile, on the 4-layer spill vehicle:
  // active encode output, increasingly sparse FC stack.
  return {0.25,   // enc output = fc1 ifmap activity
          0.08,   // fc1 -> fc2
          0.05,   // fc2 -> fc3
          0.10};  // fc3 output (10 classes)
}

std::vector<double> deep_tower_target_rates(int depth) {
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(depth) + 2);
  rates.push_back(0.25);  // enc output = conv1 ifmap activity
  for (int d = 0; d < depth; ++d) {
    // Flat mid-tower profile: identical geometry + identical rates keep the
    // per-layer service times even, so balanced stage splits exist.
    rates.push_back(0.18);
  }
  rates.push_back(0.10);  // head (10 classes; ~1 winner)
  return rates;
}

namespace {

/// Image-weight products per executor below which calibration stays on the
/// calling thread: the deep tower (~10 k weights) never starts a worker.
constexpr std::size_t kImageWeightsPerExecutor = std::size_t{1} << 20;

}  // namespace

// Each image's currents, LIF, pool and pad depend only on that image, so
// they fan out one task per image; the pooled quantile select stays serial
// and pools in image order. Every per-image buffer is shaped here, on the
// calling thread, before the fan-out that writes it, so workers never
// allocate.
std::vector<double> calibrate_thresholds(Network& net,
                                         std::span<const Tensor> images,
                                         std::span<const double> target_rates) {
  SPK_CHECK(target_rates.size() >= net.num_layers(),
            "need one target rate per layer");
  SPK_CHECK(!images.empty(), "need at least one calibration image");

  const std::size_t n_img = images.size();
  const std::size_t n_layers = net.num_layers();
  std::vector<double> achieved(n_layers, 0.0);

  common::WorkerPool workers(
      std::min(common::WorkerPool::threads_for(n_img * net.num_weights(),
                                               kImageWeightsPerExecutor),
               static_cast<int>(n_img) - 1));

  // Per image: the spike map flowing into the current layer, and the
  // layer's padded input (encode), currents, membrane and output spikes.
  std::vector<SpikeMap> carry(n_img), fired(n_img), pooled(n_img);
  std::vector<Tensor> padded(n_img), currents(n_img), membrane(n_img);
  std::vector<std::size_t> spikes(n_img);

  for (std::size_t l = 0; l < n_layers; ++l) {
    LayerSpec& spec = net.layer(l);
    const LayerWeights& w = net.weights(l);
    const bool last = l + 1 == n_layers;
    const bool to_fc = !last && net.layer(l + 1).kind == LayerKind::kFc;

    // 1) Input currents for every calibration image (threshold-independent).
    for (std::size_t i = 0; i < n_img; ++i) {
      if (spec.kind == LayerKind::kEncodeConv) {
        const int p = (spec.in_h - images[i].h) / 2;
        padded[i].reshape(images[i].h + 2 * p, images[i].w + 2 * p,
                          images[i].c);
        currents[i].reshape(padded[i].h - w.k + 1, padded[i].w - w.k + 1,
                            w.out_c);
      } else if (spec.kind == LayerKind::kConv) {
        currents[i].reshape(carry[i].h - w.k + 1, carry[i].w - w.k + 1,
                            w.out_c);
      } else {
        currents[i].reshape(1, 1, w.out_c);
      }
    }
    auto input_currents = [&](std::size_t, std::size_t i) {
      if (spec.kind == LayerKind::kEncodeConv) {
        Reference::pad_dense_into(images[i], (spec.in_h - images[i].h) / 2,
                                  padded[i]);
        Reference::conv_currents_dense_into(padded[i], w, currents[i]);
      } else if (spec.kind == LayerKind::kConv) {
        Reference::conv_currents_into(carry[i], w, currents[i]);
      } else {
        Reference::fc_currents_into(carry[i], w, currents[i]);
      }
    };
    workers.parallel_for(n_img, n_img, input_currents);

    // 2) v_th = (1 - target)-quantile of the pooled current distribution:
    // the element a full sort would put at index qi, selected in O(n).
    std::size_t pooled_size = 0;
    for (const auto& t : currents) pooled_size += t.v.size();
    std::vector<float> pool;
    pool.reserve(pooled_size);
    for (const auto& t : currents) pool.insert(pool.end(), t.v.begin(), t.v.end());
    const double target = target_rates[l];
    auto qi = static_cast<std::size_t>(
        std::clamp((1.0 - target) * static_cast<double>(pool.size()),
                   0.0, static_cast<double>(pool.size() - 1)));
    std::nth_element(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(qi),
                     pool.end());
    // Equal values are interchangeable except +-0, and either lands on the
    // positive floor below.
    float vth = pool[qi];
    if (vth <= 0.0f) vth = 1e-3f;  // keep thresholds positive
    spec.lif.v_th = vth;
    spec.lif.v_rst = vth;

    // 3) Fire with the chosen threshold and prepare the next layer's inputs.
    for (std::size_t i = 0; i < n_img; ++i) {
      const Tensor& cur = currents[i];
      membrane[i].reshape(cur.h, cur.w, cur.c);
      fired[i].reshape(cur.h, cur.w, cur.c);
      int h = cur.h, wd = cur.w;
      if (spec.pool_after) {
        h /= 2;
        wd /= 2;
        pooled[i].reshape(h, wd, cur.c);
      }
      if (to_fc) {
        carry[i].reshape(1, 1, h * wd * cur.c);
      } else if (!last) {
        carry[i].reshape(h + 2 * spec.pad_next, wd + 2 * spec.pad_next, cur.c);
      }
    }
    auto fire = [&](std::size_t, std::size_t i) {
      std::fill(membrane[i].v.begin(), membrane[i].v.end(), 0.0f);
      spikes[i] = lif_step_into(spec.lif, currents[i], membrane[i], fired[i]);
      const SpikeMap* out = &fired[i];
      if (spec.pool_after) {
        or_pool2_into(*out, pooled[i]);
        out = &pooled[i];
      }
      if (to_fc) {
        flatten_into(*out, carry[i]);
      } else if (!last) {
        pad_into(*out, spec.pad_next, carry[i]);
      }
    };
    workers.parallel_for(n_img, n_img, fire);
    std::size_t n_spikes = 0, total = 0;
    for (std::size_t i = 0; i < n_img; ++i) {
      n_spikes += spikes[i];
      total += fired[i].size();
    }
    achieved[l] = total ? static_cast<double>(n_spikes) /
                              static_cast<double>(total)
                        : 0.0;
  }
  return achieved;
}

}  // namespace spikestream::snn
