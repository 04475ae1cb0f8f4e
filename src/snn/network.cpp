#include "snn/network.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "common/worker_pool.hpp"

namespace spikestream::snn {

void Network::add_layer(const LayerSpec& spec) {
  LayerWeights w;
  w.k = spec.kind == LayerKind::kFc ? 1 : spec.k;
  w.in_c = spec.in_c;
  w.out_c = spec.out_c;
  w.v.assign(static_cast<std::size_t>(w.k) * w.k *
                 static_cast<std::size_t>(w.in_c) *
                 static_cast<std::size_t>(w.out_c),
             0.0f);
  layers_.push_back(spec);
  weights_.push_back(std::move(w));
}

namespace {

/// Weights per init chunk. Chunks never straddle a layer, so each has one
/// stddev; one task replays one chunk of the Rng stream.
constexpr std::size_t kInitChunk = std::size_t{1} << 16;

/// Weights per pack block: small enough that a block narrowed in place is
/// still in L1 when the exactness pass re-reads it, so quantize-and-pack
/// streams each layer through memory once.
constexpr std::size_t kPackBlock = 2048;

/// Weights per FP16 pack task (a whole number of blocks).
constexpr std::size_t kPackRange = 16 * kPackBlock;

/// Set-up fans out only when every executor gets at least this many weights,
/// so small networks (the deep tower: ~10 k weights) stay on the calling
/// thread and start no worker.
constexpr std::size_t kWeightsPerExecutor = std::size_t{1} << 18;

/// [lo, hi) of one layer's weights: the task unit of the set-up fan-outs.
struct WeightRange {
  std::size_t layer, lo, hi;
};

/// Every layer cut into ranges of at most `len` weights, in weight order.
std::vector<WeightRange> split_layers(const std::vector<LayerWeights>& ws,
                                      std::size_t len) {
  std::vector<WeightRange> out;
  for (std::size_t l = 0; l < ws.size(); ++l) {
    const std::size_t n = ws[l].v.size();
    for (std::size_t lo = 0; lo < n; lo += len) {
      out.push_back({l, lo, std::min(lo + len, n)});
    }
  }
  return out;
}

/// Rounds w.v[lo, hi) to binary16 in place and packs it into w.half (already
/// sized), block by block; returns whether every packed value round-trips.
bool narrow_and_pack(LayerWeights& w, std::size_t lo, std::size_t hi) {
  bool exact = true;
  for (std::size_t b = lo; b < hi; b += kPackBlock) {
    const std::size_t len = std::min(kPackBlock, hi - b);
    float* v = w.v.data() + b;
    std::uint16_t* h = w.half.data() + b;
    common::simd::pack_half(v, h, v, len);
    exact = common::simd::pack_half(v, h, nullptr, len) && exact;
  }
  return exact;
}

}  // namespace

std::size_t Network::num_weights() const {
  std::size_t n = 0;
  for (const LayerWeights& w : weights_) n += w.v.size();
  return n;
}

// Bit-identical to the serial loop `x = rng.normal(0, stddev)` over every
// weight in order. normal() consumes exactly two draws, so task 0 steps the
// stream once (cheap: no Box-Muller), recording the state at each chunk
// start, while tasks 1..n replay chunk c from its recorded state as soon as
// it is published. Tasks are claimed in index order, so the stepper is
// running before any replay waits on it, and a zero-thread pool runs it to
// the end first. The stepper leaves `rng` where the serial loop would.
void Network::init_weights(common::Rng& rng) {
  const std::vector<WeightRange> chunks = split_layers(weights_, kInitChunk);
  std::vector<common::Rng> starts(chunks.size(), rng);
  std::atomic<std::size_t> published{0};
  common::WorkerPool pool(
      common::WorkerPool::threads_for(num_weights(), kWeightsPerExecutor));
  auto task = [&](std::size_t, std::size_t t) {
    if (t == 0) {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        starts[c] = rng;
        published.store(c + 1, std::memory_order_release);
        published.notify_all();
        rng.discard(2 * (chunks[c].hi - chunks[c].lo));
      }
      return;
    }
    const std::size_t c = t - 1;
    for (std::size_t p = published.load(std::memory_order_acquire); p <= c;
         p = published.load(std::memory_order_acquire)) {
      published.wait(p, std::memory_order_acquire);
    }
    common::Rng r = starts[c];
    const WeightRange& ch = chunks[c];
    const double stddev =
        std::sqrt(2.0 / static_cast<double>(layers_[ch.layer].fan_in()));
    float* v = weights_[ch.layer].v.data();
    for (std::size_t i = ch.lo; i < ch.hi; ++i) {
      v[i] = static_cast<float>(r.normal(0.0, stddev));
    }
  };
  pool.parallel_for(chunks.size() + 1,
                    static_cast<std::size_t>(pool.slots()), task);
}

// Packing stops at the first block that does not round-trip, so an FP32
// layer touches little of `half`.
void LayerWeights::build_half() {
  half.clear();
  half.reserve(v.size());
  bool exact = true;
  for (std::size_t lo = 0; lo < v.size() && exact; lo += kPackBlock) {
    const std::size_t len = std::min(kPackBlock, v.size() - lo);
    half.resize(lo + len);
    exact = common::simd::pack_half(v.data() + lo, half.data() + lo, nullptr,
                                    len);
  }
  half_exact = exact;
  if (!exact) half.clear();
}

void Network::quantize_weights(common::FpFormat fmt) {
  if (fmt != common::FpFormat::FP16) {
    for (auto& w : weights_) {
      for (float& x : w.v) x = common::quantize(x, fmt);
      w.build_half();
    }
    return;
  }
  // FP16 narrows and packs every block, so layers split into ranges that
  // run concurrently; `half` is sized here, on the calling thread, and each
  // layer's exactness is the AND of its ranges' flags.
  const std::vector<WeightRange> ranges = split_layers(weights_, kPackRange);
  for (LayerWeights& w : weights_) {
    w.half.resize(w.v.size());
    w.half_exact = true;
  }
  std::vector<char> exact(ranges.size(), 1);
  common::WorkerPool pool(
      common::WorkerPool::threads_for(num_weights(), kWeightsPerExecutor));
  auto task = [&](std::size_t, std::size_t r) {
    exact[r] = narrow_and_pack(weights_[ranges[r].layer], ranges[r].lo,
                               ranges[r].hi);
  };
  pool.parallel_for(ranges.size(), static_cast<std::size_t>(pool.slots()),
                    task);
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    if (!exact[r]) weights_[ranges[r].layer].half_exact = false;
  }
  for (LayerWeights& w : weights_) {
    if (!w.half_exact) w.half.clear();
  }
}

Network Network::make_svgg11() {
  Network net;
  auto conv = [&](const char* name, LayerKind kind, int in_hw, int in_c,
                  int out_c, bool pool) {
    LayerSpec s;
    s.kind = kind;
    s.name = name;
    s.in_h = s.in_w = in_hw;
    s.in_c = in_c;
    s.k = 3;
    s.out_c = out_c;
    s.pool_after = pool;
    s.pad_next = 1;
    net.add_layer(s);
  };
  // Padded ifmap shapes follow Fig. 3a exactly:
  conv("conv1", LayerKind::kEncodeConv, 34, 3, 64, false);   // 34x34x3
  conv("conv2", LayerKind::kConv, 34, 64, 128, true);        // 34x34x64
  conv("conv3", LayerKind::kConv, 18, 128, 256, false);      // 18x18x128
  conv("conv4", LayerKind::kConv, 18, 256, 256, true);       // 18x18x256
  conv("conv5", LayerKind::kConv, 10, 256, 512, false);      // 10x10x256
  conv("conv6", LayerKind::kConv, 10, 512, 512, true);       // 10x10x512
  // After conv6: 8x8 -> pool -> 4x4x512 = 8192 inputs to the classifier.
  LayerSpec fc7;
  fc7.kind = LayerKind::kFc;
  fc7.name = "fc7";
  fc7.in_c = 4 * 4 * 512;
  fc7.out_c = 1024;
  net.add_layer(fc7);
  LayerSpec fc8;
  fc8.kind = LayerKind::kFc;
  fc8.name = "fc8";
  fc8.in_c = 1024;
  fc8.out_c = 10;
  net.add_layer(fc8);
  return net;
}

Network Network::make_wide_fc() {
  Network net;
  // Thin encode conv: 34x34x3 (padded CIFAR frame) -> 32x32x16, OR-pooled to
  // 16x16x16 = 4096 flattened classifier inputs.
  LayerSpec enc;
  enc.kind = LayerKind::kEncodeConv;
  enc.name = "enc";
  enc.in_h = enc.in_w = 34;
  enc.in_c = 3;
  enc.k = 3;
  enc.out_c = 16;
  enc.pool_after = true;
  net.add_layer(enc);
  auto fc = [&](const char* name, int in_c, int out_c) {
    LayerSpec s;
    s.kind = LayerKind::kFc;
    s.name = name;
    s.in_c = in_c;
    s.out_c = out_c;
    net.add_layer(s);
  };
  fc("fc1", 16 * 16 * 16, 512);  // squeeze
  // The spill vehicle: moderate fan-in keeps the co-tile wide (the planner
  // holds co_per_tile = 2048 at FP16 / 128 KiB SPM), so each batch lane's
  // partial-sum slice is co_per_tile * fb = 4 KiB and only ~14 lanes stay
  // resident — batches of 16-32 must spill through DRAM.
  fc("fc2", 512, 4096);
  fc("fc3", 4096, 10);  // head
  return net;
}

Network Network::make_deep_tower(int depth, int in_hw, int channels) {
  SPK_CHECK(in_hw >= 5, "deep tower needs at least 5x5 inputs");
  SPK_CHECK(depth >= 1, "deep tower needs at least one conv layer");
  Network net;
  LayerSpec enc;
  enc.kind = LayerKind::kEncodeConv;
  enc.name = "enc";
  enc.in_h = enc.in_w = in_hw;
  enc.in_c = 3;
  enc.k = 3;
  enc.out_c = channels;
  enc.pad_next = 1;
  net.add_layer(enc);
  // Identical tiny convs: output re-padded to the same spatial size, so every
  // tower layer presents the same ifmap geometry — the balanced shape the
  // stage planner splits into near-equal pipeline stages.
  for (int d = 1; d <= depth; ++d) {
    LayerSpec s;
    s.kind = LayerKind::kConv;
    s.name = "conv" + std::to_string(d);
    s.in_h = s.in_w = in_hw;
    s.in_c = channels;
    s.k = 3;
    s.out_c = channels;
    s.pad_next = 1;
    net.add_layer(s);
  }
  LayerSpec head;
  head.kind = LayerKind::kFc;
  head.name = "fc";
  head.in_c = (in_hw - 2) * (in_hw - 2) * channels;
  head.out_c = 10;
  net.add_layer(head);
  return net;
}

Network Network::make_tiny(int in_hw, int in_c, int mid_c, int out_n) {
  SPK_CHECK(in_hw >= 5, "tiny network needs at least 5x5 inputs");
  Network net;
  LayerSpec l1;
  l1.kind = LayerKind::kEncodeConv;
  l1.name = "enc";
  l1.in_h = l1.in_w = in_hw;
  l1.in_c = in_c;
  l1.k = 3;
  l1.out_c = mid_c;
  net.add_layer(l1);

  LayerSpec l2;
  l2.kind = LayerKind::kConv;
  l2.name = "conv";
  l2.in_h = l2.in_w = in_hw;  // output re-padded to the same spatial size
  l2.in_c = mid_c;
  l2.k = 3;
  l2.out_c = mid_c;
  net.add_layer(l2);

  LayerSpec l3;
  l3.kind = LayerKind::kFc;
  l3.name = "fc";
  l3.in_c = (in_hw - 2) * (in_hw - 2) * mid_c;
  l3.out_c = out_n;
  net.add_layer(l3);
  return net;
}

}  // namespace spikestream::snn
