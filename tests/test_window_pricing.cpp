// Window pricing pinned bit for bit: the full KernelStats that time_window
// produces for a conv layer, under every code variant and both narrow
// formats, over the whole layer, an output-channel window and an
// output-row window. One deep-tower layer (8 channels, the narrow regime)
// and one S-VGG11 layer (conv5) on seeded random spike maps. The pinned
// values are the model's numbers; a host-side speed-up of the pricer must
// leave every one of them unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/layer_kernels.hpp"
#include "snn/network.hpp"

namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

/// Interior-only random spikes (borders are the zero padding of the layer
/// input), every byte 0 or 1.
snn::SpikeMap padded_spikes(int h, int w, int c, double rate,
                            std::uint64_t seed) {
  sc::Rng rng(seed);
  snn::SpikeMap s(h, w, c);
  for (int y = 1; y < h - 1; ++y) {
    for (int x = 1; x < w - 1; ++x) {
      for (int ch = 0; ch < c; ++ch) s.at(y, x, ch) = rng.bernoulli(rate);
    }
  }
  return s;
}

snn::SpikeMap dense_spikes(int h, int w, int c, double rate,
                           std::uint64_t seed) {
  sc::Rng rng(seed);
  snn::SpikeMap s(h, w, c);
  for (auto& b : s.v) b = rng.bernoulli(rate);
  return s;
}

/// Every field of KernelStats, in declaration order.
std::vector<double> fields(const k::KernelStats& st) {
  std::vector<double> f = {
      st.cycles,          st.compute_cycles,
      st.dma_cycles,      st.fpu_ops,
      st.fpu_mac_ops,     st.int_instrs,
      st.tcdm_words,      st.ssr_elems,
      st.dma_bytes,       st.dma_saved_bytes,
      st.dma_bytes_spill, st.noc_bytes,
      st.dma_row_hits,    st.dma_row_misses,
      st.dma_cycles_hidden, st.noc_contention_cycles,
      st.fifo_stall_cycles, st.ecc_words,
      st.ecc_corrected,   st.ecc_uncorrectable,
      st.ecc_cycles,      static_cast<double>(st.active_cores)};
  f.insert(f.end(), st.core_cycles.begin(), st.core_cycles.end());
  return f;
}

/// FNV-1a over the bit patterns of every field, the per-core vector and the
/// window's spike count: equal digests mean bit-identical stats.
std::uint64_t digest(const k::KernelStats& st, std::size_t out_nnz) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(st.core_cycles.size());
  for (double v : fields(st)) mix(std::bit_cast<std::uint64_t>(v));
  mix(out_nnz);
  return h;
}

struct Pinned {
  const char* name;
  double cycles, fpu_ops, int_instrs, tcdm_words, ssr_elems;
  std::uint64_t digest;
};

// Captured from the pricer before its accumulation moved into locals.
// Order: layer (tower, svgg11) x window (whole, channels, rows) x variant
// (baseline, spikestream, dense-no-tc) x format (FP16, FP8).
const Pinned kPinned[] = {
    {"tower/whole/baseline/fp16",
     0x1.b768p+11, 0x1.0bp+9,
     0x1.f2ep+13, 0x1.1fbp+10, 0x0p+0,
     0x0b6029bd17d38262ull},
    {"tower/whole/baseline/fp8",
     0x1.05e8p+11, 0x1.0bp+8,
     0x1.076p+13, 0x1.226p+9, 0x0p+0,
     0xceb10243bd5196feull},
    {"tower/whole/spikestream/fp16",
     0x1.3768p+11, 0x1.0bp+9,
     0x1.44ep+13, 0x1.772p+9, 0x1.0bp+9,
     0x277d17ecd2983ab1ull},
    {"tower/whole/spikestream/fp8",
     0x1.8f5p+10, 0x1.0bp+8,
     0x1.60cp+12, 0x1.7c8p+8, 0x1.0bp+8,
     0xfdfbc5c56ff8827cull},
    {"tower/whole/dense-no-tc/fp16",
     0x1.32c365765051bp+11, 0x1.44p+12,
     0x1.e7cp+12, 0x1.4696p+13, 0x1.44p+13,
     0xcecbe6ee56898d7eull},
    {"tower/whole/dense-no-tc/fp8",
     0x1.76ab65765051bp+10, 0x1.44p+11,
     0x1.0fcp+12, 0x1.46ecp+12, 0x1.44p+12,
     0x710b567ddd7497dbull},
    {"tower/channels/baseline/fp16",
     0x1.b55p+11, 0x1.0bp+9,
     0x1.f0cp+13, 0x1.1eap+10, 0x0p+0,
     0x8013a2841e795da3ull},
    {"tower/channels/baseline/fp8",
     0x1.0528p+11, 0x1.0bp+8,
     0x1.054p+13, 0x1.204p+9, 0x0p+0,
     0xe0ed20374248c76aull},
    {"tower/channels/spikestream/fp16",
     0x1.361p+11, 0x1.0bp+9,
     0x1.42cp+13, 0x1.75p+9, 0x1.0bp+9,
     0xd953363c93d0bef1ull},
    {"tower/channels/spikestream/fp8",
     0x1.8e5p+10, 0x1.0bp+8,
     0x1.5c8p+12, 0x1.784p+8, 0x1.0bp+8,
     0x67a60ccc8e03154cull},
    {"tower/channels/dense-no-tc/fp16",
     0x1.31eb65765051bp+11, 0x1.44p+12,
     0x1.e38p+12, 0x1.4674p+13, 0x1.44p+13,
     0x7729515fa82ecaa7ull},
    {"tower/channels/dense-no-tc/fp8",
     0x1.76ab65765051bp+10, 0x1.44p+11,
     0x1.0b8p+12, 0x1.46a8p+12, 0x1.44p+12,
     0xbb36f688233caff0ull},
    {"tower/rows/baseline/fp16",
     0x1.1d06p+11, 0x1.12p+8,
     0x1.f78p+12, 0x1.274p+9, 0x0p+0,
     0xa0c9d7381234c168ull},
    {"tower/rows/baseline/fp8",
     0x1.67ccp+10, 0x1.12p+7,
     0x1.0a4p+12, 0x1.2a8p+8, 0x0p+0,
     0x6768f39a7d77db2dull},
    {"tower/rows/spikestream/fp16",
     0x1.a78cp+10, 0x1.12p+8,
     0x1.46p+12, 0x1.81p+8, 0x1.12p+8,
     0xe6ae1beff9955c77ull},
    {"tower/rows/spikestream/fp8",
     0x1.208cp+10, 0x1.12p+7,
     0x1.63p+11, 0x1.878p+7, 0x1.12p+7,
     0x06a8ea505041dbf0ull},
    {"tower/rows/dense-no-tc/fp16",
     0x1.a3f9acf46062p+10, 0x1.44p+11,
     0x1.eap+11, 0x1.46a8p+12, 0x1.44p+12,
     0x4de9beca95328e0cull},
    {"tower/rows/dense-no-tc/fp8",
     0x1.13c2d67a3031p+10, 0x1.44p+10,
     0x1.12p+11, 0x1.471p+11, 0x1.44p+11,
     0xb309f8838dbaccdbull},
    {"svgg11/whole/baseline/fp16",
     0x1.6622e8p+21, 0x1.d3ap+20,
     0x1.fc0458p+23, 0x1.d4b916p+21, 0x0p+0,
     0xb81425689cbaec07ull},
    {"svgg11/whole/baseline/fp8",
     0x1.67bddp+20, 0x1.d3ap+19,
     0x1.fee8bp+22, 0x1.d4d22cp+20, 0x0p+0,
     0x843876646df31760ull},
    {"svgg11/whole/spikestream/fp16",
     0x1.12dcde1b0b6d4p+19, 0x1.d3ap+20,
     0x1.1f22cp+20, 0x1.255d16p+21, 0x1.d3ap+20,
     0xb6400852d71d3735ull},
    {"svgg11/whole/spikestream/fp8",
     0x1.13737e1b0b6d4p+18, 0x1.d3ap+19,
     0x1.36458p+19, 0x1.25762cp+20, 0x1.d3ap+19,
     0x88262bc283f41960ull},
    {"svgg11/whole/dense-no-tc/fp16",
     0x1.34e50ff08082bp+22, 0x1.2p+24,
     0x1.ae458p+19, 0x1.2011916p+25, 0x1.2p+25,
     0x070f1ffd84eae105ull},
    {"svgg11/whole/dense-no-tc/fp8",
     0x1.34f7e3f08082bp+21, 0x1.2p+23,
     0x1.dc8bp+18, 0x1.201322cp+24, 0x1.2p+24,
     0xfaf2178a78564be3ull},
    {"svgg11/channels/baseline/fp16",
     0x1.50b7cp+18, 0x1.b666p+17,
     0x1.dc408p+20, 0x1.b76cap+18, 0x0p+0,
     0xee50e2d8b420cc0aull},
    {"svgg11/channels/baseline/fp8",
     0x1.69b28p+17, 0x1.d3ap+16,
     0x1.fed5p+19, 0x1.d4cd4p+17, 0x0p+0,
     0xa92e3133362886b5ull},
    {"svgg11/channels/spikestream/fp16",
     0x1.058eda395ab67p+16, 0x1.b666p+17,
     0x1.0d14p+17, 0x1.13066p+18, 0x1.b666p+17,
     0xd84de6a209ee4707ull},
    {"svgg11/channels/spikestream/fp8",
     0x1.1b683e1b0b6d4p+15, 0x1.d3ap+16,
     0x1.35a8p+16, 0x1.25714p+17, 0x1.d3ap+16,
     0x0bd6fdaccbb58311ull},
    {"svgg11/channels/dense-no-tc/fp16",
     0x1.2212b831787a8p+19, 0x1.0ep+21,
     0x1.9328p+16, 0x1.0e106ap+22, 0x1.0ep+22,
     0x0f5ce9d4984553d1ull},
    {"svgg11/channels/dense-no-tc/fp8",
     0x1.35f67bf08082bp+18, 0x1.2p+20,
     0x1.db5p+15, 0x1.2012d4p+21, 0x1.2p+21,
     0x92879065b57018c2ull},
    {"svgg11/rows/baseline/fp16",
     0x1.93a2fb8p+20, 0x1.01fp+20,
     0x1.1622ap+23, 0x1.027ca8p+21, 0x0p+0,
     0xf72c944e07cd816bull},
    {"svgg11/rows/baseline/fp8",
     0x1.955df7p+19, 0x1.01fp+19,
     0x1.17954p+22, 0x1.02895p+20, 0x0p+0,
     0x540cc97ec142a203ull},
    {"svgg11/rows/spikestream/fp16",
     0x1.3687eda3ef7c4p+18, 0x1.01fp+20,
     0x1.1f2ap+19, 0x1.43855p+20, 0x1.01fp+20,
     0x663cf88083e67a97ull},
    {"svgg11/rows/spikestream/fp8",
     0x1.37a8dba3ef7c4p+17, 0x1.01fp+19,
     0x1.3654p+18, 0x1.439eap+19, 0x1.01fp+19,
     0x93dd60910734e3acull},
    {"svgg11/rows/dense-no-tc/fp16",
     0x1.34f659b08082bp+21, 0x1.2p+23,
     0x1.ae54p+18, 0x1.201195p+24, 0x1.2p+24,
     0x7d021181bfe3f937ull},
    {"svgg11/rows/dense-no-tc/fp8",
     0x1.351a77708082bp+20, 0x1.2p+22,
     0x1.dca8p+17, 0x1.20132ap+23, 0x1.2p+23,
     0xb4097dc506835572ull},
};

// Whether the compiler fuses the stream profile's
// `fadd_latency * s * stretch + ss_residue` into a multiply-add depends on
// the target and the optimization level (GCC on an FMA target fuses it at
// -O3 and not at -O0). Unfused, two S-VGG11 row windows differ in the
// last bit of two cores' cycles (every other field, and every other window,
// is equal). Their digests without fusion, captured the same way:
const std::pair<const char*, std::uint64_t> kUnfusedDigests[] = {
    {"svgg11/rows/spikestream/fp16", 0x26eeb2dadd27397full},
    {"svgg11/rows/spikestream/fp8", 0x1aa6b53bbf1d5b68ull},
};

/// Whether `got` is a pinned digest of window `p`: the fused one, or for the
/// windows above the unfused one.
bool digest_pinned(const Pinned& p, std::uint64_t got) {
  if (got == p.digest) return true;
  for (const auto& [name, digest] : kUnfusedDigests) {
    if (std::string(name) == p.name) return got == digest;
  }
  return false;
}

}  // namespace

TEST(WindowPricing, ConvStatsPinnedBitForBit) {
  const snn::Network tower = snn::Network::make_deep_tower();
  const snn::Network vgg = snn::Network::make_svgg11();
  struct Layer {
    const char* name;
    snn::LayerSpec spec;
    double in_rate, out_rate;
    k::PriceWindow channels, rows;
  };
  const Layer layers[] = {
      {"tower", tower.layer(1), 0.17, 0.15, {2, 7, 0, 6}, {0, 8, 1, 4}},
      {"svgg11", vgg.layer(4), 0.12, 0.10, {40, 100, 0, 8}, {0, 512, 3, 7}},
  };
  const k::Variant variants[] = {k::Variant::kBaseline,
                                 k::Variant::kSpikeStream,
                                 k::Variant::kDenseNoTc};
  const sc::FpFormat fmts[] = {sc::FpFormat::FP16, sc::FpFormat::FP8};

  std::size_t i = 0;
  std::string table;
  int seed = 11;
  for (const Layer& layer : layers) {
    const snn::LayerSpec& spec = layer.spec;
    ASSERT_EQ(spec.kind, snn::LayerKind::kConv);
    const auto csr = spikestream::compress::CsrIfmap::encode(padded_spikes(
        spec.in_h, spec.in_w, spec.in_c, layer.in_rate, seed++));
    const snn::SpikeMap out = dense_spikes(spec.out_h(), spec.out_w(),
                                           spec.out_c, layer.out_rate, seed++);
    const std::pair<const char*, k::PriceWindow> windows[] = {
        {"whole", k::whole_layer(spec)},
        {"channels", layer.channels},
        {"rows", layer.rows}};
    for (const auto& [wname, win] : windows) {
      for (k::Variant v : variants) {
        for (sc::FpFormat fmt : fmts) {
          k::RunOptions opt;
          opt.variant = v;
          opt.fmt = fmt;
          k::KernelScratch ks;
          k::conv_stream_profile(spec, csr, opt, ks.profile);
          k::time_window(spec, &csr, ks.profile, out, win, opt, ks);
          const k::KernelStats& st = ks.run.stats;
          const std::string name = std::string(layer.name) + "/" + wname +
                                   "/" + k::variant_name(v) + "/" +
                                   (fmt == sc::FpFormat::FP8 ? "fp8" : "fp16");
          char line[512];
          std::snprintf(line, sizeof line,
                        "    {\"%s\",\n     %a, %a,\n     %a, %a, %a,\n"
                        "     0x%016llxull},\n",
                        name.c_str(), st.cycles, st.fpu_ops, st.int_instrs,
                        st.tcdm_words, st.ssr_elems,
                        static_cast<unsigned long long>(
                            digest(st, ks.run.out_nnz)));
          table += line;
          if (i >= std::size(kPinned)) {
            ADD_FAILURE() << "no pinned entry for " << name;
            ++i;
            continue;
          }
          const Pinned& p = kPinned[i++];
          EXPECT_EQ(name, p.name);
          EXPECT_EQ(st.cycles, p.cycles) << name;
          EXPECT_EQ(st.fpu_ops, p.fpu_ops) << name;
          EXPECT_EQ(st.int_instrs, p.int_instrs) << name;
          EXPECT_EQ(st.tcdm_words, p.tcdm_words) << name;
          EXPECT_EQ(st.ssr_elems, p.ssr_elems) << name;
          EXPECT_TRUE(digest_pinned(p, digest(st, ks.run.out_nnz)))
              << name << ": some KernelStats field or the per-core cycles "
                         "changed";
        }
      }
    }
  }
  EXPECT_EQ(i, std::size(kPinned));
  if (HasFailure()) std::printf("Measured table:\n%s", table.c_str());
}
