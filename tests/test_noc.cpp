// Hierarchical NoC model contract:
//  (1) the engine's contention gate only ever itemizes (gated == ungated +
//      itemized), the default topology is the quadrant ring, and a ring of
//      one quadrant prices exactly like the crossbar;
//  (2) link-level multicast charges each link exactly once: the crossbar
//      byte sum is the (1 + receivers) * payload lower bound, and a ring
//      multicast never moves more bytes than the equivalent unicast fan-out;
//  (3) contention is monotone — more traffic or narrower links never make
//      the fabric faster, and a ring never beats a crossbar on identical
//      traffic;
//  (4) switching topology changes timing attribution only: spikes and the
//      contention on/off byte counts are unaffected.
#include <gtest/gtest.h>

#include <vector>

#include "arch/noc.hpp"
#include "common/rng.hpp"
#include "kernels/partition.hpp"
#include "runtime/engine.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/network.hpp"

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace arch = spikestream::arch;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

snn::Network noc_test_net() {
  snn::Network net = snn::Network::make_tiny(18, 3, 32, 10);
  sc::Rng rng(42);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  snn::calibrate_thresholds(net, calib, targets);
  return net;
}

rt::BackendConfig noc_cfg(arch::NocTopology topo, bool contention,
                          int clusters = 4) {
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kSharded;
  cfg.clusters = clusters;
  cfg.shard_threads = false;
  cfg.partition = k::PartitionStrategy::kOutputChannel;
  cfg.noc.topology = topo;
  cfg.noc.model_contention = contention;
  return cfg;
}

arch::NocParams link_params(arch::NocTopology topo, int quadrant_size = 4) {
  arch::NocParams p;
  p.topology = topo;
  p.quadrant_size = quadrant_size;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Link model: multicast byte conservation
// ---------------------------------------------------------------------------

TEST(NocLink, CrossbarMulticastBytesAreTheReceiverLowerBound) {
  const arch::NocParams p = link_params(arch::NocTopology::kCrossbar);
  for (int n : {2, 4, 8}) {
    arch::NocModel m(p, n);
    const double payload = 640.0;
    m.multicast(0, 0, n, payload);
    // One injection + one ejection per receiver; a crossbar has no other
    // links, so the sum is exactly (1 + receivers) * payload.
    EXPECT_DOUBLE_EQ(m.total_link_bytes(), static_cast<double>(n) * payload);
    EXPECT_DOUBLE_EQ(m.max_link_bytes(), payload);
    EXPECT_EQ(m.max_hops(), 2);
  }
  // Self-only multicast moves nothing.
  arch::NocModel self(p, 4);
  self.multicast(2, 2, 3, 123.0);
  EXPECT_DOUBLE_EQ(self.total_link_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(self.cycles(), 0.0);
}

TEST(NocLink, RingMulticastChargesEachLinkOncePerLink) {
  // One switch per cluster: an 8-switch ring, worst case for flooding.
  const arch::NocParams p = link_params(arch::NocTopology::kRingQuadrant, 1);
  const double payload = 100.0;

  arch::NocModel mc(p, 8);
  mc.multicast(0, 0, 8, payload);

  // Equivalent unicast fan-out: the same payload once per receiver.
  arch::NocModel uc(p, 8);
  for (int d = 1; d < 8; ++d) uc.unicast(0, d, payload);

  // The multicast floods each direction once (cw to quadrant 4, ccw to
  // quadrant 5): injection + 7 ejections + 4 cw + 3 ccw link traversals.
  EXPECT_DOUBLE_EQ(mc.total_link_bytes(), (1 + 7 + 4 + 3) * payload);
  // The unicast fan-out re-injects per receiver and walks overlapping ring
  // paths: strictly more bytes, identical destinations.
  EXPECT_GT(uc.total_link_bytes(), mc.total_link_bytes());
  // Both reach quadrant 4 at the farthest: same worst route.
  EXPECT_EQ(mc.max_hops(), uc.max_hops());
  // Dedup also relieves the busiest wire.
  EXPECT_LE(mc.max_link_bytes(), uc.max_link_bytes());
}

// ---------------------------------------------------------------------------
// Link model: monotonicity and topology ordering
// ---------------------------------------------------------------------------

TEST(NocLink, MoreTrafficOrNarrowerLinksNeverSpeedTheFabricUp) {
  for (auto topo : {arch::NocTopology::kCrossbar,
                    arch::NocTopology::kRingQuadrant}) {
    arch::NocParams p = link_params(topo);
    double prev = 0.0;
    for (int transfers = 0; transfers <= 6; ++transfers) {
      arch::NocModel m(p, 8);
      for (int t = 0; t < transfers; ++t) m.unicast(t % 8, (t + 3) % 8, 256.0);
      EXPECT_GE(m.cycles(), prev) << noc_topology_name(topo)
                                  << " transfers=" << transfers;
      prev = m.cycles();
    }
    // Halving link bandwidth never reduces cycles for fixed traffic.
    arch::NocParams narrow = p;
    narrow.link_bytes_per_cycle = p.link_bytes_per_cycle / 2.0;
    arch::NocModel wide_m(p, 8), narrow_m(narrow, 8);
    for (int t = 0; t < 5; ++t) {
      wide_m.unicast(t, (t + 5) % 8, 512.0);
      narrow_m.unicast(t, (t + 5) % 8, 512.0);
    }
    EXPECT_GE(narrow_m.cycles(), wide_m.cycles());
    EXPECT_DOUBLE_EQ(narrow_m.total_link_bytes(), wide_m.total_link_bytes());
  }
}

TEST(NocLink, RingNeverBeatsCrossbarOnIdenticalTraffic) {
  const arch::NocParams xb = link_params(arch::NocTopology::kCrossbar);
  const arch::NocParams ring = link_params(arch::NocTopology::kRingQuadrant);
  sc::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    arch::NocModel mx(xb, 8), mr(ring, 8);
    for (int t = 0; t < 6; ++t) {
      const int src = static_cast<int>(rng.uniform() * 8) % 8;
      const int dst = (src + 1 + static_cast<int>(rng.uniform() * 7) % 7) % 8;
      const double bytes = 64.0 + 64.0 * t;
      mx.unicast(src, dst, bytes);
      mr.unicast(src, dst, bytes);
    }
    mx.multicast(0, 0, 8, 512.0);
    mr.multicast(0, 0, 8, 512.0);
    // The ring adds inter-quadrant links on top of the same injection and
    // ejection wires: routes get longer, bytes and serialization can only
    // grow.
    EXPECT_GE(mr.cycles(), mx.cycles()) << "trial " << trial;
    EXPECT_GE(mr.total_link_bytes(), mx.total_link_bytes());
    EXPECT_GE(mr.max_hops(), mx.max_hops());
  }
}

// ---------------------------------------------------------------------------
// Engine integration: topology changes timing attribution only
// ---------------------------------------------------------------------------

TEST(NocEngine, TopologyChangesTimingAttributionNotSpikes) {
  const snn::Network net = noc_test_net();
  k::RunOptions opt;
  const auto img = snn::make_batch(1, 9, 16, 16, 3)[0];

  const auto run = [&](const rt::BackendConfig& cfg) {
    const rt::InferenceEngine eng(net, opt, cfg);
    snn::NetworkState st = eng.make_state();
    return eng.run(img, st);
  };
  std::vector<rt::InferenceResult> results;
  for (auto topo : {arch::NocTopology::kCrossbar,
                    arch::NocTopology::kRingQuadrant}) {
    for (bool contention : {false, true}) {
      results.push_back(run(noc_cfg(topo, contention)));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].final_output.v, results[i].final_output.v)
        << "variant " << i;
  }

  // Contention only itemizes: gated == ungated + noc_contention_cycles, per
  // layer, and the byte count does not depend on the gate.
  for (std::size_t base : {0u, 2u}) {  // crossbar, ring (off at base, on next)
    const auto& off = results[base];
    const auto& on = results[base + 1];
    for (std::size_t l = 0; l < off.layers.size(); ++l) {
      EXPECT_NEAR(on.layers[l].stats.cycles -
                      on.layers[l].stats.noc_contention_cycles,
                  off.layers[l].stats.cycles,
                  1e-9 * off.layers[l].stats.cycles + 1e-9)
          << "variant " << base << " layer " << l;
      EXPECT_DOUBLE_EQ(off.layers[l].stats.noc_bytes,
                       on.layers[l].stats.noc_bytes);
      EXPECT_GE(on.layers[l].stats.noc_contention_cycles, 0.0);
      EXPECT_EQ(off.layers[l].stats.noc_contention_cycles, 0.0);
    }
  }

  // Four clusters fill one quadrant (quadrant_size = 4): the ring has no
  // ring links and prices bit-identically to the crossbar.
  for (std::size_t v : {0u, 1u}) {
    const auto& xbar = results[v];
    const auto& ring = results[v + 2];
    EXPECT_EQ(ring.total_cycles, xbar.total_cycles) << "variant " << v;
    for (std::size_t l = 0; l < xbar.layers.size(); ++l) {
      EXPECT_EQ(ring.layers[l].stats.cycles, xbar.layers[l].stats.cycles);
      EXPECT_EQ(ring.layers[l].stats.noc_bytes,
                xbar.layers[l].stats.noc_bytes);
      EXPECT_EQ(ring.layers[l].stats.noc_contention_cycles,
                xbar.layers[l].stats.noc_contention_cycles);
    }
  }

  // A default-constructed NocParams is the quadrant ring, bit for bit. At 8
  // clusters (two quadrants) the ring and the crossbar differ, so this pins
  // the default topology rather than either link model.
  rt::BackendConfig dflt = noc_cfg(arch::NocTopology::kRingQuadrant, true, 8);
  dflt.noc = arch::NocParams{};
  dflt.noc.model_contention = true;
  const rt::InferenceResult d = run(dflt);
  const rt::InferenceResult ring8 =
      run(noc_cfg(arch::NocTopology::kRingQuadrant, true, 8));
  const rt::InferenceResult xbar8 =
      run(noc_cfg(arch::NocTopology::kCrossbar, true, 8));
  EXPECT_EQ(d.final_output.v, ring8.final_output.v);
  EXPECT_EQ(d.total_cycles, ring8.total_cycles);
  double d_bytes = 0, xbar8_bytes = 0;
  for (std::size_t l = 0; l < ring8.layers.size(); ++l) {
    EXPECT_EQ(d.layers[l].stats.cycles, ring8.layers[l].stats.cycles);
    EXPECT_EQ(d.layers[l].stats.noc_bytes, ring8.layers[l].stats.noc_bytes);
    EXPECT_EQ(d.layers[l].stats.noc_contention_cycles,
              ring8.layers[l].stats.noc_contention_cycles);
    d_bytes += d.layers[l].stats.noc_bytes;
    xbar8_bytes += xbar8.layers[l].stats.noc_bytes;
  }
  EXPECT_GT(d_bytes, xbar8_bytes) << "two quadrants add ring traversals";

  double xbar_bytes = 0;
  for (const auto& lm : results[0].layers) xbar_bytes += lm.stats.noc_bytes;
  EXPECT_GT(xbar_bytes, 0.0);
}
