// Scratch-arena contract: (1) runs through a reused NetworkState + reused
// InferenceResult are bit-identical to fresh-allocation runs, across
// backends, batch sizes and repeated reset() cycles; (2) once warmed up, the
// analytical and cycle-accurate hot paths execute a whole timestep with ZERO
// heap allocations (counted by a global operator-new hook in this binary).
#include <gtest/gtest.h>

#include <vector>

#include "arch/dram/stream_reader.hpp"
#include "bench/alloc_hook.hpp"
#include "common/rng.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/layer_kernels.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"
#include "runtime/server.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"

namespace {

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;
namespace compress = spikestream::compress;

snn::Network test_net() {
  snn::Network net = snn::Network::make_tiny(18, 3, 32, 10);
  sc::Rng rng(42);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  snn::calibrate_thresholds(net, calib, targets);
  return net;
}

rt::BackendConfig cfg_of(rt::BackendKind kind, bool threads = true) {
  rt::BackendConfig cfg;
  cfg.kind = kind;
  cfg.shard_threads = threads;
  return cfg;
}

/// Fresh-allocation path: new state + by-value result every single run.
std::vector<snn::SpikeMap> run_fresh(const rt::InferenceEngine& engine,
                                     const std::vector<snn::Tensor>& images,
                                     int timesteps) {
  std::vector<snn::SpikeMap> outs;
  for (const auto& img : images) {
    snn::NetworkState state = engine.make_state();
    for (int t = 0; t < timesteps; ++t) {
      outs.push_back(engine.run(img, state).final_output);
    }
  }
  return outs;
}

/// Arena path: one state + one result reused across every sample/timestep,
/// with reset() (state.clear()) between samples.
std::vector<snn::SpikeMap> run_reused(const rt::InferenceEngine& engine,
                                      const std::vector<snn::Tensor>& images,
                                      int timesteps) {
  std::vector<snn::SpikeMap> outs;
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  for (const auto& img : images) {
    state.clear();
    for (int t = 0; t < timesteps; ++t) {
      engine.run(img, state, res);
      outs.push_back(res.final_output);
    }
  }
  return outs;
}

/// Warm the (state, result) arenas until `quiet` consecutive runs perform no
/// heap allocation (capped): membranes integrate for several timesteps
/// before occupancy — and with it every arena capacity — peaks, and the
/// peak's timestep depends on the input. Returns false if the cap was hit
/// while still allocating.
bool warm_until_quiet(const rt::InferenceEngine& engine,
                      const snn::Tensor& img, snn::NetworkState& state,
                      rt::InferenceResult& res, int quiet = 6, int cap = 64) {
  int quiet_runs = 0;
  for (int t = 0; t < cap && quiet_runs < quiet; ++t) {
    const std::size_t before = spikestream::alloc_hook::allocs();
    engine.run(img, state, res);
    quiet_runs =
        spikestream::alloc_hook::allocs() == before ? quiet_runs + 1 : 0;
  }
  return quiet_runs >= quiet;
}

}  // namespace

TEST(ScratchReuse, BitExactAcrossBackendsBatchesAndResets) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(3, 99, 16, 16, 3);
  k::RunOptions opt;
  for (const auto kind :
       {rt::BackendKind::kAnalytical, rt::BackendKind::kCycleAccurate,
        rt::BackendKind::kSharded}) {
    const rt::InferenceEngine engine(net, opt, cfg_of(kind));
    const auto fresh = run_fresh(engine, images, /*timesteps=*/3);
    const auto reused = run_reused(engine, images, /*timesteps=*/3);
    ASSERT_EQ(fresh.size(), reused.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(fresh[i].v, reused[i].v)
          << rt::backend_name(kind) << " run " << i;
    }
  }
}

TEST(ScratchReuse, SerialShardedMatchesThreadedThroughArenas) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 5, 16, 16, 3);
  k::RunOptions opt;
  const rt::InferenceEngine threaded(
      net, opt, cfg_of(rt::BackendKind::kSharded, true));
  const rt::InferenceEngine serial(net, opt,
                                   cfg_of(rt::BackendKind::kSharded, false));
  const auto rt_ = run_reused(threaded, images, 2);
  const auto rs = run_reused(serial, images, 2);
  ASSERT_EQ(rt_.size(), rs.size());
  for (std::size_t i = 0; i < rt_.size(); ++i) EXPECT_EQ(rt_[i].v, rs[i].v);
}

TEST(ScratchReuse, TimingIdenticalThroughArenas) {
  // Cycle counts must not depend on which allocation path produced them.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 31, 16, 16, 3);
  k::RunOptions opt;
  const rt::InferenceEngine engine(net, opt);
  for (const auto& img : images) {
    snn::NetworkState fresh_state = engine.make_state();
    const rt::InferenceResult fresh = engine.run(img, fresh_state);

    snn::NetworkState state = engine.make_state();
    rt::InferenceResult reused;
    engine.run(img, state, reused);
    ASSERT_EQ(fresh.layers.size(), reused.layers.size());
    EXPECT_DOUBLE_EQ(fresh.total_cycles, reused.total_cycles);
    for (std::size_t l = 0; l < fresh.layers.size(); ++l) {
      EXPECT_DOUBLE_EQ(fresh.layers[l].stats.cycles,
                       reused.layers[l].stats.cycles);
      EXPECT_DOUBLE_EQ(fresh.layers[l].stats.fpu_ops,
                       reused.layers[l].stats.fpu_ops);
    }
  }
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsAnalytical) {
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 7, 16, 16, 3)[0];
  k::RunOptions opt;
  const rt::InferenceEngine engine(net, opt);
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  // Two warmup timesteps grow every arena to capacity.
  engine.run(img, state, res);
  engine.run(img, state, res);
  state.clear();  // a reset must not force re-allocation either
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "steady-state inference must not touch the heap";
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsCycleAccurate) {
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 8, 16, 16, 3)[0];
  k::RunOptions opt;
  const rt::InferenceEngine engine(net, opt,
                                   cfg_of(rt::BackendKind::kCycleAccurate));
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  // Warmup populates the ISS calibration caches. The caches are logarithmic
  // (~12% buckets) and pre-calibrated at prepare(), so the occupancy drift
  // of the integrating membranes must not mint new buckets — the long
  // measurement window would catch that regression (it is exactly what the
  // former integer buckets did).
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 12; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "cycle-accurate steady state must not calibrate or allocate";
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsPooledSharded) {
  // The persistent worker pool extends the zero-allocation contract to the
  // threaded sharded mode: shard fan-out submits stack jobs onto pre-created
  // threads and every per-shard buffer lives in a plan-presized lane.
  // The hybrid strategy routes this net through all three shard axes; a
  // zero minimum-work cutoff also splits every conv/encode functional pass
  // into host row bands on the pool.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 9, 16, 16, 3)[0];
  k::RunOptions opt;
  for (const int min_work : {rt::BackendConfig{}.shard_min_work, 0}) {
    rt::BackendConfig cfg;
    cfg.kind = rt::BackendKind::kSharded;
    cfg.clusters = 4;
    cfg.shard_threads = true;  // pooled mode — the historical allocator
    cfg.shard_min_work = min_work;
    cfg.partition = spikestream::kernels::PartitionStrategy::kHybrid;
    const rt::InferenceEngine engine(net, opt, cfg);
    snn::NetworkState state = engine.make_state();
    rt::InferenceResult res;
    // Warm until occupancy (and with it every arena capacity) settles.
    ASSERT_TRUE(warm_until_quiet(engine, img, state, res))
        << "min_work=" << min_work;
    const std::size_t before = spikestream::alloc_hook::allocs();
    for (int t = 0; t < 5; ++t) engine.run(img, state, res);
    const std::size_t after = spikestream::alloc_hook::allocs();
    EXPECT_EQ(after - before, 0u)
        << "pooled sharded steady state must not touch the heap, min_work="
        << min_work;
  }
}

TEST(ScratchReuse, CsrEncodeIntoReusesBuffers) {
  sc::Rng rng(3);
  snn::SpikeMap dense(12, 12, 64);
  for (auto& b : dense.v) b = rng.bernoulli(0.3);
  compress::CsrIfmap csr;
  compress::CsrIfmap::encode_into(dense, csr);
  const std::vector<std::uint16_t> once(csr.c_idcs().begin(),
                                        csr.c_idcs().end());
  // Re-encoding equal or sparser maps into the same object allocates nothing.
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int r = 0; r < 10; ++r) compress::CsrIfmap::encode_into(dense, csr);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(std::vector<std::uint16_t>(csr.c_idcs().begin(),
                                       csr.c_idcs().end()),
            once);
  // And the reused encoding round-trips.
  const snn::SpikeMap back = csr.decode();
  EXPECT_EQ(back.v, dense.v);
}

TEST(ScratchReuse, NarrowConvLayerAllocatesNothingAfterWarmUp) {
  // A deep-tower conv layer (8x8 inputs of 8 channels): its input encodes
  // through the narrow path, indices and row offsets into buffers reserved
  // for the worst case, so no occupancy (a full map included) allocates,
  // and the layer's functional and timing passes reuse their arena.
  const snn::Network tower = snn::Network::make_deep_tower();
  const snn::LayerSpec& spec = tower.layer(1);
  ASSERT_TRUE(compress::CsrIfmap::is_narrow(spec.in_c));
  snn::LayerWeights weights;
  weights.k = spec.k;
  weights.in_c = spec.in_c;
  weights.out_c = spec.out_c;
  weights.v.assign(static_cast<std::size_t>(spec.k) * spec.k * spec.in_c *
                       spec.out_c,
                   0.05f);
  sc::Rng rng(4);
  std::vector<snn::SpikeMap> maps;
  for (const double d : {0.0, 0.11, 1.0, 0.5, 0.11}) {
    snn::SpikeMap m(spec.in_h, spec.in_w, spec.in_c);
    for (auto& b : m.v) b = rng.bernoulli(d);
    maps.push_back(std::move(m));
  }
  compress::CsrIfmap csr;
  csr.reserve(static_cast<std::size_t>(spec.in_h) * spec.in_w, spec.in_c);
  k::KernelScratch ks;
  snn::Tensor membrane(spec.out_h(), spec.out_w(), spec.out_c);
  const k::RunOptions opt;
  compress::CsrIfmap::encode_into(maps[1], csr);
  k::run_conv_layer(spec, weights, csr, membrane, opt, ks);  // warm-up
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (const snn::SpikeMap& m : maps) {
    compress::CsrIfmap::encode_into(m, csr);
    k::run_conv_layer(spec, weights, csr, membrane, opt, ks);
  }
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(csr.decode().v, maps.back().v);
}

TEST(ScratchReuse, BatchRunnerReusedStatesMatchPerSampleStates) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 21, 16, 16, 3);
  k::RunOptions opt;
  const rt::BatchRunner runner(net, opt, {}, {}, /*workers=*/2);
  const auto batched = runner.run(images, /*timesteps=*/2);
  for (std::size_t i = 0; i < images.size(); ++i) {
    rt::InferenceEngine engine(net, opt);
    const auto serial = rt::run_timesteps(engine, images[i], 2);
    EXPECT_EQ(batched[i].spike_counts, serial.spike_counts) << i;
    EXPECT_DOUBLE_EQ(batched[i].total_cycles, serial.total_cycles) << i;
  }
}

TEST(ScratchReuse, BatchRunnerSteadyStatePerBatchAllocsStable) {
  // The batch runner's orchestration (fresh lane states, slot claiming,
  // lockstep waves) must reach a steady per-batch allocation count: after
  // warmup, every further batch allocates exactly as much as the previous
  // one (the residue is the per-call lane states and the by-value result
  // marshalling, both per-batch constant), so growth-type regressions inside
  // the runner show up as a drift. Both schedules run with a deterministic
  // sample -> lane mapping: one-worker fan-out, and 3-lane waves.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(5, 3, 16, 16, 3);
  for (const int lanes : {1, 3}) {
    k::RunOptions opt;
    opt.segment_major_lanes = lanes;
    const rt::BatchRunner runner(net, opt, {}, {}, /*workers=*/lanes);
    for (int r = 0; r < 4; ++r) runner.run_single_step(images);
    std::size_t per_batch = 0;
    for (int r = 0; r < 5; ++r) {
      const std::size_t before = spikestream::alloc_hook::allocs();
      runner.run_single_step(images);
      const std::size_t d = spikestream::alloc_hook::allocs() - before;
      if (r == 0) {
        per_batch = d;
      } else {
        EXPECT_EQ(per_batch, d) << "lanes " << lanes << " batch " << r;
      }
    }
  }
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsSegmentMajor) {
  // The segment-major FC accounting is pure plan arithmetic (scalar fields
  // on TilePlan) and the band-major functional pass reuses the per-lane row
  // arena, so the engine-level hot path must stay allocation-free with the
  // schedule enabled.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 7, 16, 16, 3)[0];
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  const rt::InferenceEngine engine(net, opt);
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "segment-major steady state must not touch the heap";
}

TEST(ScratchReuse, StreamReaderAccountingNeverAllocates) {
  // The DRAM model's accounting surfaces are closed-form over fixed-size
  // state (std::array open-row registers): pricing a million-beat access
  // pattern must not touch the heap at all — the planner calls these in its
  // hot cost queries.
  namespace arch = spikestream::arch;
  arch::StreamReader rd(arch::DramConfig::banked());
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int r = 0; r < 1000; ++r) {
    rd.stream(1.0e6, 64.0);
    rd.write(4096.0, 2.0);
    rd.stream_records(arch::DramFormat::kFixedStride, 8192.0, 32.0, 4.0);
    rd.touch(static_cast<std::uint64_t>(r) * 4096, 2048);
  }
  rd.reset();
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "DRAM stream accounting must be allocation-free";
  EXPECT_DOUBLE_EQ(rd.cost().bytes, 0.0);
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsBankedDram) {
  // Banked-DRAM pricing swaps the flat cost expressions for the row-model
  // closed forms inside the same plan queries; the engine-level steady state
  // must stay allocation-free with the banked model and the segment-major
  // schedule both enabled.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 7, 16, 16, 3)[0];
  k::RunOptions opt;
  opt.cost.dram = spikestream::arch::DramConfig::banked();
  opt.segment_major_lanes = 4;
  const rt::InferenceEngine engine(net, opt);
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "banked-DRAM steady state must not touch the heap";
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsHybridSharded) {
  // The hybrid partitioner mixes shard axes within one network: fan-in
  // segments and row stripes fan out into the same pre-sized lanes as
  // output-channel tiles, so the pooled sharded zero-allocation contract
  // must hold for them too.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 9, 16, 16, 3)[0];
  k::RunOptions opt;
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kSharded;
  cfg.clusters = 4;
  cfg.shard_threads = true;
  cfg.partition = spikestream::kernels::PartitionStrategy::kHybrid;
  const rt::InferenceEngine engine(net, opt, cfg);
  const auto* sb = dynamic_cast<const rt::ShardedBackend*>(&engine.backend());
  ASSERT_NE(sb, nullptr);
  bool mixed = false;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    mixed |= sb->plan_for(net.layer(l)).axis !=
             k::ShardAxis::kOutputChannel;
  }
  ASSERT_TRUE(mixed) << "the hybrid plan must leave the output-channel axis "
                        "on at least one layer";
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "hybrid sharded steady state must not touch the heap";
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsTowerHybrid) {
  // The benchmark's deep-tower configuration: 8 clusters, hybrid partition
  // under planner-chosen pipeline stages, ring-quadrant NoC with contention,
  // banked DRAM, shards priced serially on the host. Conv layers build their
  // row-offset index and stream profile in the layer's own scratch; the
  // per-cluster windows price into the presized lanes.
  snn::Network net = snn::Network::make_deep_tower();
  sc::Rng rng(1);
  net.init_weights(rng);
  snn::calibrate_thresholds(net, snn::make_batch(4, 18, 6, 6, 3),
                            snn::deep_tower_target_rates());
  const auto img = snn::make_batch(1, 3, 6, 6, 3)[0];
  k::RunOptions opt;
  opt.cost.dram = spikestream::arch::DramConfig::banked();
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kSharded;
  cfg.clusters = 8;
  cfg.shard_threads = false;
  cfg.partition = spikestream::kernels::PartitionStrategy::kHybrid;
  cfg.noc.topology = spikestream::arch::NocTopology::kRingQuadrant;
  cfg.noc.model_contention = true;
  cfg.pipeline.enabled = true;
  cfg.pipeline.mode = spikestream::kernels::ExecMode::kAuto;
  const rt::InferenceEngine engine(net, opt, cfg);
  const auto* sb = dynamic_cast<const rt::ShardedBackend*>(&engine.backend());
  ASSERT_NE(sb, nullptr);
  ASSERT_TRUE(sb->stage_parallel_active());
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "tower hybrid steady state must not touch the heap";
}

/// Server-loop allocation guard, parameterized on the integrity switches:
/// unarmed, and armed with every hook-driven protection (spike + weight
/// seals and the redundant shadow run_wave).
class ScratchReuseServerLoop : public ::testing::TestWithParam<bool> {};

TEST_P(ScratchReuseServerLoop, ZeroSteadyStateAllocations) {
  // The serving hot path extends the contract end to end: submit (lock-free
  // ring push), wave formation, lockstep execution into the pre-sized lane
  // buffers, completion publish (futex wake) and the recycled request slot's
  // result reset must all stay off the heap once warmed — and so must the
  // layer hooks, seals and shadow pass when armed. Fixed wave width
  // (adaptive off) keeps the wave shape identical across rounds.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 7, 16, 16, 3)[0];
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  rt::ServerConfig scfg;
  scfg.max_queue_delay_us = 200;
  scfg.adaptive_wave = false;
  if (GetParam()) {
    scfg.integrity.checksum_spikes = true;
    scfg.integrity.checksum_weights = true;
    scfg.integrity.redundant_lanes = true;
  }
  rt::InferenceServer server(net, opt, {}, scfg);
  rt::ServeRequest slot;  // recycled: result capacity persists across rounds
  slot.image = &img;

  // Warm until a full submit->wait round is allocation-quiet (arena growth,
  // first-wave lane state sizing, result vector capacity).
  int quiet = 0;
  for (int r = 0; r < 64 && quiet < 6; ++r) {
    const std::size_t before = spikestream::alloc_hook::allocs();
    ASSERT_TRUE(server.submit(slot));
    ASSERT_TRUE(slot.wait());
    quiet = spikestream::alloc_hook::allocs() == before ? quiet + 1 : 0;
  }
  ASSERT_GE(quiet, 6) << "server loop never reached allocation quiescence";

  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(server.submit(slot));
    ASSERT_TRUE(slot.wait());
  }
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "admission -> dispatch -> complete must not touch the heap";
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Integrity, ScratchReuseServerLoop, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Armed" : "Unarmed";
                         });
