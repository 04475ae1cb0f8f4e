// Multi-timestep runner, the batch runner's two schedules and its
// weight-reuse lane semantics, the run_wave hook and retry contract, the
// sharded backend's host row bands, event-driven input, strided-indirect
// option, and the ISS instruction trace.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/cluster.hpp"
#include "arch/program.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/batch.hpp"
#include "runtime/faults.hpp"
#include "runtime/multistep.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"

namespace arch = spikestream::arch;
namespace snn = spikestream::snn;
namespace k = spikestream::kernels;
namespace rt = spikestream::runtime;
namespace sc = spikestream::common;

namespace {

snn::Network event_net() {
  snn::Network net;
  snn::LayerSpec c1;
  c1.kind = snn::LayerKind::kConv;
  c1.name = "conv1";
  c1.in_h = c1.in_w = 12;
  c1.in_c = 2;
  c1.k = 3;
  c1.out_c = 8;
  net.add_layer(c1);
  snn::LayerSpec fc;
  fc.kind = snn::LayerKind::kFc;
  fc.name = "fc";
  fc.in_c = 10 * 10 * 8;
  fc.out_c = 4;
  net.add_layer(fc);
  sc::Rng rng(5);
  net.init_weights(rng);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    net.layer(l).lif.v_th = 0.6f;
    net.layer(l).lif.v_rst = 0.6f;
  }
  return net;
}

snn::Network batch_net() {
  snn::Network net = snn::Network::make_tiny(18, 3, 32, 10);
  sc::Rng rng(42);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  snn::calibrate_thresholds(net, calib, targets);
  return net;
}

double dma_saved(const std::vector<rt::InferenceResult>& res,
                 std::size_t lo, std::size_t hi) {
  double saved = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    for (const auto& m : res[i].layers) saved += m.stats.dma_saved_bytes;
  }
  return saved;
}

/// Image-fed lanes of a lockstep wave over caller-owned buffers.
struct WaveLanes {
  std::vector<snn::NetworkState> states;
  std::vector<rt::InferenceResult> outs;
  std::vector<rt::InferenceEngine::BatchLane> lanes;

  WaveLanes(const rt::InferenceEngine& eng,
            const std::vector<snn::Tensor>& images)
      : states(images.size()), outs(images.size()), lanes(images.size()) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      states[i] = eng.make_state();
      lanes[i] = {&images[i], nullptr, &states[i], &outs[i]};
    }
  }
};

}  // namespace

TEST(MultiStep, AccumulatesSpikesOverTimesteps) {
  snn::Network net = snn::Network::make_tiny(10, 3, 8, 4);
  sc::Rng rng(3);
  net.init_weights(rng);
  const auto calib = snn::make_batch(3, 8, 8, 8, 3);
  const std::vector<double> targets = {0.3, 0.25, 0.4};
  snn::calibrate_thresholds(net, calib, targets);
  k::RunOptions opt;
  rt::InferenceEngine eng(net, opt);
  const auto img = snn::make_batch(1, 12, 8, 8, 3)[0];
  const auto res = rt::run_timesteps(eng, img, 6);
  EXPECT_EQ(res.timesteps, 6);
  ASSERT_EQ(res.spike_counts.size(), 4u);
  EXPECT_EQ(res.cycles_per_step.size(), 6u);
  std::uint32_t total = 0;
  for (auto c : res.spike_counts) {
    total += c;
    EXPECT_LE(c, 6u);  // at most one spike per neuron per timestep
  }
  EXPECT_GT(res.total_cycles, 0.0);
  EXPECT_GE(res.argmax(), 0);
  EXPECT_LT(res.argmax(), 4);
  // Determinism: a fresh engine reproduces the run exactly.
  rt::InferenceEngine eng2(net, opt);
  const auto res2 = rt::run_timesteps(eng2, img, 6);
  EXPECT_EQ(res.spike_counts, res2.spike_counts);
  EXPECT_DOUBLE_EQ(res.total_cycles, res2.total_cycles);
}

TEST(MultiStep, ArgmaxOnEmptyResultIsMinusOne) {
  // No recorded output (e.g. zero timesteps) decodes to the documented
  // sentinel -1 instead of a bogus class 0.
  rt::MultiStepResult empty;
  EXPECT_EQ(empty.argmax(), -1);

  snn::Network net = snn::Network::make_tiny(10, 3, 8, 4);
  sc::Rng rng(3);
  net.init_weights(rng);
  k::RunOptions opt;
  rt::InferenceEngine eng(net, opt);
  const auto img = snn::make_batch(1, 12, 8, 8, 3)[0];
  const auto res = rt::run_timesteps(eng, img, 0);
  EXPECT_EQ(res.timesteps, 0);
  EXPECT_TRUE(res.spike_counts.empty());
  EXPECT_EQ(res.argmax(), -1);

  // Ties resolve to the lowest index.
  rt::MultiStepResult tie;
  tie.spike_counts = {3, 3, 1};
  EXPECT_EQ(tie.argmax(), 0);
}

TEST(BatchRunner, DegenerateInputsOnBothSchedules) {
  // Sample fan-out (segment_major_lanes 1) and lockstep waves (3 lanes, so
  // a 4-sample batch needs a partial second wave) share the edge cases, and
  // run() and run_single_step() drive the same loop per schedule.
  const snn::Network net = batch_net();
  const auto images = snn::make_batch(4, 3, 16, 16, 3);
  for (const int lanes : {1, 3}) {
    k::RunOptions opt;
    opt.segment_major_lanes = lanes;
    const rt::BatchRunner runner(net, opt, {}, {}, /*workers=*/2);
    EXPECT_TRUE(runner.run({}, 2).empty()) << lanes;
    EXPECT_TRUE(runner.run_single_step({}).empty()) << lanes;
    const auto zero_steps = runner.run(images, 0);
    ASSERT_EQ(zero_steps.size(), images.size()) << lanes;
    EXPECT_EQ(zero_steps[0].timesteps, 0) << lanes;
    EXPECT_EQ(zero_steps[0].argmax(), -1) << lanes;

    const auto one = runner.run(images, 1);
    const auto single = runner.run_single_step(images);
    ASSERT_EQ(single.size(), images.size()) << lanes;
    for (std::size_t i = 0; i < images.size(); ++i) {
      const std::vector<std::uint32_t> spikes(
          single[i].final_output.v.begin(), single[i].final_output.v.end());
      EXPECT_EQ(one[i].spike_counts, spikes) << lanes << " sample " << i;
      EXPECT_DOUBLE_EQ(one[i].total_cycles, single[i].total_cycles)
          << lanes << " sample " << i;
    }
  }
}

TEST(BatchRunner, BatchWeightReuseColdStartVsSteadyState) {
  // BatchRunner builds fresh lane states on every call, so each call's
  // first sample on a lane pays the cold weight DMA and later samples on
  // that lane reuse the pinned tiles. A one-worker runner given the batch
  // twice in one call therefore shows both regimes: the front half has
  // (B-1) warm samples, the back half B — the per-batch savings satisfy
  //   saved_cold * B == saved_steady * (B - 1).
  const snn::Network net = batch_net();
  const std::size_t B = 4;
  const auto images = snn::make_batch(B, 77, 16, 16, 3);
  std::vector<snn::Tensor> doubled = images;
  doubled.insert(doubled.end(), images.begin(), images.end());
  k::RunOptions off;
  k::RunOptions on = off;
  on.batch_weight_reuse = true;
  const rt::BatchRunner cold_runner(net, off, {}, {}, /*workers=*/1);
  const rt::BatchRunner runner(net, on, {}, {}, /*workers=*/1);
  const auto ref = cold_runner.run_single_step(doubled);
  const auto res = runner.run_single_step(doubled);
  ASSERT_EQ(res.size(), 2 * B);

  for (std::size_t i = 0; i < res.size(); ++i) {
    // Functional results are never affected by the DMA model.
    EXPECT_EQ(ref[i].final_output.v, res[i].final_output.v) << i;
    for (std::size_t l = 0; l < res[i].layers.size(); ++l) {
      const auto& cs = ref[i].layers[l].stats;
      const auto& ws = res[i].layers[l].stats;
      EXPECT_EQ(cs.dma_saved_bytes, 0.0) << "reuse off must not save";
      // Saved bytes are really gone from the transfer volume.
      EXPECT_LE(ws.dma_bytes + ws.dma_saved_bytes, cs.dma_bytes + 1e-6)
          << "sample " << i << " layer " << l;
      EXPECT_LE(ws.cycles, cs.cycles + 1e-6) << "warm may only be faster";
    }
  }
  // Energy follows the reduced DMA traffic.
  EXPECT_LT(res[B].total_energy_mj, ref[B].total_energy_mj);

  const double cold = dma_saved(res, 0, B);
  const double steady = dma_saved(res, B, 2 * B);
  EXPECT_EQ(dma_saved(res, 0, 1), 0.0) << "first sample has no resident tiles";
  ASSERT_GT(cold, 0.0);
  EXPECT_GT(steady, cold);
  EXPECT_NEAR(cold * static_cast<double>(B),
              steady * static_cast<double>(B - 1), 1e-6);
  // No lane history survives a call: repeating it is bit-identical.
  const auto again = runner.run_single_step(doubled);
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    EXPECT_DOUBLE_EQ(res[i].total_cycles, again[i].total_cycles) << i;
  }
}

TEST(RunWave, HooksBracketEachLayerThenStepDone) {
  // The seam the server's seals and injections sit on: before_layer(t, l)
  // and after_layer(t, l) bracket every layer, after_layer sees the carry
  // layer l produced, and the per-timestep callback follows the last layer.
  const snn::Network net = batch_net();
  ASSERT_EQ(net.num_layers(), 3u);
  k::RunOptions opt;
  opt.segment_major_lanes = 2;
  const rt::InferenceEngine eng(net, opt);
  const auto images = snn::make_batch(2, 5, 16, 16, 3);
  WaveLanes w(eng, images);
  sc::WorkerPool pool(1);

  std::vector<std::string> calls;
  const auto at = [](const char* what, int t, std::size_t l) {
    return std::string(what) + " " + std::to_string(t) + "," +
           std::to_string(l);
  };
  const auto before = [&](int t, std::size_t l) {
    calls.push_back(at("before", t, l));
  };
  const auto after = [&](int t, std::size_t l) {
    calls.push_back(at("after", t, l));
    for (const auto& lane : w.lanes) {
      EXPECT_EQ(lane.carry == nullptr, l + 1 == net.num_layers()) << l;
    }
  };
  const rt::InferenceEngine::WaveHooks hooks{before, after};
  eng.run_wave(w.lanes, /*timesteps=*/2, &pool,
               [&](int t) { calls.push_back("step " + std::to_string(t)); },
               &hooks);

  std::vector<std::string> want;
  for (int t = 0; t < 2; ++t) {
    for (std::size_t l = 0; l < 3; ++l) {
      want.push_back(at("before", t, l));
      want.push_back(at("after", t, l));
    }
    want.push_back("step " + std::to_string(t));
  }
  EXPECT_EQ(calls, want);
}

TEST(RunWave, RerunAfterThrowingHookIsBitIdentical) {
  // A hook that throws mid-wave leaves layer-0 membranes dirty; run_wave's
  // entry reset is what makes the server's retry of the same lanes land
  // bit-identical to a wave that never failed.
  const snn::Network net = batch_net();
  k::RunOptions opt;
  opt.segment_major_lanes = 2;
  const rt::InferenceEngine eng(net, opt);
  const auto images = snn::make_batch(2, 9, 16, 16, 3);
  sc::WorkerPool pool(1);
  const int T = 3;
  const auto run = [&](WaveLanes& w,
                       const rt::InferenceEngine::WaveHooks* hooks) {
    std::vector<rt::MultiStepResult> res(w.lanes.size());
    eng.run_wave(w.lanes, T, &pool, [&](int) {
      for (std::size_t i = 0; i < res.size(); ++i) {
        res[i].accumulate_step(w.outs[i]);
      }
    }, hooks);
    return res;
  };

  WaveLanes clean_lanes(eng, images);
  const auto clean = run(clean_lanes, nullptr);

  WaveLanes w(eng, images);
  const auto none = [](int, std::size_t) {};
  const auto fail = [](int t, std::size_t l) {
    if (t == 0 && l == 0) throw rt::TransientFault("hook fault");
  };
  const rt::InferenceEngine::WaveHooks throwing{none, fail};
  EXPECT_THROW(run(w, &throwing), rt::TransientFault);
  const auto retried = run(w, nullptr);

  ASSERT_EQ(retried.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(clean[i].cycles_per_step.size(), static_cast<std::size_t>(T));
    EXPECT_EQ(retried[i].spike_counts, clean[i].spike_counts) << i;
    EXPECT_EQ(retried[i].cycles_per_step, clean[i].cycles_per_step) << i;
  }
}

TEST(ShardedHostBands, UnevenRowBandsBitExactWithSerialRuns) {
  // Three clusters with the pool cutoff at zero split every conv/encode
  // layer's functional pass into three host row bands; the tiny net's
  // layers have four output rows, so the bands are uneven (1/1/2). Pooled
  // and serial runs must agree on spikes and on every modeled stat, under
  // both the channel and the stripe plan.
  snn::Network net = snn::Network::make_tiny(6, 3, 16, 10);
  sc::Rng rng(11);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 4, 4, 3);
  const std::vector<double> targets = {0.25, 0.20, 0.30};
  snn::calibrate_thresholds(net, calib, targets);
  const auto images = snn::make_batch(2, 21, 4, 4, 3);
  k::RunOptions opt;
  const rt::InferenceEngine analytical(net, opt);

  for (const auto strategy : {k::PartitionStrategy::kOutputChannel,
                              k::PartitionStrategy::kIfmapStripe}) {
    rt::BackendConfig cfg;
    cfg.kind = rt::BackendKind::kSharded;
    cfg.clusters = 3;
    cfg.partition = strategy;
    cfg.shard_min_work = 0;
    cfg.shard_threads = true;
    const rt::InferenceEngine pooled(net, opt, cfg);
    cfg.shard_threads = false;
    const rt::InferenceEngine serial(net, opt, cfg);

    const auto& sb = dynamic_cast<const rt::ShardedBackend&>(pooled.backend());
    const k::ShardAxis axis = strategy == k::PartitionStrategy::kIfmapStripe
                                  ? k::ShardAxis::kIfmapStripe
                                  : k::ShardAxis::kOutputChannel;
    for (std::size_t l = 0; l < 2; ++l) {  // encode + conv
      ASSERT_EQ(net.layer(l).out_h(), 4);
      const k::LayerPlan& plan = sb.plan_for(net.layer(l));
      ASSERT_EQ(plan.axis, axis) << "layer " << l;
      ASSERT_EQ(plan.n(), 3u) << "layer " << l;
    }

    const char* name = k::partition_strategy_name(strategy);
    for (const auto& img : images) {
      snn::NetworkState sa = analytical.make_state();
      snn::NetworkState sp = pooled.make_state();
      snn::NetworkState ss = serial.make_state();
      for (int t = 0; t < 3; ++t) {
        const auto ra = analytical.run(img, sa);
        const auto rp = pooled.run(img, sp);
        const auto rs = serial.run(img, ss);
        ASSERT_EQ(rp.final_output.v, rs.final_output.v) << name << " t=" << t;
        ASSERT_EQ(rp.final_output.v, ra.final_output.v) << name << " t=" << t;
        for (std::size_t l = 0; l < rp.layers.size(); ++l) {
          const auto& p = rp.layers[l];
          const auto& q = rs.layers[l];
          EXPECT_EQ(p.out_firing_rate, q.out_firing_rate) << name << " l=" << l;
          EXPECT_EQ(p.out_firing_rate, ra.layers[l].out_firing_rate)
              << name << " l=" << l;
          EXPECT_EQ(p.stats.cycles, q.stats.cycles) << name << " l=" << l;
          EXPECT_EQ(p.stats.fpu_ops, q.stats.fpu_ops) << name << " l=" << l;
          EXPECT_EQ(p.stats.dma_bytes, q.stats.dma_bytes) << name << " l=" << l;
          EXPECT_EQ(p.stats.noc_bytes, q.stats.noc_bytes) << name << " l=" << l;
        }
      }
    }
  }
}

TEST(EventInput, RunsWithoutEncodeLayer) {
  const snn::Network net = event_net();
  k::RunOptions opt;
  rt::InferenceEngine eng(net, opt);
  sc::Rng rng(17);
  std::vector<snn::SpikeMap> frames;
  for (int t = 0; t < 4; ++t) {
    snn::SpikeMap f(12, 12, 2);
    for (int y = 1; y < 11; ++y) {
      for (int x = 1; x < 11; ++x) {
        for (int c = 0; c < 2; ++c) f.at(y, x, c) = rng.bernoulli(0.2);
      }
    }
    frames.push_back(std::move(f));
  }
  const auto res = rt::run_event_stream(eng, frames);
  EXPECT_EQ(res.timesteps, 4);
  EXPECT_GT(res.total_cycles, 0.0);
  EXPECT_GT(res.total_energy_mj, 0.0);
}

TEST(EventInput, RejectsEncodeNetworks) {
  snn::Network net = snn::Network::make_tiny();
  sc::Rng rng(1);
  net.init_weights(rng);
  k::RunOptions opt;
  rt::InferenceEngine eng(net, opt);
  snn::SpikeMap f(10, 10, 8);
  EXPECT_THROW(eng.run_events(f), spikestream::Error);
}

TEST(StridedIndirect, SpeedsUpFcLayersOnly) {
  const snn::Network net = event_net();
  k::RunOptions base, ext;
  ext.strided_indirect_ext = true;
  rt::InferenceEngine e0(net, base), e1(net, ext);
  sc::Rng rng(23);
  snn::SpikeMap f(12, 12, 2);
  for (int y = 1; y < 11; ++y) {
    for (int x = 1; x < 11; ++x) {
      for (int c = 0; c < 2; ++c) f.at(y, x, c) = rng.bernoulli(0.4);
    }
  }
  const auto r0 = e0.run_events(f);
  const auto r1 = e1.run_events(f);
  // Same spikes, conv timing identical, FC strictly faster (prescale gone)
  // unless the FC is DMA-bound, in which case equal.
  EXPECT_EQ(r0.final_output.v, r1.final_output.v);
  EXPECT_DOUBLE_EQ(r0.layers[0].stats.cycles, r1.layers[0].stats.cycles);
  EXPECT_LE(r1.layers[1].stats.compute_cycles,
            r0.layers[1].stats.compute_cycles);
  EXPECT_LT(r1.layers[1].stats.int_instrs, r0.layers[1].stats.int_instrs);
}

TEST(Trace, RecordsExecutedInstructions) {
  arch::ClusterConfig cfg;
  cfg.num_workers = 1;
  cfg.icache_miss_penalty = 0;
  arch::Cluster cl(cfg);
  arch::Asm a;
  a.li(5, 3);
  a.li(6, 4);
  a.add(7, 5, 6);
  a.fcvt_d_w(4, 7);
  a.li(8, 1);
  a.frep(8, 1);
  a.fadd(3, 4, 3);
  a.fpu_fence();
  a.halt();
  std::vector<arch::TraceEntry> trace;
  cl.core(0).set_trace(&trace, 64);
  cl.load_program_on(0, a.finish());
  // load_program resets the core, so re-attach the sink afterwards.
  cl.core(0).set_trace(&trace, 64);
  cl.run();
  ASSERT_GE(trace.size(), 8u);
  EXPECT_EQ(arch::disasm(trace[0].instr), "li x5, 3");
  int fpu_ops = 0;
  for (const auto& e : trace) {
    fpu_ops += e.fpu;
    EXPECT_FALSE(arch::disasm(e.instr).empty());
  }
  EXPECT_EQ(fpu_ops, 2);  // frep body executed twice on the FPU
  // Cycles are monotonically non-decreasing.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].cycle, trace[i - 1].cycle);
  }
}

TEST(Trace, LimitIsRespected) {
  arch::ClusterConfig cfg;
  cfg.num_workers = 1;
  arch::Cluster cl(cfg);
  arch::Asm a;
  a.li(5, 0);
  a.li(6, 100);
  a.label("loop");
  a.addi(5, 5, 1);
  a.bne(5, 6, "loop");
  a.halt();
  std::vector<arch::TraceEntry> trace;
  cl.load_program_on(0, a.finish());
  cl.core(0).set_trace(&trace, 10);
  cl.run();
  EXPECT_EQ(trace.size(), 10u);
}
