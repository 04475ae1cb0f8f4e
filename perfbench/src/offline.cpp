// Offline workloads: closed-loop batches through a one-worker BatchRunner.
//
//   svgg11-offline  the calibrated S-VGG11, SpikeStream FP16, segment-major
//                   FC waves of 8 lanes with batch weight reuse.
//   tower8-hybrid   the calibrated deep tower on the sharded backend (8
//                   clusters, planner-chosen pipeline, ring-quadrant NoC with
//                   contention, banked DRAM), priced per batch through the
//                   stage timeline.
//
// One worker keeps the host number free of scheduler noise and the modeled
// DMA deterministic under batch weight reuse (lane claims would race).
#include <memory>

#include "runtime/backend_sharded.hpp"
#include "runtime/batch.hpp"
#include "runtime/stage_pipeline.hpp"
#include "snn/input_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Built {
  snn::Network net;
  std::unique_ptr<runtime::BatchRunner> runner;
  double calibrate_s = 0, build_s = 0;
};

bool same_outputs(const runtime::InferenceResult& a,
                  const runtime::InferenceResult& b) {
  return a.final_output.v == b.final_output.v &&
         a.total_cycles == b.total_cycles;
}

}  // namespace

Report run_offline(const Args& args, Tracer* tr) {
  const bool tower = args.workload == "tower8-hybrid";
  const kernels::RunOptions opt = tower ? tower_options() : svgg11_options();
  const runtime::BackendConfig backend =
      tower ? tower_backend() : runtime::BackendConfig{};
  const std::vector<snn::Tensor> images =
      tower ? snn::make_batch(kBatch, args.seed, 6, 6, 3)
            : snn::make_batch(kBatch, args.seed);

  auto set_up = [&](Tracer* t) {
    const std::uint64_t id = t ? t->new_id() : 0;
    const Scope setup(t, "setup", id);
    Built b;
    const double t0 = now_s();
    {
      const Scope s(t, "snn.calibrate", id, setup.index());
      b.net = tower ? calibrated_deep_tower() : calibrated_svgg11();
    }
    const double t1 = now_s();
    {
      const Scope s(t, "runtime.engine.build", id, setup.index());
      b.runner = std::make_unique<runtime::BatchRunner>(
          b.net, opt, backend, spikestream::arch::EnergyParams{}, 1);
    }
    b.calibrate_s = t1 - t0;
    b.build_s = now_s() - t1;
    return b;
  };

  // One offline call: the batch through the runner, plus (pipelined tower)
  // the stage timeline that turns per-layer cycles into throughput.
  auto run_batch = [&](const runtime::BatchRunner& runner,
                       const std::vector<snn::Tensor>& batch) {
    std::vector<runtime::InferenceResult> res = runner.run_single_step(batch);
    const auto* sb = dynamic_cast<const runtime::ShardedBackend*>(
        &runner.engine().backend());
    if (sb != nullptr && sb->stage_parallel_active()) {
      runtime::simulate_stage_pipeline(sb->stage_plan(),
                                       runner.engine().network(), res,
                                       sb->pipeline_config());
    }
    return res;
  };

  // Warm up on an untimed first setup, then time the set-ups.
  {
    const Built b0 = set_up(nullptr);
    warm_up([&] {
      run_batch(*b0.runner, images);
      return kBatch;
    });
  }
  std::vector<double> setup_s, calibrate_s, build_s;
  Built main;
  repeat_set_up([&] {
    main = Built{};  // release the previous copy before building the next
    main = set_up(tr);
    setup_s.push_back(main.calibrate_s + main.build_s);
    calibrate_s.push_back(main.calibrate_s);
    build_s.push_back(main.build_s);
  });
  const runtime::BatchRunner& runner = *main.runner;
  const runtime::InferenceEngine& eng = runner.engine();

  Report rep;
  const std::vector<runtime::InferenceResult> first = run_batch(runner, images);
  const Modeled modeled = summarize_modeled(eng, first);
  std::vector<snn::SpikeMap> outputs;
  for (const auto& r : first) outputs.push_back(r.final_output);

  if (tr != nullptr) {
    const LayerTrace t =
        trace_engine_layers(eng, images, args.seconds, *tr, rep);
    rep.attempted = t.samples;
    report_layer_trace(rep, t);
    report_modeled_per_layer(rep, modeled);
    rep.set("snn.calibrate_s", median(calibrate_s));
    rep.set("runtime.engine.build_s", median(build_s));
    print_layer_table(eng, t, modeled);
  } else {
    // Closed loop in windows of ~0.5 s; the reported rate is the median
    // window, so a burst of interference moves it little.
    std::vector<double> rates;
    const double end = now_s() + args.seconds;
    while (now_s() < end || rates.size() < 3) {
      double busy = 0, done = 0;
      const double window_end = now_s() + 0.5;
      while (now_s() < window_end) {
        const double t0 = now_s();
        const auto res = run_batch(runner, images);
        busy += now_s() - t0;
        done += static_cast<double>(kBatch);
        rep.attempted += kBatch;
        for (std::size_t i = 0; i < kBatch; ++i) {
          if (!same_outputs(res[i], first[i])) ++rep.failed;
        }
      }
      rates.push_back(done / busy);
    }
    // Peak memory of the workload itself, before the paper pass below
    // builds its own engines.
    rep.set("host_peak_rss_mb", peak_rss_mb());
    rep.set("host_samples_per_s", median(rates));
    rep.set("setup_s", median(setup_s));
    report_modeled_end_to_end(rep, modeled);
    std::printf("throughput: median of %zu windows %.2f samples/s "
                "(batch of %zu, %zu-layer network); windows:",
                rates.size(), median(rates), kBatch, eng.network().num_layers());
    for (double r : rates) std::printf(" %.1f", r);
    std::printf("\n");
    std::printf("setup: median %.4f s of %zu (calibrate %.4f s, engine build "
                "%.4f s)\n",
                median(setup_s), setup_s.size(), median(calibrate_s),
                median(build_s));
    const snn::Network svgg11 = tower ? calibrated_svgg11() : snn::Network{};
    report_paper(rep, paper_errors(tower ? svgg11 : main.net,
                                   snn::make_batch(kBatch, args.seed)));
  }

  rep.check(rep.failed == 0, "outputs changed between calls");
  // Golden check of every distinct input, untimed.
  const std::size_t bad = reference_mismatches(eng, images, outputs);
  rep.failed += bad;
  rep.check(bad == 0, "final spikes differ from snn::Reference");
  return rep;
}

}  // namespace perfbench
