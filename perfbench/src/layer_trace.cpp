// Traced engine stepping: the per-layer host numbers of every workload.
//
// Each traced round steps the workload's batch one sample at a time through
// InferenceEngine::begin_sample/run_layer, with a span around every
// run_layer call. After a sample completes, each layer's captured input is
// replayed through the three phases a layer is made of, each in its own
// span: CsrIfmap::encode_into (compress), the kernels' functional pass (the
// synaptic accumulation and the LIF step) and their timing pass (the cost
// model). Whatever a run_layer call spends beyond its three phases is the
// engine's handoff: metric bookkeeping, spike routing, backend dispatch and,
// on the sharded backend, the per-cluster pricing. The FC tail of the batch
// then runs once more as one run_layer_batch wave (the segment-major path
// BatchRunner takes). Untraced rounds of the same stepping alternate with
// the traced ones, so the tracing overhead is measured in the same run.
#include <cmath>
#include <cstring>

#include "compress/csr_ifmap.hpp"
#include "snn/reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kSample = "runtime.engine.sample";
constexpr const char* kLayer = "runtime.engine.layer";
constexpr const char* kReplay = "bench.replay";
constexpr const char* kEncode = "compress.encode";
constexpr const char* kFunctional = "kernels.functional";
constexpr const char* kTiming = "kernels.timing";
constexpr const char* kWave = "runtime.engine.wave";
constexpr const char* kFcBatch = "kernels.fc_batch";

bool is(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

class LayerStepper {
 public:
  LayerStepper(const runtime::InferenceEngine& eng,
               const std::vector<snn::Tensor>& images)
      : eng_(eng), net_(eng.network()), images_(images),
        outs_(images.size()), wave_outs_(images.size()),
        inputs_(images.size(),
                std::vector<const snn::SpikeMap*>(net_.num_layers())),
        lanes_(images.size()), replay_(net_.num_layers()),
        membranes_(net_.num_layers()) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      states_.push_back(eng.make_state());
    }
    first_fc_ = net_.num_layers();
    for (std::size_t l = 0; l < net_.num_layers(); ++l) {
      const snn::LayerSpec& spec = net_.layer(l);
      membranes_[l] = snn::Tensor(spec.out_h(), spec.out_w(), spec.out_c);
      if (spec.kind == snn::LayerKind::kFc && first_fc_ == net_.num_layers()) {
        first_fc_ = l;
      }
    }
  }

  /// Spans one traced round records at most.
  std::size_t spans_per_round() const {
    return images_.size() * (2 + 4 * net_.num_layers()) + 1 +
           net_.num_layers();
  }

  /// One traced round over the batch. Returns false if a replayed layer or
  /// the FC wave disagreed with the engine.
  bool traced_round(Tracer& tr) {
    bool ok = true;
    for (std::size_t i = 0; i < images_.size(); ++i) {
      const std::uint64_t id = tr.new_id();
      states_[i].clear();
      {
        const Scope sample(&tr, kSample, id);
        step_sample(i, &tr, sample.index(), id);
      }
      ok = replay(i, tr, id) && ok;
    }
    return fc_wave(tr) && ok;
  }

  /// One untraced round; appends each sample's stepping time.
  void untraced_round(std::vector<double>& sample_us) {
    for (std::size_t i = 0; i < images_.size(); ++i) {
      states_[i].clear();
      const std::uint64_t t0 = now_ns();
      step_sample(i, nullptr, -1, 0);
      sample_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  }

 private:
  void step_sample(std::size_t i, Tracer* tr, std::int64_t parent,
                   std::uint64_t id) {
    eng_.begin_sample(outs_[i]);
    const snn::SpikeMap* carry = nullptr;
    for (std::size_t l = 0; l < net_.num_layers(); ++l) {
      inputs_[i][l] = carry;
      const Scope layer(tr, kLayer, id, parent, static_cast<int>(l));
      carry = eng_.run_layer(l, &images_[i], carry, states_[i], outs_[i]);
    }
  }

  /// Replay sample i's layers phase by phase. The captured inputs alias the
  /// sample's state, which nothing touches until its next round.
  bool replay(std::size_t i, Tracer& tr, std::uint64_t id) {
    const kernels::RunOptions& opt = eng_.options();
    const Scope root(&tr, kReplay, id);
    const std::int64_t p = root.index();
    bool ok = true;
    for (std::size_t l = 0; l < net_.num_layers(); ++l) {
      const snn::LayerSpec& spec = net_.layer(l);
      const snn::LayerWeights& w = net_.weights(l);
      kernels::KernelScratch& ks = replay_[l];
      snn::Tensor& mem = membranes_[l];
      std::fill(mem.v.begin(), mem.v.end(), 0.0f);
      const int li = static_cast<int>(l);
      if (spec.kind == snn::LayerKind::kEncodeConv) {
        snn::Reference::pad_dense_into(images_[i],
                                       (spec.in_h - images_[i].h) / 2,
                                       padded_);
        {
          const Scope s(&tr, kFunctional, id, p, li);
          kernels::encode_functional(spec, w, padded_, mem, ks);
        }
        const Scope s(&tr, kTiming, id, p, li);
        kernels::encode_timing(spec, opt, ks);
      } else {
        {
          const Scope s(&tr, kEncode, id, p, li);
          spikestream::compress::CsrIfmap::encode_into(*inputs_[i][l], csr_);
        }
        const bool fc = spec.kind == snn::LayerKind::kFc;
        {
          const Scope s(&tr, kFunctional, id, p, li);
          if (fc) {
            kernels::fc_functional(spec, w, csr_, mem, ks);
          } else {
            kernels::conv_functional(spec, w, csr_, mem, ks);
          }
        }
        const Scope s(&tr, kTiming, id, p, li);
        if (fc) {
          kernels::fc_timing(spec, csr_, opt, ks);
        } else {
          kernels::conv_timing(spec, csr_, opt, ks);
        }
      }
      // The replay must produce the spikes the engine produced.
      const double engine_nnz =
          outs_[i].layers[l].out_firing_rate *
          static_cast<double>(ks.run.out_spikes.size());
      ok = ok && static_cast<double>(ks.run.out_nnz) == std::round(engine_nnz);
    }
    return ok;
  }

  /// The batch's FC tail as one lockstep wave from the captured FC inputs;
  /// its final spikes must equal the sample-by-sample ones.
  bool fc_wave(Tracer& tr) {
    if (first_fc_ >= net_.num_layers()) return true;
    for (std::size_t i = 0; i < images_.size(); ++i) {
      states_[i].clear();
      eng_.begin_sample(wave_outs_[i]);
      lanes_[i] = {&images_[i], inputs_[i][first_fc_], &states_[i],
                   &wave_outs_[i]};
    }
    const std::uint64_t id = tr.new_id();
    {
      const Scope wave(&tr, kWave, id);
      for (std::size_t l = first_fc_; l < net_.num_layers(); ++l) {
        const Scope s(&tr, kFcBatch, id, wave.index(), static_cast<int>(l));
        eng_.run_layer_batch(l, std::span(lanes_));
      }
    }
    bool ok = true;
    for (std::size_t i = 0; i < images_.size(); ++i) {
      ok = ok && wave_outs_[i].final_output.v == outs_[i].final_output.v;
    }
    return ok;
  }

  const runtime::InferenceEngine& eng_;
  const snn::Network& net_;
  const std::vector<snn::Tensor>& images_;
  std::vector<snn::NetworkState> states_;
  std::vector<runtime::InferenceResult> outs_, wave_outs_;
  std::vector<std::vector<const snn::SpikeMap*>> inputs_;
  std::vector<runtime::InferenceEngine::BatchLane> lanes_;
  std::vector<kernels::KernelScratch> replay_;
  std::vector<snn::Tensor> membranes_;
  spikestream::compress::CsrIfmap csr_;
  snn::Tensor padded_;
  std::size_t first_fc_ = 0;
};

}  // namespace

LayerTrace trace_engine_layers(const runtime::InferenceEngine& eng,
                               const std::vector<snn::Tensor>& images,
                               double seconds, Tracer& tr, Report& rep) {
  LayerStepper stepper(eng, images);
  const std::size_t first_span = tr.spans().size();
  std::vector<double> untraced_us;
  bool ok = true;
  std::size_t traced = 0;
  const std::size_t per_round = stepper.spans_per_round();
  const std::size_t budget = tr.room();
  const double start = now_s();
  // Traced and untraced rounds alternate, so drift hits both equally. When
  // the span buffer cannot hold a traced round per iteration for the whole
  // run (the tower steps a sample in ~0.3 ms), traced rounds are paced to
  // spread the buffer evenly over it.
  while (traced < 2 || now_s() < start + seconds) {
    const std::size_t used = budget - tr.room();
    const double pace =
        static_cast<double>(budget) * (now_s() - start) / seconds;
    if (used + per_round <= budget &&
        (traced < 2 || static_cast<double>(used) <= pace)) {
      ok = stepper.traced_round(tr) && ok;
      ++traced;
    } else if (traced < 2) {
      break;  // not even two traced rounds fit
    }
    stepper.untraced_round(untraced_us);
  }
  rep.check(ok, "traced replay or FC wave differs from the engine's spikes");
  rep.check(traced >= 2, "trace buffer too small for two rounds");

  const snn::Network& net = eng.network();
  const std::vector<Span>& spans = tr.spans();
  LayerTrace t;
  t.layer_total_us.assign(net.num_layers(), 0.0);
  double samples = 0, waves = 0, sample_us = 0, layer_sum = 0;
  for (std::size_t k = first_span; k < spans.size(); ++k) {
    const Span& s = spans[k];
    const double us = s.us();
    if (is(s, kSample)) {
      samples += 1;
      sample_us += us;
    } else if (is(s, kLayer)) {
      const auto l = static_cast<std::size_t>(s.layer);
      t.layer_total_us[l] += us;
      t.layer_us[kind_of(net.layer(l))] += us;
      layer_sum += us;
    } else if (is(s, kEncode)) {
      t.encode_us += us;
    } else if (is(s, kFunctional)) {
      t.functional_us += us;
    } else if (is(s, kTiming)) {
      t.timing_us += us;
    } else if (is(s, kWave)) {
      waves += 1;
    } else if (is(s, kFcBatch)) {
      t.fc_batch_us += us;
    }
  }
  const double n = std::max(samples, 1.0);
  t.samples = static_cast<std::uint64_t>(samples) + untraced_us.size();
  t.sample_us = sample_us / n;
  for (double& v : t.layer_us) v /= n;
  for (double& v : t.layer_total_us) v /= n;
  t.encode_us /= n;
  t.functional_us /= n;
  t.timing_us /= n;
  t.fc_batch_us /= std::max(waves, 1.0) * static_cast<double>(images.size());
  const double layers_us = layer_sum / n;
  t.handoff_us = layers_us - (t.encode_us + t.functional_us + t.timing_us);
  // Reconciliation: the layer spans must cover the sample spans, and the
  // replayed phases must fit inside the run_layer time they account for.
  const double gap =
      std::fabs(t.sample_us - layers_us) / std::max(t.sample_us, 1e-9);
  t.reconcile_error =
      std::max(gap, std::max(0.0, -t.handoff_us) / std::max(layers_us, 1e-9));
  double untraced = 0;
  for (double us : untraced_us) untraced += us;
  untraced /= std::max<double>(1.0, static_cast<double>(untraced_us.size()));
  t.overhead_ratio = untraced > 0 ? t.sample_us / untraced : 0.0;
  return t;
}

void report_layer_trace(Report& rep, const LayerTrace& t) {
  rep.set("runtime.engine.sample_us", t.sample_us);
  for (int k = 0; k < kKinds; ++k) {
    rep.set(std::string("runtime.engine.layer_us.") +
                kind_name(static_cast<KindIdx>(k)),
            t.layer_us[static_cast<std::size_t>(k)]);
  }
  rep.set("runtime.engine.handoff_us", t.handoff_us);
  rep.set("compress.encode_us", t.encode_us);
  rep.set("kernels.functional_us", t.functional_us);
  rep.set("kernels.fc_batch_us", t.fc_batch_us);
  rep.set("kernels.timing_us", t.timing_us);
  rep.set("bench.trace_overhead_ratio", t.overhead_ratio);
  rep.set("bench.reconcile_error", t.reconcile_error);
}

void print_layer_table(const runtime::InferenceEngine& eng,
                       const LayerTrace& t, const Modeled& m) {
  const snn::Network& net = eng.network();
  std::printf("%-8s %-7s %14s %16s\n", "layer", "kind", "host us/sample",
              "modeled cycles");
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    std::printf("%-8s %-7s %14.3f %16.1f\n", net.layer(l).name.c_str(),
                kind_name(kind_of(net.layer(l))), t.layer_total_us[l],
                l < m.layer_cycles.size() ? m.layer_cycles[l] : 0.0);
  }
  std::printf("sample %.3f us = layers (encode %.3f + conv %.3f + fc %.3f); "
              "phases: compress %.3f, functional %.3f, timing %.3f, "
              "handoff %.3f; fc wave %.3f us/sample; trace overhead %.4fx\n",
              t.sample_us, t.layer_us[kEnc], t.layer_us[kConv],
              t.layer_us[kFc], t.encode_us, t.functional_us, t.timing_us,
              t.handoff_us, t.fc_batch_us, t.overhead_ratio);
}

}  // namespace perfbench
