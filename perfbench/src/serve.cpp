// svgg11-serve: the S-VGG11 engine configuration of svgg11-offline behind an
// InferenceServer, under open-loop Poisson load from one generator thread.
//
// Offered rates are absolute and fixed here, so a faster build faces the same
// load as a slower one. Every request is timed from the moment it was due to
// be sent, so a stalled generator or server charges its wait to the requests
// behind it, and the generator reports how late it ran. Each load point
// starts with a warm-in whose requests are checked but not timed. A request
// that is rejected, shed, errored, corrupted, dropped for want of a client
// slot, or answered with spikes that differ from the offline engine counts as
// failed.
//
// Points: `low` (waves mostly one lane, fired by the queue deadline), `high`
// (waves filling toward 8 lanes), and an ascending ladder for the highest
// rate whose tail latency stays within kTailLimitMs.
#include <cmath>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "runtime/server.hpp"
#include "snn/input_gen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kLowRps = 20;
constexpr double kHighRps = 100;
/// The maximum-rate search bisects [kSearchLoRps, kSearchHiRps] in
/// kSearchSteps open-loop probes.
constexpr double kSearchLoRps = 60;
constexpr double kSearchHiRps = 420;
constexpr int kSearchSteps = 5;
constexpr double kTailLimitMs = 100;
constexpr std::size_t kDistinctInputs = 16;
constexpr std::size_t kSlots = 4096;

/// One load point's outcome. Latency vectors hold only timed requests;
/// counters cover warm-in requests too.
struct Point {
  double rate = 0;
  std::vector<double> latency_ms, queue_ms, service_ms, lag_ms;
  std::uint64_t sent = 0, completed = 0, rejected = 0, dropped = 0;
  std::uint64_t timed_out = 0, errored = 0, corrupted = 0, mismatched = 0;
  double waves = 0, deadline_waves = 0, lanes = 0;

  std::uint64_t failed() const {
    return rejected + dropped + timed_out + errored + corrupted + mismatched;
  }
  Tail latency_tail() const { return tail(latency_ms); }
};

class Generator {
 public:
  Generator(runtime::InferenceServer& srv,
            const std::vector<snn::Tensor>& images,
            const std::vector<std::vector<std::uint32_t>>& expected,
            std::uint64_t seed, Tracer* tr)
      : srv_(srv), images_(images), expected_(expected), slots_(kSlots),
        rng_(seed * 0x9E3779B97F4A7C15ull + 11), tr_(tr) {
    free_.reserve(kSlots);
    for (std::size_t i = kSlots; i-- > 0;) free_.push_back(i);
    flight_.reserve(kSlots);
  }

  Point run(double rate, double warm_s, double measure_s) {
    Point pt;
    pt.rate = rate;
    const std::uint64_t start = now_ns() + 1000000;
    const auto measure_from =
        start + static_cast<std::uint64_t>(warm_s * 1e9);
    const auto stop = measure_from + static_cast<std::uint64_t>(measure_s * 1e9);
    runtime::ServerStats before;
    bool snapped = false;
    double next = static_cast<double>(start);
    while (next < static_cast<double>(stop)) {
      const auto due = static_cast<std::uint64_t>(next);
      const bool timed = due >= measure_from;
      if (timed && !snapped) {
        before = srv_.stats();
        snapped = true;
      }
      wait_until(due, pt);
      send(due, timed, pt);
      next += -std::log(1.0 - rng_.uniform()) / rate * 1e9;
    }
    while (!flight_.empty()) {
      reap(pt);
      if (!flight_.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const runtime::ServerStats after = srv_.stats();
    if (!snapped) before = after;
    pt.waves = static_cast<double>(after.waves - before.waves);
    pt.deadline_waves =
        static_cast<double>(after.deadline_waves - before.deadline_waves);
    pt.lanes = after.wave_lanes.mean() * after.wave_lanes.count() -
               before.wave_lanes.mean() * before.wave_lanes.count();
    return pt;
  }

 private:
  struct Flight {
    std::size_t slot = 0;
    std::uint64_t due_ns = 0;
    std::size_t input = 0;
    bool timed = false;
  };

  /// Sleep until shortly before `due`, then yield; reap completions while
  /// waiting so client slots recycle.
  void wait_until(std::uint64_t due, Point& pt) {
    for (;;) {
      reap(pt);
      const std::uint64_t now = now_ns();
      if (now >= due) return;
      const std::uint64_t left = due - now;
      if (left > 300000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<std::uint64_t>(left - 200000,
                                                             1000000)));
      } else {
        std::this_thread::yield();
      }
    }
  }

  void send(std::uint64_t due, bool timed, Point& pt) {
    ++pt.sent;
    const std::size_t input = next_input_++ % images_.size();
    if (free_.empty()) {
      ++pt.dropped;  // the client has no slot left: a failed request
      return;
    }
    const std::size_t slot = free_.back();
    free_.pop_back();
    runtime::ServeRequest& req = slots_[slot];
    req.image = &images_[input];
    if (timed) pt.lag_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
    if (srv_.submit(req)) {
      flight_.push_back({slot, due, input, timed});
    } else {
      ++pt.rejected;
      free_.push_back(slot);
    }
  }

  void reap(Point& pt) {
    for (std::size_t j = 0; j < flight_.size();) {
      const Flight f = flight_[j];
      runtime::ServeRequest& req = slots_[f.slot];
      const int st = req.state.load(std::memory_order_acquire);
      if (st == runtime::ServeRequest::kQueued) {
        ++j;
        continue;
      }
      finish(f, req, st, pt);
      free_.push_back(f.slot);
      flight_[j] = flight_.back();
      flight_.pop_back();
    }
  }

  void finish(const Flight& f, const runtime::ServeRequest& req, int st,
              Point& pt) {
    switch (st) {
      case runtime::ServeRequest::kDone:
        break;
      case runtime::ServeRequest::kTimedOut: ++pt.timed_out; return;
      case runtime::ServeRequest::kError: ++pt.errored; return;
      case runtime::ServeRequest::kCorrupted: ++pt.corrupted; return;
      default: ++pt.rejected; return;
    }
    if (req.result.spike_counts != expected_[f.input]) {
      ++pt.mismatched;
      return;
    }
    ++pt.completed;
    if (!f.timed) return;
    pt.latency_ms.push_back(static_cast<double>(req.complete_ns - f.due_ns) *
                            1e-6);
    pt.queue_ms.push_back(static_cast<double>(req.dispatch_ns -
                                              req.enqueue_ns) * 1e-6);
    pt.service_ms.push_back(static_cast<double>(req.complete_ns -
                                                req.dispatch_ns) * 1e-6);
    if (tr_ != nullptr) {
      // One request's spans share its id: due -> complete, split into the
      // generator's lateness, the queue wait and the wave service.
      const std::uint64_t id = tr_->new_id();
      const std::int64_t root = tr_->record("runtime.server.request", id, -1,
                                            -1, f.due_ns, req.complete_ns);
      tr_->record("bench.generator_lag", id, root, -1, f.due_ns,
                  req.enqueue_ns);
      tr_->record("runtime.server.queue", id, root, -1, req.enqueue_ns,
                  req.dispatch_ns);
      tr_->record("runtime.server.service", id, root, -1, req.dispatch_ns,
                  req.complete_ns);
    }
  }

  runtime::InferenceServer& srv_;
  const std::vector<snn::Tensor>& images_;
  const std::vector<std::vector<std::uint32_t>>& expected_;
  std::vector<runtime::ServeRequest> slots_;
  std::vector<std::size_t> free_;
  std::vector<Flight> flight_;
  spikestream::common::Rng rng_;
  Tracer* tr_;
  std::size_t next_input_ = 0;
};

/// The batch as one lockstep wave on fresh states (BatchRunner's
/// segment-major path): deterministic modeled statistics and outputs.
std::vector<runtime::InferenceResult> lockstep(
    const runtime::InferenceEngine& eng,
    const std::vector<snn::Tensor>& images) {
  std::vector<runtime::InferenceResult> out(images.size());
  std::vector<snn::NetworkState> states;
  std::vector<runtime::InferenceEngine::BatchLane> lanes(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    states.push_back(eng.make_state());
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    eng.begin_sample(out[i]);
    lanes[i] = {&images[i], nullptr, &states[i], &out[i]};
  }
  for (std::size_t l = 0; l < eng.network().num_layers(); ++l) {
    eng.run_layer_batch(l, std::span(lanes));
  }
  return out;
}

/// A load point meets the limit when nothing failed, its tail is within
/// kTailLimitMs, and latency did not climb through the point (the last third
/// of timed requests no slower than the first third plus one limit's tenth).
bool meets_limit(const Point& p) {
  const std::size_t n = p.latency_ms.size();
  if (p.failed() > 0 || n < 3 || p.latency_tail().value > kTailLimitMs) {
    return false;
  }
  double first = 0, last = 0;
  for (std::size_t i = 0; i < n / 3; ++i) {
    first += p.latency_ms[i];
    last += p.latency_ms[n - 1 - i];
  }
  return last <= first + 0.1 * kTailLimitMs * static_cast<double>(n / 3);
}

void print_point(const char* label, const Point& p) {
  const Tail t = p.latency_tail();
  const Tail lag = tail(p.lag_ms);
  std::printf("%-6s %6.0f req/s: p50 %8.3f ms, p%.2f %8.3f ms over %zu "
              "timed (sent %llu, failed %llu), mean wave %.2f lanes, "
              "generator lag p%.2f %.3f ms\n",
              label, p.rate, median(p.latency_ms), t.percentile, t.value,
              t.samples, static_cast<unsigned long long>(p.sent),
              static_cast<unsigned long long>(p.failed()),
              p.waves > 0 ? p.lanes / p.waves : 0.0, lag.percentile,
              lag.value);
}

}  // namespace

Report run_serve(const Args& args, Tracer* tr) {
  const kernels::RunOptions opt = svgg11_options();
  const std::vector<snn::Tensor> images =
      snn::make_batch(kDistinctInputs, args.seed);
  const std::vector<snn::Tensor> batch(images.begin(),
                                       images.begin() + kBatch);

  struct Built {
    snn::Network net;
    std::unique_ptr<runtime::InferenceServer> srv;
    double calibrate_s = 0, start_s = 0;
  };
  auto set_up = [&](Tracer* t) {
    const std::uint64_t id = t ? t->new_id() : 0;
    const Scope setup(t, "setup", id);
    Built b;
    const double t0 = now_s();
    {
      const Scope s(t, "snn.calibrate", id, setup.index());
      b.net = calibrated_svgg11();
    }
    const double t1 = now_s();
    {
      const Scope s(t, "runtime.server.start", id, setup.index());
      b.srv = std::make_unique<runtime::InferenceServer>(b.net, opt);
    }
    b.calibrate_s = t1 - t0;
    b.start_s = now_s() - t1;
    return b;
  };

  {
    const Built b0 = set_up(nullptr);
    const runtime::InferenceEngine& eng = b0.srv->engine();
    snn::NetworkState state = eng.make_state();
    runtime::InferenceResult out;
    warm_up([&] {
      for (const snn::Tensor& img : batch) {
        state.clear();
        eng.run(img, state, out);
      }
      return kBatch;
    });
  }

  std::vector<double> setup_s, calibrate_s, start_s, build_s;
  Built main;
  repeat_set_up([&] {
    main = Built{};  // stop the previous server before starting the next
    main = set_up(tr);
    setup_s.push_back(main.calibrate_s + main.start_s);
    calibrate_s.push_back(main.calibrate_s);
    start_s.push_back(main.start_s);
    if (tr != nullptr) {
      // The server builds its engine inside start; time one on its own too.
      const double t0 = now_s();
      {
        const Scope s(tr, "runtime.engine.build", tr->new_id());
        const runtime::InferenceEngine eng(main.net, opt);
      }
      build_s.push_back(now_s() - t0);
    }
  });
  runtime::InferenceServer& srv = *main.srv;
  const runtime::InferenceEngine& eng = srv.engine();

  // Expected outputs of every distinct input from the offline engine,
  // checked against snn::Reference; served spikes must equal them.
  Report rep;
  std::vector<snn::SpikeMap> outputs;
  std::vector<std::vector<std::uint32_t>> expected;
  {
    snn::NetworkState state = eng.make_state();
    for (const snn::Tensor& img : images) {
      state.clear();
      const runtime::InferenceResult r = eng.run(img, state);
      outputs.push_back(r.final_output);
      expected.emplace_back(r.final_output.v.begin(), r.final_output.v.end());
    }
  }
  const Modeled modeled = summarize_modeled(eng, lockstep(eng, batch));

  Generator gen(srv, images, expected, args.seed, tr);
  auto count = [&](const Point& p) {
    rep.attempted += p.sent;
    rep.failed += p.failed();
  };
  LayerTrace t;
  if (tr != nullptr) {
    t = trace_engine_layers(eng, batch, 0.4 * args.seconds, *tr, rep);
    rep.attempted += t.samples;
  }
  const Point low = gen.run(kLowRps, 0.5, 0.3 * args.seconds);
  const Point high = gen.run(kHighRps, 0.5, 0.3 * args.seconds);
  count(low);
  count(high);
  print_point("low", low);
  print_point("high", high);
  if (tr != nullptr) {
    report_layer_trace(rep, t);
    report_modeled_per_layer(rep, modeled);
    rep.set("snn.calibrate_s", median(calibrate_s));
    rep.set("runtime.engine.build_s", median(build_s));
    rep.set("runtime.server.start_s", median(start_s));
    rep.set("runtime.server.queue_ms_p50", median(high.queue_ms));
    rep.set("runtime.server.queue_ms_tail", tail(high.queue_ms).value);
    rep.set("runtime.server.service_ms_p50", median(low.service_ms));
    rep.set("runtime.server.service_ms_tail", tail(low.service_ms).value);
    rep.set("runtime.server.wave_lanes_mean",
            high.waves > 0 ? high.lanes / high.waves : 0.0);
    rep.set("runtime.server.deadline_wave_frac",
            high.waves > 0 ? high.deadline_waves / high.waves : 0.0);
    std::vector<double> lag = low.lag_ms;
    lag.insert(lag.end(), high.lag_ms.begin(), high.lag_ms.end());
    rep.set("bench.generator_lag_ms_tail", tail(lag).value);
    print_layer_table(eng, t, modeled);
  } else {
    // The highest rate whose tail meets the limit with no failure and no
    // growing backlog, by bisection over fixed absolute rates.
    const double probe_s = 0.4 * args.seconds / kSearchSteps;
    double lo = kSearchLoRps, hi = kSearchHiRps;
    for (int k = 0; k < kSearchSteps; ++k) {
      const double rate = 0.5 * (lo + hi);
      const Point p = gen.run(rate, 0.25, probe_s);
      count(p);
      print_point("search", p);
      (meets_limit(p) ? lo : hi) = rate;
    }
    const double max_rate = 0.5 * (lo + hi);
    std::printf("max rate within a %.0f ms tail: %.2f req/s\n", kTailLimitMs,
                max_rate);
    rep.set("host_peak_rss_mb", peak_rss_mb());
    rep.set("host_samples_per_s", max_rate);
    rep.set("latency_p50_ms.low", median(low.latency_ms));
    rep.set("latency_tail_ms.low", low.latency_tail().value);
    rep.set("latency_p50_ms.high", median(high.latency_ms));
    rep.set("latency_tail_ms.high", high.latency_tail().value);
    rep.set("setup_s", median(setup_s));
    report_modeled_end_to_end(rep, modeled);
    std::printf("setup: median %.4f s of %zu (calibrate %.4f s, server "
                "start %.4f s)\n",
                median(setup_s), setup_s.size(), median(calibrate_s),
                median(start_s));
  }

  srv.stop();
  const runtime::ServerStats st = srv.stats();
  if (tr != nullptr) {
    rep.set("runtime.server.rejected", static_cast<double>(st.rejected));
    rep.set("runtime.server.timed_out", static_cast<double>(st.timed_out));
    rep.set("runtime.server.errored", static_cast<double>(st.errored));
    rep.set("runtime.server.corrupted", static_cast<double>(st.corrupted));
  }
  rep.check(st.admitted ==
                st.completed + st.timed_out + st.errored + st.corrupted,
            "server request conservation violated");
  if (tr == nullptr) {
    report_paper(rep, paper_errors(main.net, batch));
  }
  rep.check(rep.failed == 0, "served requests failed or differed");
  const std::size_t bad = reference_mismatches(eng, images, outputs);
  rep.failed += bad;
  rep.check(bad == 0, "final spikes differ from snn::Reference");
  return rep;
}

}  // namespace perfbench
