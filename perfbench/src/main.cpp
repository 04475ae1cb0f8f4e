// The repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Workloads: svgg11-offline, tower8-hybrid, svgg11-serve (see workloads.hpp
// and README.md). With --trace 0 the last line of standard output is a JSON
// object carrying every end-to-end metric; with --trace 1 it carries every
// per-layer metric, and the spans are written to --trace-out when given.
// Human-readable detail precedes it. Exit code 0 means the run completed;
// "correct" in the JSON says whether every output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of a table; README.md says what each
// means on each workload and which layer metric should move it.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_samples_per_s", "1/s"},
    {"host_peak_rss_mb", "MB"},
    {"modeled_mcycles_per_sample", "Mcycles"},
    {"modeled_energy_uj_per_sample", "uJ"},
    {"modeled_dma_mb_per_sample", "MB"},
    {"modeled_fpu_util", "ratio"},
    {"paper_speedup_error", "ratio"},
    {"paper_util_error", "ratio"},
};

// Per-layer metrics a workload does not exercise read 0 (no NoC or stage
// pipeline on the one-cluster S-VGG11).
constexpr MetricDef kPerLayer[] = {
    {"snn.calibrate_s", "s"},
    {"runtime.engine.build_s", "s"},
    {"runtime.engine.sample_us", "us"},
    {"runtime.engine.layer_us.encode", "us"},
    {"runtime.engine.layer_us.conv", "us"},
    {"runtime.engine.layer_us.fc", "us"},
    {"runtime.engine.handoff_us", "us"},
    {"compress.encode_us", "us"},
    {"kernels.functional_us", "us"},
    {"kernels.fc_batch_us", "us"},
    {"kernels.timing_us", "us"},
    {"arch.cycles.encode", "cycles"},
    {"arch.cycles.conv", "cycles"},
    {"arch.cycles.fc", "cycles"},
    {"arch.fpu_util.encode", "ratio"},
    {"arch.fpu_util.conv", "ratio"},
    {"arch.fpu_util.fc", "ratio"},
    {"arch.energy_uj.encode", "uJ"},
    {"arch.energy_uj.conv", "uJ"},
    {"arch.energy_uj.fc", "uJ"},
    {"arch.compute_cycles", "cycles"},
    {"arch.dma_cycles", "cycles"},
    {"arch.dma_hidden_cycles", "cycles"},
    {"arch.dma_mb", "MB"},
    {"arch.dma_saved_mb", "MB"},
    {"arch.dram_row_hit_rate", "ratio"},
    {"arch.noc_mb", "MB"},
    {"arch.noc_contention_cycles", "cycles"},
    {"arch.fifo_stall_cycles", "cycles"},
    {"runtime.stage.service_cycles", "cycles"},
    {"runtime.stage.stall_cycles", "cycles"},
    {"runtime.stage.idle_cycles", "cycles"},
    {"kernels.partition.stages", "count"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.reconcile_error", "ratio"},
};

// svgg11-serve is run by hand (it is not a BENCHMARK.json workload; see
// README.md) and reports these on top of the tables above.
constexpr MetricDef kServeEndToEnd[] = {
    {"latency_p50_ms.low", "ms"},
    {"latency_tail_ms.low", "ms"},
    {"latency_p50_ms.high", "ms"},
    {"latency_tail_ms.high", "ms"},
};
constexpr MetricDef kServePerLayer[] = {
    {"runtime.server.start_s", "s"},
    {"runtime.server.queue_ms_p50", "ms"},
    {"runtime.server.queue_ms_tail", "ms"},
    {"runtime.server.service_ms_p50", "ms"},
    {"runtime.server.service_ms_tail", "ms"},
    {"runtime.server.wave_lanes_mean", "count"},
    {"runtime.server.deadline_wave_frac", "ratio"},
    {"runtime.server.rejected", "count"},
    {"runtime.server.timed_out", "count"},
    {"runtime.server.errored", "count"},
    {"runtime.server.corrupted", "count"},
    {"bench.generator_lag_ms_tail", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<svgg11-offline|tower8-hybrid|svgg11-serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

/// Print the result line with the metrics of `table`, in its order. Every
/// metric the workload measured must be listed; a listed metric it did not
/// measure is an error unless `missing_is_zero`.
int print_result(const Report& rep, const std::vector<MetricDef>& table,
                 bool missing_is_zero) {
  for (const auto& [name, value] : rep.values) {
    bool known = false;
    for (const MetricDef& d : table) known = known || name == d.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
      return 2;
    }
  }
  std::string line = "{\"correct\": ";
  line += rep.correct && rep.failed == 0 ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
  line += buf;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto it = rep.values.find(table[i].name);
    if (it == rep.values.end() && !missing_is_zero) {
      std::fprintf(stderr, "perfbench: metric %s not measured\n",
                   table[i].name);
      return 2;
    }
    const double v = it == rep.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   table[i].name);
      return 2;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", table[i].name, v, table[i].unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("no --workload");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  const bool serve = args.workload == "svgg11-serve";
  if (!serve && args.workload != "svgg11-offline" &&
      args.workload != "tower8-hybrid") {
    usage(("unknown workload " + args.workload).c_str());
  }

  std::printf("run: %s\n", run_identity(args).c_str());
  std::fflush(stdout);
  try {
    Tracer tracer(args.trace ? 250000 : 0);
    Tracer* tr = args.trace ? &tracer : nullptr;
    const Report rep = serve ? run_serve(args, tr) : run_offline(args, tr);
    if (tr != nullptr && !trace_out.empty()) {
      if (!tracer.write_chrome_json(trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     trace_out.c_str());
        return 2;
      }
      std::printf("trace: %zu spans (%llu dropped) written to %s\n",
                  tracer.spans().size(),
                  static_cast<unsigned long long>(tracer.dropped()),
                  trace_out.c_str());
    }
    std::vector<MetricDef> table(std::begin(kEndToEnd), std::end(kEndToEnd));
    if (args.trace) table.assign(std::begin(kPerLayer), std::end(kPerLayer));
    if (serve) {
      if (args.trace) {
        table.insert(table.end(), std::begin(kServePerLayer),
                     std::end(kServePerLayer));
      } else {
        table.insert(table.end(), std::begin(kServeEndToEnd),
                     std::end(kServeEndToEnd));
      }
    }
    return print_result(rep, table, args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
