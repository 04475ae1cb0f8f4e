// Shared harness of the repository benchmark: clocks, order statistics, the
// warm-up gate, host identity, and the result record every workload fills.
//
// A workload runs in one of two modes. Untraced (--trace 0) it reports the
// end-to-end metrics; traced (--trace 1) it reports the per-layer metrics
// gathered from spans (trace.hpp). Both print one JSON object as the last
// line of standard output.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/function_ref.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);

/// The highest percentile that still has at least `beyond` samples above it:
/// with n sorted samples, the value of rank n - beyond. A tail is reported
/// with its percentile and sample count so two runs compare like for like.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Everything one benchmark invocation reports. `attempted` counts the
/// operations the workload issued (samples offline, requests when serving);
/// `failed` counts every operation that did not produce a correct result.
/// Metric values are keyed by the names in metrics.cpp, which also fixes
/// their units and the order they are printed in.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Record a failed correctness check: the run is reported incorrect and
  /// the reason goes to standard error.
  void check(bool ok, const std::string& what);
};

/// Arguments of one invocation.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Warm-up gate: runs `step` (one unit of hot-loop work, returning the
/// samples it completed) in windows of `window_s` seconds until two
/// consecutive windows' rates agree within `tol`, or `max_s` has passed, and
/// prints one summary line. Nothing is timed before it returns.
void warm_up(spikestream::common::FunctionRef<std::size_t()> step,
             double window_s = 0.5, double tol = 0.05, double max_s = 15.0);

/// Call `set_up` at least three times and until a second has passed (at most
/// 400 calls), so that set-ups lasting milliseconds still give a steady
/// median. Returns the number of calls.
std::size_t repeat_set_up(spikestream::common::FunctionRef<void()> set_up);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// One line naming the host, build and seed, printed with every result.
std::string run_identity(const Args& args);

}  // namespace perfbench
