#include "bench.hpp"

#include <cpuid.h>
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2),
                   v.end());
  const double hi = v[n / 2];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n / 2));
  return 0.5 * (lo + hi);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Rank n - beyond (1-based) has exactly `beyond` samples above it. With
  // too few samples the maximum is the only honest tail.
  const std::size_t n = v.size();
  const std::size_t rank = n > beyond ? n - beyond : n;
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void warm_up(spikestream::common::FunctionRef<std::size_t()> step,
             double window_s, double tol, double max_s) {
  const double start = now_s();
  int windows = 0;
  double prev = -1, rate = 0;
  bool converged = false;
  while (!converged) {
    const double t0 = now_s();
    std::size_t done = 0;
    double t1 = t0;
    do {
      done += step();
      t1 = now_s();
    } while (t1 - t0 < window_s);
    ++windows;
    rate = static_cast<double>(done) / (t1 - t0);
    converged = prev > 0 && std::fabs(rate - prev) <= tol * prev;
    prev = rate;
    if (t1 - start >= max_s) break;
  }
  std::printf("warm-up: %d windows in %.2f s, %.1f samples/s, %s\n", windows,
              now_s() - start, rate,
              converged ? "converged" : "not converged");
}

std::size_t repeat_set_up(spikestream::common::FunctionRef<void()> set_up) {
  const double start = now_s();
  std::size_t calls = 0;
  while (calls < 3 || (now_s() - start < 1.0 && calls < 400)) {
    set_up();
    ++calls;
  }
  return calls;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

std::string run_identity(const Args& args) {
  // CPU model from the processor's brand string (CPUID leaves
  // 0x80000002..4), so identifying the host reads no file.
  std::string cpu = "unknown";
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    cpu = brand;
    cpu.erase(0, cpu.find_first_not_of(' '));
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "workload=%s seed=%llu seconds=%g trace=%d cpu=\"%s\" "
                "nproc=%u build=%s",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, cpu.c_str(),
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  return buf;
}

}  // namespace perfbench
