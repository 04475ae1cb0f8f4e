// Workload-stealing scheduler simulation (Section III-B): each core, on
// finishing its receptive field, atomically fetches the next unprocessed RF
// (`next_rf` tag). With per-task cycle costs known, this is equivalent to
// greedy list scheduling in task order onto the earliest-free core, plus the
// steal cost per task. A static round-robin variant backs the ablation bench.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace spikestream::kernels {

struct ScheduleResult {
  std::vector<double> core_cycles;  ///< finish time per core
  double makespan = 0;

  double imbalance() const {
    double lo = 1e300, hi = 0;
    for (double c : core_cycles) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return core_cycles.empty() || hi == 0 ? 0.0 : (hi - lo) / hi;
  }
};

/// Index of the earliest-free core: the first minimum of c[0..n), exactly
/// what the scan `if (c[i] < c[best]) best = i` returns, with selects in
/// place of its data-dependent branches.
inline std::size_t earliest_core(const double* c, std::size_t n) {
  std::size_t best = 0;
  double best_cycles = c[0];
  for (std::size_t i = 1; i < n; ++i) {
    const bool earlier = c[i] < best_cycles;
    best = earlier ? i : best;
    best_cycles = earlier ? c[i] : best_cycles;
  }
  return best;
}

/// Dynamic workload stealing into a caller-owned result (scratch reuse, no
/// allocations once `core_cycles` capacity is warm): tasks claimed in order
/// by the earliest-free core (lowest index on ties, matching the atomic
/// next_rf fetch); each claim pays `steal_cost` cycles, added as
/// `time + steal_cost + t` so results stay bit-identical to the historical
/// priority-queue implementation.
inline void steal_schedule_into(std::span<const double> task_cycles, int cores,
                                double steal_cost, ScheduleResult& r) {
  r.core_cycles.assign(static_cast<std::size_t>(cores), 0.0);
  r.makespan = 0;
  const std::size_t n = r.core_cycles.size();
  double* c = r.core_cycles.data();
  std::size_t i = 0;
  // Claim-order shortcut: while every claim so far left its core busy
  // (finish time > 0), cores [0, i) are busy and the rest idle at 0, so
  // claim i goes to core i, the lowest-index idle core, with no scan.
  for (; i < task_cycles.size() && i < n; ++i) {
    const double t = 0.0 + steal_cost + task_cycles[i];
    if (!(t > 0)) break;
    c[i] = t;
  }
  for (; i < task_cycles.size(); ++i) {
    const std::size_t best = earliest_core(c, n);
    c[best] = c[best] + steal_cost + task_cycles[i];
  }
  for (double t : r.core_cycles) r.makespan = std::max(r.makespan, t);
}

/// Dynamic workload stealing: tasks claimed in order by the earliest-free
/// core; each claim pays `steal_cost` cycles.
inline ScheduleResult steal_schedule(std::span<const double> task_cycles,
                                     int cores, double steal_cost) {
  ScheduleResult r;
  steal_schedule_into(task_cycles, cores, steal_cost, r);
  return r;
}

/// Static round-robin pre-assignment into a caller-owned result.
inline void static_schedule_into(std::span<const double> task_cycles,
                                 int cores, ScheduleResult& r) {
  r.core_cycles.assign(static_cast<std::size_t>(cores), 0.0);
  r.makespan = 0;
  for (std::size_t i = 0; i < task_cycles.size(); ++i) {
    r.core_cycles[i % static_cast<std::size_t>(cores)] += task_cycles[i];
  }
  for (double c : r.core_cycles) r.makespan = std::max(r.makespan, c);
}

/// Static round-robin pre-assignment (ablation baseline): core i gets tasks
/// i, i+cores, i+2*cores, ... regardless of their dynamic cost.
inline ScheduleResult static_schedule(std::span<const double> task_cycles,
                                      int cores) {
  ScheduleResult r;
  static_schedule_into(task_cycles, cores, r);
  return r;
}

}  // namespace spikestream::kernels
