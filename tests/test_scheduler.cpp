#include "kernels/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace k = spikestream::kernels;

TEST(Scheduler, StealBalancesUniformTasks) {
  std::vector<double> tasks(64, 100.0);
  const auto r = k::steal_schedule(tasks, 8, 0.0);
  for (double c : r.core_cycles) EXPECT_DOUBLE_EQ(c, 800.0);
  EXPECT_DOUBLE_EQ(r.makespan, 800.0);
  EXPECT_NEAR(r.imbalance(), 0.0, 1e-12);
}

TEST(Scheduler, StealCostAccrues) {
  std::vector<double> tasks(8, 10.0);
  const auto r = k::steal_schedule(tasks, 8, 5.0);
  EXPECT_DOUBLE_EQ(r.makespan, 15.0);
}

TEST(Scheduler, MakespanBounds) {
  // List scheduling: makespan within [sum/p, sum/p + max_task].
  spikestream::common::Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> tasks;
    double sum = 0, mx = 0;
    const int n = 20 + static_cast<int>(rng.uniform_u64(100));
    for (int i = 0; i < n; ++i) {
      tasks.push_back(rng.uniform(1.0, 50.0));
      sum += tasks.back();
      mx = std::max(mx, tasks.back());
    }
    const auto r = k::steal_schedule(tasks, 8, 0.0);
    EXPECT_GE(r.makespan + 1e-9, sum / 8.0);
    EXPECT_LE(r.makespan, sum / 8.0 + mx + 1e-9);
  }
}

TEST(Scheduler, StealBeatsStaticOnSkewedTasks) {
  // Adversarial distribution for round-robin: every 8th task is huge, so a
  // static partition piles all heavy tasks onto core 0.
  std::vector<double> tasks;
  for (int i = 0; i < 64; ++i) tasks.push_back(i % 8 == 0 ? 200.0 : 10.0);
  const auto dyn = k::steal_schedule(tasks, 8, 1.0);
  const auto sta = k::static_schedule(tasks, 8);
  EXPECT_LT(dyn.makespan, 0.6 * sta.makespan);
  EXPECT_GT(sta.imbalance(), 0.5);
}

TEST(Scheduler, SingleCoreDegeneratesToSum) {
  std::vector<double> tasks = {3, 4, 5};
  const auto r = k::steal_schedule(tasks, 1, 2.0);
  EXPECT_DOUBLE_EQ(r.makespan, 3 + 4 + 5 + 3 * 2.0);
}

TEST(Scheduler, EmptyTaskList) {
  const auto r = k::steal_schedule(std::vector<double>{}, 8, 1.0);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

TEST(Scheduler, WorkConservation) {
  // Total busy time equals total task time + steal overhead.
  spikestream::common::Rng rng(6);
  std::vector<double> tasks;
  double sum = 0;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back(rng.uniform(1.0, 9.0));
    sum += tasks.back();
  }
  const auto r = k::steal_schedule(tasks, 4, 2.0);
  // Busy time per core is its finish time only if never idle; with greedy
  // assignment cores never idle until the queue drains, so the sum of
  // per-core finish times >= total work.
  const double busy =
      std::accumulate(r.core_cycles.begin(), r.core_cycles.end(), 0.0);
  EXPECT_GE(busy + 1e-9, sum + 50 * 2.0 - r.makespan * 0);
}

namespace {

/// The scheduler as it was before the claim-order shortcut and the
/// branch-free scan: a branchy linear earliest-core scan per task.
k::ScheduleResult linear_scan_schedule(const std::vector<double>& tasks,
                                       int cores, double steal_cost) {
  k::ScheduleResult r;
  r.core_cycles.assign(static_cast<std::size_t>(cores), 0.0);
  for (double t : tasks) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < r.core_cycles.size(); ++c) {
      if (r.core_cycles[c] < r.core_cycles[best]) best = c;
    }
    r.core_cycles[best] = r.core_cycles[best] + steal_cost + t;
  }
  for (double c : r.core_cycles) r.makespan = std::max(r.makespan, c);
  return r;
}

}  // namespace

TEST(Scheduler, StealMatchesLinearScanBitForBit) {
  spikestream::common::Rng rng(20);
  k::ScheduleResult got;  // reused, like the scratch arenas reuse it
  for (int trial = 0; trial < 3000; ++trial) {
    const int cores = 1 + static_cast<int>(rng.uniform_u64(16));
    // Fewer tasks than cores, about as many, and many more.
    const int n = static_cast<int>(rng.uniform_u64(3 * cores + 40));
    // Small integer costs and a zero steal cost make exact ties common;
    // zero-cost tasks leave their core idle.
    const bool integral = rng.bernoulli(0.5);
    const double steal_cost =
        rng.bernoulli(0.3) ? 0.0
                           : (integral ? static_cast<double>(
                                             rng.uniform_u64(3))
                                       : rng.uniform(0.0, 5.0));
    std::vector<double> tasks(static_cast<std::size_t>(n));
    for (double& t : tasks) {
      if (rng.bernoulli(0.2)) {
        t = 0.0;
      } else {
        t = integral ? static_cast<double>(rng.uniform_u64(4))
                     : rng.uniform(1.0, 400.0);
      }
    }
    // The model never prices a task below zero, but the scheduler must
    // still match the scan when a cost is negative (a finish time can then
    // fall below an idle core's).
    if (n > 0 && rng.bernoulli(0.1)) {
      tasks[rng.uniform_u64(static_cast<std::uint64_t>(n))] =
          -rng.uniform(1.0, 50.0);
    }
    const k::ScheduleResult want = linear_scan_schedule(tasks, cores,
                                                        steal_cost);
    k::steal_schedule_into(tasks, cores, steal_cost, got);
    ASSERT_EQ(got.core_cycles.size(), want.core_cycles.size());
    EXPECT_EQ(std::memcmp(got.core_cycles.data(), want.core_cycles.data(),
                          want.core_cycles.size() * sizeof(double)),
              0)
        << "trial " << trial << ": cores=" << cores << " tasks=" << n
        << " steal=" << steal_cost;
    EXPECT_EQ(std::memcmp(&got.makespan, &want.makespan, sizeof(double)), 0)
        << "trial " << trial;
  }
}
