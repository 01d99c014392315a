// Smoke test: the simulator completes workloads, conserves tasks, and a
// work-conserving policy keeps wasted-core time near zero on a static
// imbalance.

#include <gtest/gtest.h>

#include "src/core/policies/thread_count.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

namespace optsched {
namespace {

TEST(SimSmoke, StaticImbalanceCompletesAndRebalances) {
  const Topology topology = Topology::Smp(8);
  sim::SimConfig config;
  config.max_time_us = 120'000'000;
  sim::Simulator simulator(topology, policies::MakeThreadCount(), config, /*seed=*/1);

  workload::StaticImbalanceConfig wl;
  wl.num_tasks = 32;
  wl.service_us = 10'000;
  wl.initial_cpus = 1;  // everything starts on cpu0
  workload::SubmitStaticImbalance(simulator, wl);

  simulator.Run();
  const sim::SimMetrics& m = simulator.metrics();
  SCOPED_TRACE(m.ToString());
  EXPECT_EQ(m.tasks_completed, 32u);
  EXPECT_GT(m.migrations, 0u);  // tasks spread off cpu0
  // Perfect-balance makespan = 32 tasks * 10ms / 8 cpus = 40ms; allow generous slack
  // for timeslice and balancing-period quantization.
  EXPECT_LT(m.makespan_us, 80'000u);
  EXPECT_EQ(simulator.machine().TotalTasks(), 0u);
}

TEST(SimSmoke, ForkJoinRunsAllPhases) {
  const Topology topology = Topology::Numa(2, 4);
  sim::SimConfig config;
  config.max_time_us = 600'000'000;
  sim::Simulator simulator(topology, policies::MakeThreadCount(), config, /*seed=*/2);

  workload::ForkJoinConfig wl;
  wl.num_phases = 3;
  wl.tasks_per_phase = 16;
  wl.task_service_us = 5'000;
  auto keepalive = workload::InstallForkJoin(simulator, wl);

  simulator.Run();
  EXPECT_EQ(simulator.metrics().tasks_completed, 3u * 16u);
  EXPECT_EQ(simulator.machine().TotalTasks(), 0u);
}

TEST(SimSmoke, OltpWorkersCompleteTransactions) {
  const Topology topology = Topology::Numa(2, 4);
  sim::SimConfig config;
  config.max_time_us = 60'000'000;
  sim::Simulator simulator(topology, policies::MakeThreadCount(), config, /*seed=*/3);

  workload::OltpConfig wl;
  wl.num_workers = 16;
  wl.duration_us = 1'000'000;
  workload::SubmitOltp(simulator, wl);

  simulator.Run();
  const sim::SimMetrics& m = simulator.metrics();
  SCOPED_TRACE(m.ToString());
  EXPECT_EQ(m.tasks_completed, 16u);
  EXPECT_GT(m.bursts_completed, 16u);  // many transactions per worker
}

}  // namespace
}  // namespace optsched
