// Deeper simulator tests: determinism, conservation invariants, placement
// strategies, balancing effects and accounting.

#include <gtest/gtest.h>

#include "src/core/policies/broken.h"
#include "src/core/policies/thread_count.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

namespace optsched {
namespace {

sim::SimConfig BaseConfig() {
  sim::SimConfig config;
  config.max_time_us = 300'000'000;
  return config;
}

TEST(Simulator, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    const Topology topo = Topology::Numa(2, 4);
    sim::Simulator s(topo, policies::MakeThreadCount(), BaseConfig(), seed);
    workload::OltpConfig wl;
    wl.num_workers = 12;
    wl.duration_us = 500'000;
    workload::SubmitOltp(s, wl);
    s.Run();
    return std::make_tuple(s.metrics().bursts_completed, s.metrics().migrations,
                           s.metrics().makespan_us, s.metrics().failed_steals);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // different seed, different schedule
}

TEST(Simulator, TaskCountConservedAtProbes) {
  const Topology topo = Topology::Smp(4);
  sim::SimConfig config = BaseConfig();
  sim::Simulator s(topo, policies::MakeThreadCount(), config, 3);
  for (int i = 0; i < 10; ++i) {
    sim::TaskSpec spec;
    spec.total_service_us = 50'000;
    s.Submit(spec, 0, 0);
  }
  // Probe at several times: machine tasks + completed == submitted. (Blocked
  // tasks are off-machine, but these are CPU-bound and never block.)
  for (sim::SimTime t : {5'000u, 20'000u, 60'000u, 100'000u}) {
    s.RunUntil(t);
    EXPECT_EQ(s.machine().TotalTasks() + s.metrics().tasks_completed, 10u) << "at " << t;
  }
  s.Run();
  EXPECT_EQ(s.metrics().tasks_completed, 10u);
}

TEST(Simulator, PreemptionRoundRobinsOneCore) {
  const Topology topo = Topology::Smp(1);
  sim::SimConfig config = BaseConfig();
  config.timeslice_us = 1'000;
  sim::Simulator s(topo, policies::MakeThreadCount(), config, 1);
  sim::TaskSpec spec;
  spec.total_service_us = 5'000;
  s.Submit(spec, 0, 0);
  s.Submit(spec, 0, 0);
  s.Run();
  const sim::SimMetrics& m = s.metrics();
  EXPECT_EQ(m.tasks_completed, 2u);
  // Two 5ms tasks at a 1ms slice: many preemptions, makespan == 10ms.
  EXPECT_GE(m.preemptions, 8u);
  EXPECT_EQ(m.makespan_us, 10'000u);
}

TEST(Simulator, LastCpuPlacementPilesUpWithoutBalancing) {
  // Wake placement kLastCpu + effectively disabled balancing: all tasks fight
  // over cpu0 while cpus 1..3 idle -> massive wasted time.
  const Topology topo = Topology::Smp(4);
  sim::SimConfig config = BaseConfig();
  config.wake_placement = sim::WakePlacement::kLastCpu;
  config.lb_period_us = 1'000'000'000;  // never fires within the run
  sim::Simulator s(topo, policies::MakeThreadCount(), config, 5);
  for (int i = 0; i < 8; ++i) {
    sim::TaskSpec spec;
    spec.total_service_us = 20'000;
    s.Submit(spec, 0, 0);
  }
  s.Run();
  EXPECT_EQ(s.metrics().migrations, 0u);
  EXPECT_EQ(s.metrics().makespan_us, 160'000u);  // fully serialized on cpu0
  EXPECT_GT(s.accounting().wasted_us(), 100'000u);
}

TEST(Simulator, BalancingEliminatesTheWaste) {
  const Topology topo = Topology::Smp(4);
  sim::SimConfig config = BaseConfig();
  config.wake_placement = sim::WakePlacement::kLastCpu;
  config.lb_period_us = 1'000;
  sim::Simulator s(topo, policies::MakeThreadCount(), config, 5);
  for (int i = 0; i < 8; ++i) {
    sim::TaskSpec spec;
    spec.total_service_us = 20'000;
    s.Submit(spec, 0, 0);
  }
  s.Run();
  EXPECT_GT(s.metrics().migrations, 0u);
  // 8 x 20ms on 4 cpus: perfect balance 40ms; balancing every 1ms keeps it close.
  EXPECT_LT(s.metrics().makespan_us, 60'000u);
  EXPECT_LT(s.accounting().wasted_fraction(), 0.2);
}

TEST(Simulator, IdlePreferredPlacementAvoidsThePileUp) {
  const Topology topo = Topology::Smp(4);
  sim::SimConfig config = BaseConfig();
  config.wake_placement = sim::WakePlacement::kIdlePreferred;
  config.lb_period_us = 1'000'000'000;  // no balancing: placement alone must spread
  sim::Simulator s(topo, policies::MakeThreadCount(), config, 5);
  for (int i = 0; i < 4; ++i) {
    sim::TaskSpec spec;
    spec.total_service_us = 20'000;
    s.Submit(spec, 0);  // no cpu hint: placement decides
  }
  s.Run();
  EXPECT_EQ(s.metrics().makespan_us, 20'000u);  // one task per cpu immediately
  EXPECT_EQ(s.accounting().wasted_us(), 0u);
}

TEST(Simulator, AccountingMatchesServiceTime) {
  const Topology topo = Topology::Smp(2);
  sim::Simulator s(topo, policies::MakeThreadCount(), BaseConfig(), 1);
  sim::TaskSpec spec;
  spec.total_service_us = 30'000;
  s.Submit(spec, 0, 0);
  s.Submit(spec, 0, 1);
  s.Run();
  // Each core ran exactly its task's service time.
  EXPECT_EQ(s.accounting().total_busy_us(), 60'000u);
  EXPECT_EQ(s.accounting().wasted_us(), 0u);
}

TEST(Simulator, SamplerAndTraceCaptureActivity) {
  const Topology topo = Topology::Smp(2);
  sim::SimConfig config = BaseConfig();
  config.sample_period_us = 1'000;
  config.trace_capacity = 1 << 16;
  sim::Simulator s(topo, policies::MakeThreadCount(), config, 1);
  for (int i = 0; i < 4; ++i) {
    sim::TaskSpec spec;
    spec.total_service_us = 10'000;
    s.Submit(spec, 0, 0);
  }
  s.Run();
  EXPECT_GT(s.sampler().samples().size(), 5u);
  EXPECT_FALSE(s.trace_buffer().Filter(trace::EventType::kExit).empty());
  EXPECT_FALSE(s.trace_buffer().Filter(trace::EventType::kSteal).empty());
  EXPECT_FALSE(s.trace_buffer().ToCsv().empty());
}

TEST(Simulator, CompletionLatencyRecorded) {
  const Topology topo = Topology::Smp(1);
  sim::Simulator s(topo, policies::MakeThreadCount(), BaseConfig(), 1);
  sim::TaskSpec spec;
  spec.total_service_us = 7'000;
  s.Submit(spec, 0, 0);
  s.Run();
  EXPECT_EQ(s.metrics().completion_latency_us.count(), 1u);
  EXPECT_DOUBLE_EQ(s.metrics().completion_latency_us.mean(), 7'000.0);
}

TEST(Simulator, BlockingTasksWakeAndFinish) {
  const Topology topo = Topology::Smp(2);
  sim::Simulator s(topo, policies::MakeThreadCount(), BaseConfig(), 9);
  sim::TaskSpec spec;
  spec.total_service_us = 10'000;
  spec.burst_us = 2'000;
  spec.mean_block_us = 1'000;
  s.Submit(spec, 0);
  s.Run();
  const sim::SimMetrics& m = s.metrics();
  EXPECT_EQ(m.tasks_completed, 1u);
  EXPECT_EQ(m.bursts_completed, 5u);  // 10ms service in 2ms bursts
  EXPECT_GE(m.wakeups, 4u);
  EXPECT_GT(m.makespan_us, 10'000u);  // blocking stretches wall time
}

TEST(Simulator, BrokenPolicyStillDrainsButThrashes) {
  // The broken filter migrates constantly between busy cores; work still
  // completes (the sim's wake/exit dynamics break ties) but migrations are
  // disproportionate.
  const Topology topo = Topology::Smp(4);
  sim::SimConfig config = BaseConfig();
  config.lb_period_us = 1'000;
  sim::Simulator good(topo, policies::MakeThreadCount(), config, 11);
  sim::Simulator bad(topo, policies::MakeBrokenCanSteal(), config, 11);
  for (sim::Simulator* s : {&good, &bad}) {
    for (int i = 0; i < 12; ++i) {
      sim::TaskSpec spec;
      spec.total_service_us = 30'000;
      s->Submit(spec, 0, 0);
    }
    s->Run();
    EXPECT_EQ(s->metrics().tasks_completed, 12u);
  }
  EXPECT_GT(bad.metrics().migrations, good.metrics().migrations);
}

}  // namespace
}  // namespace optsched
