// Regression tests for the lost-wakeup race between a parking worker and a
// concurrent Submit/mailbox push (executor.h, wakeup_epoch_).
//
// The race: a worker re-checks its queue (empty), the steal filter (empty),
// then parks. A Submit landing between the last re-check and the park entry
// used to be invisible until the park expired — with a large backoff bound
// the item sat queued for the rest of the run. The fix samples wakeup_epoch_
// at the TOP of the worker loop and refuses to park (or bails out of an
// in-flight park) once the sample goes stale; producers bump the epoch AFTER
// the work is visible.
//
// These tests make the old window fatal: backoff long enough to outlast the
// whole run, work submitted only once every worker is deep in its park. If a
// wakeup is lost, the items are still queued at the deadline and
// items_left_unexecuted is nonzero.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "src/core/policies/thread_count.h"
#include "src/ingress/mailbox.h"
#include "src/runtime/executor.h"
#include "src/task/task.h"
#include "src/workload/forkjoin.h"

namespace optsched {
namespace {

using namespace std::chrono_literals;

// Fork-join bodies for the spawn-wakeup test: the root sleeps until every
// sibling is deep in its park, then forks kWideChildren spinning leaves onto
// its own queue. Only the gated spawn wakeup can bring the siblings back in
// time to take any of them.
constexpr uint32_t kWideChildren = 64;

void SpinLeaf(task::TaskContext& /*ctx*/, task::TaskNode& self) {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < self.env[0]; ++i) {
    sink = sink + i;
  }
}

void NoopJoin(task::TaskContext& /*ctx*/, task::TaskNode& /*self*/) {}

void ForkAfterSiblingsPark(task::TaskContext& ctx, task::TaskNode& /*self*/) {
  std::this_thread::sleep_for(60ms);
  task::TaskNode& join = ctx.ForkN(NoopJoin, kWideChildren);
  for (uint32_t i = 0; i < kWideChildren; ++i) {
    task::TaskNode& child = ctx.NewChild(SpinLeaf, join);
    child.env[0] = 200'000;
    ctx.Spawn(child);
  }
}

runtime::ExecutorConfig DeepParkConfig() {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.spin_per_unit = 20;
  // Park almost immediately when idle, and park LONG: a lost wakeup means the
  // worker sleeps past the RunFor deadline (the park's periodic stop-check
  // still lets the run terminate — with the submitted items unexecuted).
  config.idle_spins_before_yield = 1;
  config.initial_backoff_spins = 1ull << 22;
  config.max_backoff_spins = 1ull << 34;
  config.backoff_jitter = false;
  return config;
}

TEST(ExecutorWakeup, SubmitDuringDeepParkIsNotLost) {
  runtime::Executor executor(policies::MakeThreadCount(), DeepParkConfig());

  std::atomic<uint64_t> produced{0};
  const auto producer = [&](runtime::Executor& e) {
    // Let every worker run out of work and sink into its park first.
    std::this_thread::sleep_for(60ms);
    for (uint64_t id = 0; id < 100; ++id) {
      e.Submit(static_cast<uint32_t>(id % 4), {.id = id, .work_units = 1, .weight = 1024});
      produced.fetch_add(1, std::memory_order_relaxed);
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(/*duration_ms=*/400, producer);
  SCOPED_TRACE(report.ToString());

  uint64_t executed = 0;
  uint64_t submit_wakeups = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
    submit_wakeups += w.submit_wakeups;
  }
  EXPECT_EQ(produced.load(), 100u);
  // The regression: without the wakeup epoch these stay queued until the
  // deadline and show up here instead of in items_executed.
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(executed, 100u);
  // At least one worker must have been cut out of (or kept from entering) a
  // park by the submit — with 60ms of warm-up idle and 2^22-spin initial
  // parks, all four are parked when the submits land.
  EXPECT_GT(submit_wakeups, 0u);
}

TEST(ExecutorWakeup, SubmitBatchBumpsOncePerBatchAndWakes) {
  runtime::Executor executor(policies::MakeThreadCount(), DeepParkConfig());

  const auto producer = [&](runtime::Executor& e) {
    std::this_thread::sleep_for(60ms);
    std::vector<runtime::WorkItem> batch;
    for (uint64_t id = 0; id < 64; ++id) {
      batch.push_back({.id = id, .work_units = 1, .weight = 1024});
    }
    e.SubmitBatch(0, batch);
  };
  const runtime::ExecutorReport report = executor.RunFor(400, producer);
  SCOPED_TRACE(report.ToString());
  EXPECT_EQ(report.total_items, 64u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
}

// The same races, parameterized over the queue backend: the wakeup-epoch
// contract must hold whether the runqueue is the locked reference or the
// lock-free Chase-Lev deque (whose external submissions land in an inbox the
// owner drains — a second place a lost notify could strand work).
class ExecutorWakeupBackend : public ::testing::TestWithParam<runtime::QueueBackend> {};

TEST_P(ExecutorWakeupBackend, SubmitDuringDeepParkIsNotLost) {
  runtime::ExecutorConfig config = DeepParkConfig();
  config.backend = GetParam();
  runtime::Executor executor(policies::MakeThreadCount(), config);

  const auto producer = [&](runtime::Executor& e) {
    std::this_thread::sleep_for(60ms);
    for (uint64_t id = 0; id < 100; ++id) {
      e.Submit(static_cast<uint32_t>(id % 4), {.id = id, .work_units = 1, .weight = 1024});
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(400, producer);
  SCOPED_TRACE(report.ToString());
  EXPECT_EQ(report.total_items, 100u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
}

TEST_P(ExecutorWakeupBackend, SingleNotifyOnParkEdgeIsNotStranded) {
  // The tightest version of the race: ONE item per round, pushed only after
  // every worker is deep in its park, with no follow-up traffic to paper
  // over a lost notify. If NotifyIngress landing between an owner's last
  // DrainIngress and its park entry could be missed, that round's item sits
  // in the mailbox past the deadline. (The mc "wakeup" harness proves the
  // interleaving exhaustively; this drives the real executor through it.)
  runtime::ExecutorConfig config = DeepParkConfig();
  config.backend = GetParam();
  ingress::MailboxSet mailboxes(config.num_workers, /*capacity_per_mailbox=*/4);
  config.ingress = &mailboxes;

  runtime::Executor executor(policies::MakeThreadCount(), config);
  mailboxes.set_notify([&](uint32_t worker) { executor.NotifyIngress(worker); });

  std::atomic<uint64_t> admitted{0};
  const auto producer = [&](runtime::Executor& e) {
    std::this_thread::sleep_for(50ms);
    for (uint64_t round = 0; round < 8 && !e.stopped(); ++round) {
      if (mailboxes.Push(static_cast<uint32_t>(round % 4),
                         {.id = round, .work_units = 1, .weight = 1024})) {
        admitted.fetch_add(1, std::memory_order_relaxed);
      }
      // Let the woken owner drain, execute, and park again before the next
      // single-item notify, so every round re-arms the edge.
      std::this_thread::sleep_for(30ms);
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(600, producer);
  SCOPED_TRACE(report.ToString());

  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, admitted.load());
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(mailboxes.TotalPending(), 0);
}

TEST_P(ExecutorWakeupBackend, SpawnDuringDeepParkIsNotLost) {
  // A spawn flush bumps the wakeup epoch only while some worker is
  // registered as parked. Here all three siblings are deep in 2^22+ spin
  // parks when the root forks, so the gate must see them and bump: if the
  // wakeup were lost, worker 0 would run every child alone before any
  // sibling's park expired.
  runtime::ExecutorConfig config = DeepParkConfig();
  config.backend = GetParam();
  task::TaskGraph graph(task::TaskGraphOptions{.max_workers = config.num_workers});
  config.task_runner = &graph;
  runtime::Executor executor(policies::MakeThreadCount(), config);

  executor.Seed(0, {graph.ItemFor(graph.NewRoot(ForkAfterSiblingsPark))});
  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());

  EXPECT_TRUE(graph.done());
  // Root + children + the join continuation.
  EXPECT_EQ(report.total_items, kWideChildren + 2);
  uint64_t sibling_items = 0;
  uint64_t submit_wakeups = 0;
  for (uint32_t w = 0; w < config.num_workers; ++w) {
    submit_wakeups += report.workers[w].submit_wakeups;
    if (w != 0) {
      sibling_items += report.workers[w].items_executed;
    }
  }
  EXPECT_GT(sibling_items, 0u);
  EXPECT_GT(submit_wakeups, 0u);
}

TEST_P(ExecutorWakeupBackend, ClosedForkJoinTerminatesThroughCrashes) {
  // Termination credit under crash-and-restart: a worker that dies at the
  // loop top flushes its credit first, so the count still reaches zero and
  // Run() returns, and every item — seeded or spawned — is counted once.
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.backend = GetParam();
  config.chase_lev_capacity = 4096;
  config.fault_plan.crash_rate = 0.01;
  config.fault_plan.crash_restart_us = 100;
  config.fault_plan.seed = 3;
  task::TaskGraph graph(task::TaskGraphOptions{.max_workers = config.num_workers});
  config.task_runner = &graph;
  runtime::Executor executor(policies::MakeThreadCount(), config);

  uint64_t result = 0;
  executor.Seed(0, {workload::MakeFibRoot(graph, 20, 8, &result)});
  const runtime::ExecutorReport report = executor.Run();
  SCOPED_TRACE(report.ToString());

  EXPECT_EQ(result, 6765u);
  EXPECT_GT(report.faults.crashes, 0u);
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(report.total_items, executed);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
}

TEST_P(ExecutorWakeupBackend, ReusedRunForReportsExactLeftovers) {
  // Workers stopped by the deadline mid-queue still hold unflushed credit;
  // the exit flush must make items_left_unexecuted exact, and the next run
  // must execute exactly those leftovers.
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.backend = GetParam();
  config.spin_per_unit = 50;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  constexpr uint64_t kItems = 50'000;
  std::vector<runtime::WorkItem> items;
  for (uint64_t id = 0; id < kItems; ++id) {
    items.push_back({.id = id, .work_units = 100, .weight = 1024});
  }
  executor.Seed(0, items);

  const runtime::ExecutorReport first = executor.RunFor(/*duration_ms=*/20);
  uint64_t executed = 0;
  for (const auto& w : first.workers) {
    executed += w.items_executed;
  }
  SCOPED_TRACE(first.ToString());
  EXPECT_EQ(first.total_items, kItems);
  ASSERT_GT(first.items_left_unexecuted, 0u) << "the deadline must cut the run short";
  // An over-count here would also wedge the closed Run() below.
  ASSERT_EQ(first.items_left_unexecuted, kItems - executed);

  const runtime::ExecutorReport second = executor.Run();
  uint64_t executed_second = 0;
  for (const auto& w : second.workers) {
    executed_second += w.items_executed;
  }
  EXPECT_EQ(second.total_items, first.items_left_unexecuted);
  EXPECT_EQ(executed_second, first.items_left_unexecuted);
  EXPECT_EQ(second.items_left_unexecuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ExecutorWakeupBackend,
    ::testing::Values(runtime::QueueBackend::kLocked, runtime::QueueBackend::kChaseLev),
    [](const ::testing::TestParamInfo<runtime::QueueBackend>& info) {
      return std::string(runtime::QueueBackendName(info.param));
    });

TEST(ExecutorWakeup, MailboxNotifyWakesParkedOwner) {
  // The same race through the ingress path: a push into a parked owner's
  // mailbox fires MailboxSet's notify -> Executor::NotifyIngress -> epoch
  // bump. Without it the owner's drain waits out the full park.
  runtime::ExecutorConfig config = DeepParkConfig();
  ingress::MailboxSet mailboxes(config.num_workers, /*capacity_per_mailbox=*/256);
  config.ingress = &mailboxes;

  runtime::Executor executor(policies::MakeThreadCount(), config);
  mailboxes.set_notify([&](uint32_t worker) { executor.NotifyIngress(worker); });

  std::atomic<uint64_t> admitted{0};
  const auto producer = [&](runtime::Executor& e) {
    std::this_thread::sleep_for(60ms);
    for (uint64_t id = 0; id < 100; ++id) {
      if (mailboxes.Push(static_cast<uint32_t>(id % 4),
                         {.id = id, .work_units = 1, .weight = 1024})) {
        admitted.fetch_add(1, std::memory_order_relaxed);
      }
      (void)e;
    }
  };
  const runtime::ExecutorReport report = executor.RunFor(400, producer);
  SCOPED_TRACE(report.ToString());

  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  // Capacity 256 per mailbox, 25 items each: everything is admitted, and an
  // admitted item must be drained and executed before the deadline.
  EXPECT_EQ(admitted.load(), 100u);
  EXPECT_EQ(executed, 100u);
  EXPECT_EQ(report.items_left_unexecuted, 0u);
  EXPECT_EQ(report.total_mailbox_items_drained(), 100u);
  EXPECT_EQ(mailboxes.TotalPending(), 0);
}

}  // namespace
}  // namespace optsched
