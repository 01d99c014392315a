// Deeper runtime tests: seqlock consistency under concurrency, spinlock
// mutual exclusion, steal-phase semantics, and executor ablations.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/policies/thread_count.h"
#include "src/core/policies/weighted.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"
#include "src/runtime/seqlock.h"
#include "src/runtime/spinlock.h"

namespace optsched {
namespace {

TEST(SpinLock, MutualExclusionCounter) {
  runtime::SpinLock lock;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SpinLock, TryLockReflectsState) {
  runtime::SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(DualLockGuard, ConsistentRankingDoesNotDeadlock) {
  // The guard acquires in the caller-given order; deadlock freedom comes
  // from every site ranking a pair identically (the runtime uses queue
  // index). Two threads hammering the same ranked pair must make progress.
  runtime::SpinLock a;
  runtime::SpinLock b;
  std::atomic<int> done{0};
  std::thread t1([&] {
    for (int i = 0; i < 5000; ++i) {
      runtime::DualLockGuard guard(a, b);
    }
    ++done;
  });
  std::thread t2([&] {
    for (int i = 0; i < 5000; ++i) {
      runtime::DualLockGuard guard(a, b);
    }
    ++done;
  });
  t1.join();
  t2.join();
  EXPECT_EQ(done.load(), 2);
}

TEST(Seqlock, ReadersNeverSeeTornPairs) {
  // Writer publishes {x, 2x}; readers must always observe that relation.
  struct Pair {
    int64_t a;
    int64_t b;
  };
  runtime::Seqlock<Pair> cell;
  cell.Write({0, 0});
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Pair p = cell.Read();
        if (p.b != 2 * p.a) {
          ++torn;
        }
      }
    });
  }
  for (int64_t i = 1; i <= 200000; ++i) {
    cell.Write({i, 2 * i});
  }
  stop = true;
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0u);
}

TEST(ConcurrentRunQueue, LoadTracksOwnerOperations) {
  runtime::ConcurrentRunQueue q;
  EXPECT_EQ(q.ReadLoad().task_count, 0);
  q.Push({.id = 1, .work_units = 1, .weight = 100});
  q.Push({.id = 2, .work_units = 1, .weight = 200});
  EXPECT_EQ(q.ReadLoad().task_count, 2);
  EXPECT_EQ(q.ReadLoad().weighted_load, 300);
  const auto item = q.PopForRun();
  ASSERT_TRUE(item.has_value());
  // Running item still counts toward the load (it is the "current" thread).
  EXPECT_EQ(q.ReadLoad().task_count, 2);
  q.FinishCurrent();
  EXPECT_EQ(q.ReadLoad().task_count, 1);
  EXPECT_EQ(q.ReadLoad().weighted_load, item->id == 1 ? 200 : 100);
}

TEST(ConcurrentMachine, StealMovesTailToThief) {
  runtime::ConcurrentMachine machine(2);
  machine.queue(0).Push({.id = 1, .work_units = 1, .weight = 1024});
  machine.queue(0).Push({.id = 2, .work_units = 1, .weight = 1024});
  machine.queue(0).Push({.id = 3, .work_units = 1, .weight = 1024});
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_TRUE(machine.TrySteal(*policy, /*thief=*/1, machine.Snapshot(), rng,
                               runtime::StealOptions{}, counters));
  EXPECT_EQ(counters.successes, 1u);
  EXPECT_EQ(machine.queue(1).ReadLoad().task_count, 1);
  EXPECT_EQ(machine.queue(0).ReadLoad().task_count, 2);
}

TEST(ConcurrentMachine, StaleSnapshotFailsRecheck) {
  runtime::ConcurrentMachine machine(2);
  machine.queue(0).Push({.id = 1, .work_units = 1, .weight = 1024});
  machine.queue(0).Push({.id = 2, .work_units = 1, .weight = 1024});
  const auto policy = policies::MakeThreadCount();
  const LoadSnapshot stale = machine.Snapshot();  // loads (2, 0)
  // The queue drains behind the snapshot's back.
  (void)machine.queue(0).PopForRun();
  machine.queue(0).FinishCurrent();
  (void)machine.queue(0).PopForRun();
  machine.queue(0).FinishCurrent();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_FALSE(machine.TrySteal(*policy, 1, stale, rng, runtime::StealOptions{}, counters));
  EXPECT_EQ(counters.failed_recheck, 1u);
  EXPECT_EQ(counters.successes, 0u);
}

TEST(ConcurrentMachine, EmptyFilterIsNotAnAttempt) {
  runtime::ConcurrentMachine machine(2);
  const auto policy = policies::MakeThreadCount();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_FALSE(machine.TrySteal(*policy, 1, machine.Snapshot(), rng,
                                runtime::StealOptions{}, counters));
  EXPECT_EQ(counters.empty_filter, 1u);
  EXPECT_EQ(counters.attempts, 0u);
}

TEST(ConcurrentMachine, WeightedMigrationRespectsDiff) {
  runtime::ConcurrentMachine machine(2);
  // Victim: two heavy items. Thief weighted load 0 -> only items lighter
  // than the diff migrate; both qualify here, the head (oldest) goes first.
  machine.queue(0).Push({.id = 1, .work_units = 1, .weight = 9000});
  machine.queue(0).Push({.id = 2, .work_units = 1, .weight = 100});
  const auto policy = policies::MakeWeightedLoad();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_TRUE(machine.TrySteal(*policy, 1, machine.Snapshot(), rng,
                               runtime::StealOptions{}, counters));
  EXPECT_EQ(machine.queue(1).ReadLoad().weighted_load, 9000);  // head item
}

TEST(ConcurrentMachine, WeightedMigrationSkipsAnIneligibleHead) {
  runtime::ConcurrentMachine machine(2);
  // Diff 5150 - 1000 = 4150: the head (5000) fails ShouldMigrate and stays;
  // the scan moves on and takes the next item out of the middle.
  machine.queue(0).Push({.id = 1, .work_units = 1, .weight = 5000});
  machine.queue(0).Push({.id = 2, .work_units = 1, .weight = 100});
  machine.queue(0).Push({.id = 3, .work_units = 1, .weight = 50});
  machine.queue(1).Push({.id = 4, .work_units = 1, .weight = 1000});
  const auto policy = policies::MakeWeightedLoad();
  runtime::StealCounters counters;
  Rng rng(1);
  EXPECT_TRUE(machine.TrySteal(*policy, 1, machine.Snapshot(), rng,
                               runtime::StealOptions{}, counters));
  EXPECT_EQ(machine.queue(1).ReadLoad().weighted_load, 1100);
  EXPECT_EQ(machine.queue(0).ReadLoad().weighted_load, 5050);
  // The skipped head and the tail kept their places around the erase.
  std::vector<uint64_t> left;
  while (std::optional<runtime::WorkItem> item = machine.queue(0).PopForRun()) {
    left.push_back(item->id);
    machine.queue(0).FinishCurrent();
  }
  EXPECT_EQ(left, (std::vector<uint64_t>{3, 1}));
}

TEST(ConcurrentMachine, LockedSnapshotIsExact) {
  runtime::ConcurrentMachine machine(3);
  machine.queue(2).Push({.id = 1, .work_units = 1, .weight = 1024});
  const LoadSnapshot snap = machine.LockedSnapshot();
  EXPECT_EQ(snap.task_count[2], 1);
  EXPECT_EQ(snap.task_count[0], 0);
}

TEST(Executor, NoRecheckAblationStillDrains) {
  runtime::ExecutorConfig config;
  config.num_workers = 4;
  config.recheck_filter = false;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  std::vector<runtime::WorkItem> items;
  for (uint64_t i = 0; i < 200; ++i) {
    items.push_back({.id = i, .work_units = 200, .weight = 1024});
  }
  executor.Seed(0, items);
  const auto report = executor.Run();
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 200u);
}

TEST(Executor, SeedsAcrossQueues) {
  runtime::ExecutorConfig config;
  config.num_workers = 3;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  for (uint32_t q = 0; q < 3; ++q) {
    std::vector<runtime::WorkItem> items;
    for (uint64_t i = 0; i < 10; ++i) {
      items.push_back({.id = q * 100 + i, .work_units = 10, .weight = 1024});
    }
    executor.Seed(q, items);
  }
  const auto report = executor.Run();
  EXPECT_EQ(report.total_items, 30u);
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  EXPECT_EQ(executed, 30u);
}

// The owner-push path is gone (EXPERIMENTS.md E21); its three switches stay
// in ExecutorConfig only at their defaults, and any other value aborts.
TEST(ExecutorDeath, RemovedDealSwitchesAbortConstruction) {
  const auto construct = [](const runtime::ExecutorConfig& config) {
    runtime::Executor executor(policies::MakeThreadCount(), config);
  };
  runtime::ExecutorConfig enabled;
  enabled.deal.enabled = true;
  EXPECT_DEATH(construct(enabled), "E21");
  runtime::ExecutorConfig with_sink;
  const int sink = 0;
  with_sink.deal_sink = &sink;
  EXPECT_DEATH(construct(with_sink), "E21");
  runtime::ExecutorConfig steal_off;
  steal_off.steal_enabled = false;
  EXPECT_DEATH(construct(steal_off), "E21");
}

TEST(ExecutorReport, ThroughputAndToString) {
  runtime::ExecutorConfig config;
  config.num_workers = 2;
  runtime::Executor executor(policies::MakeThreadCount(), config);
  executor.Seed(0, {{.id = 1, .work_units = 10, .weight = 1024}});
  const auto report = executor.Run();
  EXPECT_GT(report.wall_time_ns, 0u);
  EXPECT_GT(report.throughput_items_per_ms(), 0.0);
  EXPECT_NE(report.ToString().find("items=1"), std::string::npos);
}

}  // namespace
}  // namespace optsched
