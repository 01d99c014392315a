// optbench: the optsched benchmark program.
//
// Drives the library through its public API only (Executor, TaskGraph,
// IngressRouter, MailboxSet) and prints one JSON object of metrics as its
// last line of standard output. Every ExecutorConfig field and every input
// size is a constant of this file, so a change to a library default cannot
// change what is measured; the command line picks only the profile, the
// seed, the run length and the mode.
//
//   optbench --profile production|paper --seed N --seconds S --trace 0|1
//            [--trace-out FILE] [--max-steal-batch N]
//
// One run measures three parts, interleaved in rounds, each on the
// profile's executor configuration:
//   forkjoin  fib(36) with a sequential cutoff through TaskGraph, passes on a
//             reused graph and executor (owner push/pop path, steals rare)
//   steal     a pile of 1-unit items seeded on worker 0 (every other worker
//             lives on the filter -> choice -> steal path)
//   serve     an open-loop Poisson generator Offer()s keyed items through
//             IngressRouter into MailboxSet at fixed absolute rates: a low
//             rate, a high rate, and a ladder of rates that locates the
//             highest rate meeting the latency limit
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs each part both
// plain and with the seams wrapped in the timing decorators of seams.h (and
// the executor's trace rings on), and reports the per-layer metrics plus a
// Chrome trace. --max-steal-batch overrides the profile's steal batch cap;
// it exists for the sensitivity check and no normal run uses it.
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the result line is still printed), 2 on a bad command line or a thread
// budget the host cannot meet.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/cpp/seams.h"
#include "src/base/rng.h"
#include "src/core/policies/thread_count.h"
#include "src/ingress/admission.h"
#include "src/ingress/mailbox.h"
#include "src/ingress/router.h"
#include "src/runtime/concurrent_machine.h"
#include "src/runtime/executor.h"
#include "src/runtime/spinlock.h"
#include "src/stats/histogram.h"
#include "src/task/task.h"
#include "src/trace/chrome_trace.h"
#include "src/workload/forkjoin.h"

namespace optbench {
namespace {

using optsched::Rng;
using optsched::runtime::Executor;
using optsched::runtime::ExecutorConfig;
using optsched::runtime::ExecutorReport;
using optsched::runtime::QueueBackend;
using optsched::runtime::WorkItem;

// ---------------------------------------------------------------------------
// The workloads. A workload is a profile: the executor configuration every
// part of the run uses.

struct Profile {
  const char* name;
  QueueBackend backend;
  uint32_t max_steal_batch;
};

constexpr Profile kProfiles[] = {
    // The shipping configuration: Chase-Lev deques, steal-half capped at 8.
    {"production", QueueBackend::kChaseLev, 8},
    // The paper's literal protocol: Seqlock load snapshot, SpinLock-guarded
    // runqueues, DualLockGuard, one item per steal.
    {"paper", QueueBackend::kLocked, 1},
};

// Threads. Workers, plus the serve generator, plus the executor's
// supervisor (it polls every 50 us for the whole run) must fit in nproc.
constexpr uint32_t kClosedWorkers = 3;  // forkjoin and steal
constexpr uint32_t kServeWorkers = 2;
constexpr uint32_t kServeGenerators = 1;

// Watchdog threshold, in supervisor samples (50 us apart, so 1000 samples
// are at least 50 ms). A worker idle while another is overloaded for longer
// than this is a persistent violation and fails the run. It sits above the
// legitimate delays measured on the reference host (see record.json): a
// capped backoff park (2^15 CpuRelax, about 0.65 ms) and a descheduled vCPU,
// which a thread that only spins sees as gaps of up to 18-50 ms. A thief
// that never gets work stays idle for a whole pass, 0.3 s or more. The
// library's default, 2 * W samples (300 us at 3 workers), is shorter than
// one capped park, and every thief between two spin-0 steals reads as idle.
constexpr uint64_t kWatchdogThresholdSamples = 1000;

// forkjoin: fib(36) with cutoff 10 is 1,542,685 tasks per pass.
constexpr uint64_t kFibN = 36;
constexpr uint64_t kFibCutoff = 10;
constexpr uint64_t kFibPerRound = 2;

// steal: 1-unit items with no spin, all seeded on worker 0.
constexpr uint64_t kPileItems = 4'000'000;
constexpr uint64_t kPilePerRound = 2;

// serve: one shard, shed admission, 256-slot mailboxes, keys drawn from
// 2^20 sessions; an item is one unit of 500 spins (about 1 us of work
// including the scheduler's cost).
constexpr uint32_t kSessions = 1 << 20;
constexpr uint32_t kMailboxCapacity = 256;
constexpr uint64_t kServeSpin = 500;
// The last kTailMs of every window has no arrivals, so a healthy executor
// drains completely before the deadline and any residue is backlog.
constexpr uint64_t kTailMs = 5;

// One fixed absolute rate, measured over many short windows: a host stall
// spoils the tail of the window it lands in, and a run reports the median
// over windows. `per_round` windows run in each round, cycling through the
// `windows` pre-generated ones.
struct Rate {
  const char* name;
  double per_s;
  uint64_t window_ms;
  uint64_t windows;
  uint64_t per_round;
  uint64_t first_index;  // of the windows' input streams
};
// lo: workers park between arrivals. hi: the sustained drain cadence.
constexpr Rate kLo{"serve_lo", 20'000, 200, 32, 4, 1000};
constexpr Rate kHi{"serve_hi", 500'000, 60, 64, 8, 2000};

// The maximum-rate ladder (traced run): rungs kLadderFrom * kLadderRatio^i,
// kRungRepeats windows of kRungMs each. A window passes when its ledger
// balances, its p99 is within kLatencyLimitUs, at most kMaxFailFrac of its
// arrivals failed and it left no backlog.
constexpr double kLadderFrom = 1'100'000;
constexpr double kLadderRatio = 1.05;
constexpr uint64_t kLadderRungs = 22;
constexpr uint64_t kRungMs = 40;
constexpr uint64_t kRungRepeats = 3;
constexpr double kLatencyLimitUs = 5000;
constexpr double kMaxFailFrac = 0.01;

// A lo or hi measurement is valid only if the generator kept to its
// schedule: the p99 lag of its median window must stay within the time in
// which the rate fills one mailbox (512 us at hi, 12.8 ms at lo). Past
// that, the arrivals a generator stall bunches together can overflow a
// mailbox on their own, and the run measures the generator instead of the
// executor.
constexpr double GenLagBoundUs(const Rate& rate) { return 1e6 * kMailboxCapacity / rate.per_s; }

// Traced run: executor trace ring capacity, and spans kept per lane.
constexpr size_t kTraceRingCapacity = 1 << 16;
constexpr size_t kSpanCap = 20'000;

// Set-up repeats (setup_s is their median), and the least number of rounds
// a run makes however short --seconds is.
constexpr uint64_t kSetupReps = 7;
constexpr uint64_t kMinRounds = 3;

// ---------------------------------------------------------------------------
// Command line.

struct Options {
  const Profile* profile = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  uint32_t max_steal_batch = 0;  // the profile's, unless overridden
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "optbench: %s\n", message.c_str());
  std::exit(2);
}

uint64_t ParseCount(const std::string& flag, const char* value) {
  char* end = nullptr;
  const uint64_t v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    Die("bad value '" + std::string(value) + "' for --" + flag);
  }
  return v;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      Die(std::string("expected --name value, got '") + argv[i] + "'");
    }
    const std::string flag = argv[i] + 2;
    const char* value = argv[i + 1];
    if (flag == "profile") {
      for (const Profile& p : kProfiles) {
        o.profile = std::strcmp(p.name, value) == 0 ? &p : o.profile;
      }
      if (o.profile == nullptr) {
        Die(std::string("unknown profile '") + value + "'");
      }
    } else if (flag == "seed") {
      o.seed = ParseCount(flag, value);
      have_seed = true;
    } else if (flag == "seconds") {
      o.seconds = static_cast<double>(ParseCount(flag, value));
      have_seconds = true;
    } else if (flag == "trace") {
      o.trace = ParseCount(flag, value) != 0;
      have_trace = true;
    } else if (flag == "trace-out") {
      o.trace_out = value;
    } else if (flag == "max-steal-batch") {
      o.max_steal_batch = static_cast<uint32_t>(ParseCount(flag, value));
    } else {
      Die("unknown flag --" + flag);
    }
  }
  if (o.profile == nullptr || !have_seed || !have_seconds || !have_trace) {
    Die("--profile, --seed, --seconds and --trace are required");
  }
  if (o.max_steal_batch == 0) {
    o.max_steal_batch = o.profile->max_steal_batch;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Measurement helpers.

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Interquartile range over the median, for the within-process spread note.
double Spread(std::vector<double> v) {
  if (v.size() < 4) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  const double median = Median(v);
  return median > 0 ? (at(0.75) - at(0.25)) / median : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "optbench: check failed: %s\n", what.c_str());
    }
  }
};

class Metrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, value] : values_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0.0);
      out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" + buf;
    }
    return out + "}";
  }

 private:
  std::map<std::string, double> values_;
};

// Sums of ExecutorReport counters over the runs of one part.
struct RuntimeTotals {
  uint64_t wall_ns = 0;
  uint64_t items = 0;
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t items_stolen = 0;
  uint64_t failed_recheck = 0;
  uint64_t empty_filter = 0;
  uint64_t idle_loops = 0;
  uint64_t parks = 0;
  uint64_t park_spins = 0;
  uint64_t submit_wakeups = 0;
  uint64_t seqlock_retries = 0;
  uint64_t trace_dropped = 0;
  uint64_t wd_transient = 0;
  uint64_t wd_persistent = 0;
  uint64_t wd_max_streak = 0;
  std::vector<uint64_t> worker_items;
  optsched::stats::LogHistogram steal_ns;
  optsched::stats::LogHistogram steal_fail_ns;
  optsched::stats::LogHistogram select_ns;

  void Add(const ExecutorReport& r) {
    wall_ns += r.wall_time_ns;
    seqlock_retries += r.seqlock_read_retries;
    trace_dropped += r.trace_dropped;
    wd_transient += r.watchdog.transient_violations;
    wd_persistent += r.watchdog.persistent_violations;
    wd_max_streak = std::max(wd_max_streak, r.watchdog.max_streak_rounds);
    worker_items.resize(std::max(worker_items.size(), r.workers.size()), 0);
    for (size_t i = 0; i < r.workers.size(); ++i) {
      const optsched::runtime::WorkerStats& w = r.workers[i];
      items += w.items_executed;
      worker_items[i] += w.items_executed;
      attempts += w.steals.attempts;
      successes += w.steals.successes;
      items_stolen += w.steals.items_stolen;
      failed_recheck += w.steals.failed_recheck;
      empty_filter += w.steals.empty_filter;
      idle_loops += w.idle_loops;
      parks += w.backoff_events;
      park_spins += w.backoff_spins_total;
      submit_wakeups += w.submit_wakeups;
      steal_ns.Merge(w.steal_latency_ns);
      steal_fail_ns.Merge(w.steal_fail_latency_ns);
      select_ns.Merge(w.selection_latency_ns);
    }
  }

  double items_cv() const {
    if (worker_items.empty()) {
      return 0.0;
    }
    double mean = 0;
    for (uint64_t v : worker_items) {
      mean += static_cast<double>(v);
    }
    mean /= static_cast<double>(worker_items.size());
    double var = 0;
    for (uint64_t v : worker_items) {
      var += (static_cast<double>(v) - mean) * (static_cast<double>(v) - mean);
    }
    var /= static_cast<double>(worker_items.size());
    return Ratio(std::sqrt(var), mean);
  }
  double per_kitem(uint64_t count) const {
    return Ratio(1000.0 * static_cast<double>(count), static_cast<double>(items));
  }
  double wall_s() const { return static_cast<double>(wall_ns) / 1e9; }
  // Balancing attempts: selection rounds, whether or not the filter left a
  // candidate (StealCounters::attempts counts only the non-empty ones).
  uint64_t rounds() const { return attempts + empty_filter; }
  double per_round(uint64_t count) const {
    return Ratio(static_cast<double>(count), static_cast<double>(rounds()));
  }
};

// ---------------------------------------------------------------------------
// Configuration.

// Sets every ExecutorConfig field; the parts then set their own items,
// ingress, task runner and trace ring.
ExecutorConfig MakeConfig(const Options& o, uint32_t workers, uint64_t seed) {
  ExecutorConfig c;
  c.num_workers = workers;
  c.spin_per_unit = 0;
  c.backend = o.profile->backend;
  c.chase_lev_capacity = 4096;
  c.locked_selection = false;
  c.recheck_filter = true;
  c.max_steal_batch = o.max_steal_batch;
  c.idle_spins_before_yield = 16;
  c.fixed_yield = false;
  c.initial_backoff_spins = 64;
  c.max_backoff_spins = 1 << 15;
  c.backoff_jitter = true;
  c.fault_plan = {};
  c.watchdog = true;
  c.watchdog_threshold_samples = kWatchdogThresholdSamples;
  c.supervisor_poll_us = 50;
  c.trace_ring_capacity = 0;
  c.ingress = nullptr;
  c.ingress_drain_batch = 64;
  c.ingress_drain_interval_items = 32;
  c.task_runner = nullptr;
  c.deal = {};
  c.deal.enabled = false;
  c.deal_sink = nullptr;
  c.steal_enabled = true;
  c.seed = seed;
  return c;
}

std::shared_ptr<const optsched::BalancePolicy> MakePolicy() {
  return optsched::policies::MakeThreadCount(2);
}

// Refuses to run when a part's threads exceed the CPUs: workers, plus the
// generator, plus the executor's supervisor, which polls for the whole run.
void CheckThreadBudget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  const auto need = [&](const char* part, uint32_t threads) {
    if (threads > static_cast<uint32_t>(nproc)) {
      Die(std::string(part) + " needs " + std::to_string(threads) +
          " threads (workers + generators + supervisor) but only " + std::to_string(nproc) +
          " CPUs are available");
    }
  };
  need("forkjoin and steal", kClosedWorkers + 1);
  need("serve", kServeWorkers + kServeGenerators + 1);
  std::fprintf(stderr, "host: nproc=%d compiler=\"%s\" build=%s\n", nproc, __VERSION__,
               OPTBENCH_BUILD_TYPE);
}

// Nodes fib(n) with cutoff needs: 3 * I(n) + 1, I(n) = I(n-1) + I(n-2) + 1,
// plus the partly used allocation chunk each worker may hold at the end.
uint32_t FibNodes(uint64_t n, uint64_t cutoff, uint64_t workers) {
  std::vector<uint64_t> internal(n + 1, 0);
  for (uint64_t k = 0; k <= n; ++k) {
    internal[k] = k < cutoff || k < 2 ? 0 : internal[k - 1] + internal[k - 2] + 1;
  }
  return static_cast<uint32_t>(3 * internal[n] + 1 + 64 * workers);
}

// ---------------------------------------------------------------------------
// Serve inputs: per window, the due offsets and session keys of its arrivals.

struct PhaseInput {
  std::string name;
  uint64_t duration_ms = 0;
  uint64_t id_base = 0;
  std::vector<uint64_t> due_ns;  // offset from the window start
  std::vector<uint32_t> session;
};

PhaseInput MakePhase(uint64_t seed, const std::string& name, double rate, uint64_t duration_ms,
                     uint64_t phase_index) {
  PhaseInput p;
  p.name = name;
  p.duration_ms = duration_ms;
  p.id_base = phase_index << 40;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + phase_index + 1);
  const double window_ns = static_cast<double>(duration_ms - kTailMs) * 1e6;
  p.due_ns.reserve(static_cast<size_t>(rate * window_ns / 1e9 * 1.05) + 16);
  p.session.reserve(p.due_ns.capacity());
  double t = 0;
  for (;;) {
    t += rng.NextExponential(rate) * 1e9;
    if (t >= window_ns) {
      break;
    }
    p.due_ns.push_back(static_cast<uint64_t>(t));
    p.session.push_back(static_cast<uint32_t>(rng.NextBelow(kSessions)));
  }
  return p;
}

using Windows = std::vector<PhaseInput>;

Windows MakeWindows(uint64_t seed, const std::string& name, double rate, uint64_t ms,
                    uint64_t repeats, uint64_t first_index) {
  Windows windows;
  for (uint64_t k = 0; k < repeats; ++k) {
    windows.push_back(MakePhase(seed, name, rate, ms, first_index + k));
  }
  return windows;
}

Windows MakeWindows(uint64_t seed, const Rate& rate) {
  return MakeWindows(seed, rate.name, rate.per_s, rate.window_ms, rate.windows,
                     rate.first_index);
}

// ---------------------------------------------------------------------------
// Set-up: everything a run builds before its timed region. The lo and hi
// windows are generated here; ladder rungs are generated as the ladder
// reaches them, so that they do not all sit in memory at once.

// Executor and TaskGraph keep atomics that workers write next to fields that
// every worker reads, with no padding between them, so which of them share
// a cache line depends on where the object starts within its line. Measured
// on the reference host, forkjoin throughput moves from 5.3M to 3.4M tasks/s
// as the executor's start moves from offset 0 to offset 32, and by about 15%
// with the graph's. The benchmark therefore constructs both at the start of
// a cache line, so its figures do not depend on incidental heap layout.
template <typename T>
struct LineFree {
  void operator()(T* p) const {
    p->~T();
    ::operator delete(p, std::align_val_t{64});
  }
};
template <typename T>
using LinePtr = std::unique_ptr<T, LineFree<T>>;

template <typename T, typename... Args>
LinePtr<T> MakeLineAligned(Args&&... args) {
  void* memory = ::operator new(sizeof(T), std::align_val_t{64});
  return LinePtr<T>(new (memory) T(std::forward<Args>(args)...));
}

struct World {
  LinePtr<optsched::task::TaskGraph> graph;
  LinePtr<Executor> forkjoin;
  LinePtr<Executor> steal;
  Windows lo;
  Windows hi;
};

void SeedPile(Executor& executor) {
  constexpr uint64_t kChunk = 1 << 16;
  std::vector<WorkItem> chunk;
  chunk.reserve(kChunk);
  for (uint64_t next = 0; next < kPileItems;) {
    chunk.clear();
    for (; next < kPileItems && chunk.size() < kChunk; ++next) {
      chunk.push_back({.id = next + 1, .work_units = 1});
    }
    executor.SubmitBatch(0, chunk);
  }
}

ExecutorConfig ForkjoinConfig(const Options& o, optsched::runtime::TaskRunner* runner) {
  ExecutorConfig c = MakeConfig(o, kClosedWorkers, o.seed);
  c.task_runner = runner;
  return c;
}

ExecutorConfig StealConfig(const Options& o) { return MakeConfig(o, kClosedWorkers, o.seed + 1); }

std::unique_ptr<World> SetUp(const Options& o) {
  auto w = std::make_unique<World>();
  w->graph = MakeLineAligned<optsched::task::TaskGraph>(optsched::task::TaskGraphOptions{
      .max_workers = kClosedWorkers,
      .arena_capacity = FibNodes(kFibN, kFibCutoff, kClosedWorkers)});
  w->forkjoin = MakeLineAligned<Executor>(MakePolicy(), ForkjoinConfig(o, w->graph.get()));
  w->steal = MakeLineAligned<Executor>(MakePolicy(), StealConfig(o));
  SeedPile(*w->steal);
  w->lo = MakeWindows(o.seed, kLo);
  w->hi = MakeWindows(o.seed, kHi);
  return w;
}

// ---------------------------------------------------------------------------
// Closed-loop passes.

struct ClosedResult {
  std::vector<double> rates;  // items per second of pass wall time, one per pass
  RuntimeTotals runtime;

  void Add(const ExecutorReport& report, uint64_t wall_ns) {
    runtime.Add(report);
    uint64_t items = 0;
    for (const auto& w : report.workers) {
      items += w.items_executed;
    }
    rates.push_back(static_cast<double>(items) / (static_cast<double>(wall_ns) / 1e9));
  }
};

void ForkjoinPass(optsched::task::TaskGraph& graph, Executor& executor, uint64_t want,
                  Checks& checks, ClosedResult& out) {
  graph.Reset();
  uint64_t result = 0;
  executor.Seed(0, {optsched::workload::MakeFibRoot(graph, kFibN, kFibCutoff, &result)});
  const uint64_t start = NowNs();
  const ExecutorReport report = executor.Run();
  const uint64_t wall_ns = NowNs() - start;
  checks.Expect(result == want && graph.done(),
                "forkjoin: fib(" + std::to_string(kFibN) + ") = " + std::to_string(result) +
                    ", want " + std::to_string(want));
  out.Add(report, wall_ns);
}

// `seeded` says whether the executor already holds a fresh pile.
void StealPass(Executor& executor, bool& seeded, Checks& checks, ClosedResult& out) {
  if (!seeded) {
    SeedPile(executor);
  }
  seeded = false;
  const uint64_t start = NowNs();
  const ExecutorReport report = executor.Run();
  const uint64_t wall_ns = NowNs() - start;
  uint64_t executed = 0;
  for (const auto& w : report.workers) {
    executed += w.items_executed;
  }
  checks.Expect(executed == kPileItems, "steal: executed " + std::to_string(executed) + " of " +
                                            std::to_string(kPileItems) + " seeded items");
  out.Add(report, wall_ns);
}

// ---------------------------------------------------------------------------
// Open-loop serve phases.

struct PhaseResult {
  uint64_t offered = 0;
  uint64_t shed = 0;
  uint64_t unoffered = 0;  // arrivals the generator never reached
  uint64_t executed = 0;
  uint64_t mailbox_residue = 0;
  uint64_t queue_residue = 0;
  uint64_t window_ns = 0;
  uint64_t cpu_process_ns = 0;
  uint64_t cpu_generator_ns = 0;
  optsched::stats::LogHistogram sojourn_ns;
  FineHist gen_lag_ns;
  ExecutorReport report;
  bool conserved = false;

  uint64_t arrivals() const { return offered + unoffered; }
  uint64_t backlog() const { return mailbox_residue + queue_residue + unoffered; }
  double fail_frac() const {
    return Ratio(static_cast<double>(arrivals() - executed), static_cast<double>(arrivals()));
  }
  // Sojourn percentile over every arrival. An item that was shed, left
  // queued or never offered missed every limit; it counts as the whole
  // phase, the longest it could have waited.
  double LatencyUs(double q) const {
    const double rank = q * static_cast<double>(arrivals());
    if (executed == 0 || rank > static_cast<double>(executed)) {
      return static_cast<double>(window_ns) / 1e3;
    }
    return sojourn_ns.Percentile(rank / static_cast<double>(executed)) / 1e3;
  }
  double gen_lag_p99_us() const { return gen_lag_ns.Percentile(0.99) / 1e3; }
};

// Checks the item ledger of the window. `checks` is null for ladder rungs:
// a rung drives the executor past capacity on purpose, so a failure there
// fails the rung (see RungPassFrac) instead of the run.
PhaseResult RunPhase(const Options& o, const PhaseInput& in, Lanes* lanes, Checks* checks) {
  optsched::ingress::MailboxSet mailboxes(kServeWorkers, kMailboxCapacity);
  optsched::ingress::RouterConfig router_config;
  router_config.num_shards = 1;  // the one generator thread owns shard 0
  router_config.admission.policy = optsched::ingress::AdmissionPolicy::kShed;
  optsched::ingress::IngressRouter router(mailboxes, router_config);

  std::optional<TimedSource> timed_source;
  ExecutorConfig config = MakeConfig(o, kServeWorkers, o.seed + 2 + in.id_base);
  config.spin_per_unit = kServeSpin;
  config.ingress = &mailboxes;
  if (lanes != nullptr) {
    timed_source.emplace(mailboxes, *lanes);
    config.ingress = &*timed_source;
    config.trace_ring_capacity = kTraceRingCapacity;
  }
  const LinePtr<Executor> executor = MakeLineAligned<Executor>(MakePolicy(), config);
  mailboxes.set_notify([e = executor.get()](uint32_t worker) { e->NotifyIngress(worker); });

  PhaseResult r;
  r.window_ns = (in.duration_ms - kTailMs) * 1000000ull;
  const auto generator = [&](Executor& e) {
    const uint64_t cpu_start = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    const uint64_t t0 = NowNs();
    size_t i = 0;
    for (; i < in.due_ns.size(); ++i) {
      const uint64_t due = t0 + in.due_ns[i];
      uint64_t now = NowNs();
      while (now < due && !e.stopped()) {
        optsched::runtime::CpuRelax();
        now = NowNs();
      }
      if (e.stopped()) {
        break;
      }
      r.gen_lag_ns.Add(now - due);
      const WorkItem item{.id = in.id_base + i + 1, .work_units = 1, .arrival_ns = due};
      optsched::ingress::AdmitResult admit;
      if (lanes != nullptr) {
        Lane& lane = lanes->generator();
        const uint64_t start = NowNs();
        admit = router.Offer(0, in.session[i], item);
        const uint64_t end = NowNs();
        lane.offer_ns.Add(end - start);
        lane.Record({.name = "ingress.offer", .start_ns = start, .end_ns = end, .id = item.id});
        lane.Record({.name = "ingress.offer", .kind = Span::kFlowStart, .start_ns = start,
                     .end_ns = start, .id = item.id});
      } else {
        admit = router.Offer(0, in.session[i], item);
      }
      r.shed += admit.outcome == optsched::ingress::AdmitOutcome::kShed ? 1 : 0;
    }
    r.offered = i;
    r.unoffered = in.due_ns.size() - i;
    r.cpu_generator_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
  };
  const uint64_t cpu_start = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  r.report = executor->RunFor(in.duration_ms, generator);
  r.cpu_process_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_start;
  for (const auto& w : r.report.workers) {
    r.executed += w.items_executed;
  }
  r.queue_residue = r.report.items_left_unexecuted;
  r.mailbox_residue = static_cast<uint64_t>(std::max<int64_t>(0, mailboxes.TotalPending()));
  r.sojourn_ns = r.report.MergedSojournNs();
  r.conserved = r.offered == r.shed + r.executed + r.mailbox_residue + r.queue_residue;
  if (checks != nullptr) {
    checks->Expect(r.conserved, in.name + ": offered " + std::to_string(r.offered) +
                                    " != shed " + std::to_string(r.shed) + " + executed " +
                                    std::to_string(r.executed) + " + mailbox residue " +
                                    std::to_string(r.mailbox_residue) + " + runqueue residue " +
                                    std::to_string(r.queue_residue));
  }
  return r;
}

// Per-window figures of one rate and their medians.
struct RateResult {
  std::vector<PhaseResult> windows;
  RuntimeTotals runtime;

  std::vector<double> Each(const std::function<double(const PhaseResult&)>& f) const {
    std::vector<double> v;
    for (const PhaseResult& w : windows) {
      v.push_back(f(w));
    }
    return v;
  }
  double MedianOf(const std::function<double(const PhaseResult&)>& f) const {
    return Median(Each(f));
  }
  double p50_us() const { return MedianOf([](const PhaseResult& r) { return r.LatencyUs(0.5); }); }
  double p99_us() const {
    return MedianOf([](const PhaseResult& r) { return r.LatencyUs(0.99); });
  }
  double served_frac() const {
    return MedianOf([](const PhaseResult& r) { return 1.0 - r.fail_frac(); });
  }
  double cpu_us_per_item() const {
    return MedianOf([](const PhaseResult& r) {
      return Ratio(static_cast<double>(r.cpu_process_ns - r.cpu_generator_ns) / 1e3,
                   static_cast<double>(r.executed));
    });
  }
  double gen_lag_p99_us() const {
    return MedianOf([](const PhaseResult& r) { return r.gen_lag_p99_us(); });
  }
};

// Runs the next of a rate's pre-generated windows, cycling through them.
void RunNextWindow(const Options& o, const Windows& inputs, Lanes* lanes, Checks& checks,
                   RateResult& out) {
  out.windows.push_back(
      RunPhase(o, inputs[out.windows.size() % inputs.size()], lanes, &checks));
  out.runtime.Add(out.windows.back().report);
}

// A ladder window passes when its item ledger balances and it meets the
// latency limit with at most kMaxFailFrac failures and no backlog. Sojourn
// runs from the scheduled arrival, so a generator that falls behind fails
// the latency limit (or leaves arrivals unoffered, which is backlog); the
// generator-lag bound of the lo and hi windows is not applied again here.
// Returns the share of the rung's windows that pass; `runtime` collects the
// rung's executor reports for the watchdog check.
double RungPassFrac(const Options& o, const Windows& rung, RuntimeTotals& runtime) {
  int passing = 0;
  // Windows failing each criterion, for the log.
  int ledger = 0, latency = 0, fail = 0, backlog = 0;
  for (const PhaseInput& window : rung) {
    const PhaseResult r = RunPhase(o, window, nullptr, nullptr);
    runtime.Add(r.report);
    const bool ok[] = {r.conserved, r.LatencyUs(0.99) <= kLatencyLimitUs,
                       r.fail_frac() <= kMaxFailFrac, r.backlog() == 0};
    ledger += ok[0] ? 0 : 1;
    latency += ok[1] ? 0 : 1;
    fail += ok[2] ? 0 : 1;
    backlog += ok[3] ? 0 : 1;
    passing += ok[0] && ok[1] && ok[2] && ok[3] ? 1 : 0;
  }
  std::fprintf(stderr,
               "optbench: %s/s: %d of %zu windows pass (failing: ledger %d, p99 %d, "
               "fail_frac %d, backlog %d)\n",
               rung[0].name.c_str(), passing, rung.size(), ledger, latency, fail, backlog);
  return static_cast<double>(passing) / static_cast<double>(rung.size());
}

// The maximum rate: the rate at which half the windows pass, located on a
// geometric ladder by the Spearman-Karber estimator. With rungs
// r_i = from * ratio^i and pass shares p_i, and the ladder bracketing the
// knee (p_0 = 1, p_last = 0), the estimate in log space is
//   ln r_0 + ln(ratio) * (1/2 + sum of p_i over the inner rungs).
// Every window counts, so one window spoiled by a host stall moves the
// estimate by a fraction of a step instead of ending a walk early.
double MaxRate(const Options& o, RuntimeTotals& runtime) {
  double sum = 0;
  for (uint64_t i = 0; i < kLadderRungs; ++i) {
    const double rate = kLadderFrom * std::pow(kLadderRatio, static_cast<double>(i));
    const std::string name = "rung " + std::to_string(static_cast<uint64_t>(rate));
    const double p = RungPassFrac(
        o, MakeWindows(o.seed, name, rate, kRungMs, kRungRepeats, 3000 + 16 * i), runtime);
    if ((i == 0 && p < 1) || (i + 1 == kLadderRungs && p > 0)) {
      std::fprintf(stderr, "optbench: the ladder does not bracket the maximum rate\n");
    }
    if (i > 0 && i + 1 < kLadderRungs) {
      sum += p;
    }
  }
  return kLadderFrom * std::pow(kLadderRatio, 0.5 + sum);
}

// ---------------------------------------------------------------------------
// Chrome trace of the traced run: one process per part, one thread per lane.

void AppendTrace(std::string& out, const Lanes& lanes, int pid, const char* part,
                 uint64_t origin_ns, uint64_t& dropped) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}",
                out.back() == '[' ? "" : ",\n", pid, part);
  out += buf;
  const auto us = [&](uint64_t ns) { return static_cast<double>(ns - origin_ns) / 1e3; };
  for (size_t t = 0; t < lanes.size(); ++t) {
    const Lane& lane = lanes[t];
    dropped += lane.spans_dropped;
    for (const Span& s : lane.spans) {
      if (s.kind == Span::kSlice) {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"items\":%u}}",
                      s.name, pid, t, us(s.start_ns),
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent), s.count);
      } else {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"item\",\"cat\":\"item\",\"ph\":\"%s\",%s\"id\":%llu,"
                      "\"pid\":%d,\"tid\":%zu,\"ts\":%.3f}",
                      s.kind == Span::kFlowStart ? "s" : "f",
                      s.kind == Span::kFlowEnd ? "\"bp\":\"e\"," : "",
                      static_cast<unsigned long long>(s.id), pid, t, us(s.start_ns));
      }
      out += buf;
    }
  }
}

// ---------------------------------------------------------------------------
// Run-level checks.

// Work conservation: no worker of any part may sit idle while another is
// overloaded for more than kWatchdogThresholdSamples samples.
void CheckWatchdog(Checks& checks, const std::string& part, const RuntimeTotals& rt) {
  std::fprintf(stderr,
               "optbench: %s: watchdog %llu transient, %llu persistent, longest streak %llu "
               "samples\n",
               part.c_str(), static_cast<unsigned long long>(rt.wd_transient),
               static_cast<unsigned long long>(rt.wd_persistent),
               static_cast<unsigned long long>(rt.wd_max_streak));
  checks.Expect(rt.wd_persistent == 0,
                part + ": " + std::to_string(rt.wd_persistent) +
                    " persistent watchdog violations");
}

// The open loop means something only if the generator kept to its schedule
// in the typical window. A rate whose median window lagged beyond the bound
// is an invalid measurement, and a failed check.
void CheckGeneratorLag(Checks& checks, const Rate& rate, const RateResult& result) {
  char what[160];
  std::snprintf(what, sizeof(what),
                "%s: invalid open loop: generator lag p99 %.1fus in the median window exceeds "
                "the %.0fus bound",
                rate.name, result.gen_lag_p99_us(), GenLagBoundUs(rate));
  checks.Expect(result.gen_lag_p99_us() <= GenLagBoundUs(rate), what);
}

// ---------------------------------------------------------------------------
// The two runs. Both proceed in rounds, each round running every part once,
// so that every part samples the same stretch of host conditions: on a
// shared host, throughput shifts by tens of percent over seconds, and a part
// measured in one contiguous block would catch only one of those stretches.

void EmitStealLayer(Metrics& m, const std::string& p, const RuntimeTotals& rt) {
  m.Set(p + "runtime.steal.attempts_per_kitem", rt.per_kitem(rt.rounds()));
  m.Set(p + "runtime.steal.success_frac", rt.per_round(rt.successes));
}

void EmitWatchdog(Metrics& m, const std::string& p, const RuntimeTotals& rt) {
  m.Set(p + "runtime.watchdog.transient_per_s",
        Ratio(static_cast<double>(rt.wd_transient), rt.wall_s()));
  m.Set(p + "runtime.watchdog.persistent", static_cast<double>(rt.wd_persistent));
}

double Seconds(uint64_t since_ns) { return static_cast<double>(NowNs() - since_ns) / 1e9; }

RuntimeTotals Both(const RateResult& lo, const RateResult& hi) {
  RuntimeTotals both = lo.runtime;
  for (const PhaseResult& w : hi.windows) {
    both.Add(w.report);
  }
  return both;
}

void UntracedRun(const Options& o, World& world, uint64_t want_fib, Checks& checks,
                 Metrics& m) {
  ClosedResult fj;
  ClosedResult st;
  RateResult lo;
  RateResult hi;
  bool seeded = true;
  const uint64_t start = NowNs();
  for (uint64_t round = 0; round < kMinRounds || Seconds(start) < o.seconds; ++round) {
    for (uint64_t k = 0; k < kFibPerRound; ++k) {
      ForkjoinPass(*world.graph, *world.forkjoin, want_fib, checks, fj);
    }
    for (uint64_t k = 0; k < kPilePerRound; ++k) {
      StealPass(*world.steal, seeded, checks, st);
    }
    for (uint64_t k = 0; k < kLo.per_round; ++k) {
      RunNextWindow(o, world.lo, nullptr, checks, lo);
    }
    for (uint64_t k = 0; k < kHi.per_round; ++k) {
      RunNextWindow(o, world.hi, nullptr, checks, hi);
    }
  }
  CheckWatchdog(checks, "forkjoin", fj.runtime);
  CheckWatchdog(checks, "steal", st.runtime);
  CheckWatchdog(checks, "serve", Both(lo, hi));
  CheckGeneratorLag(checks, kLo, lo);
  CheckGeneratorLag(checks, kHi, hi);
  m.Set("forkjoin.items_per_s", Median(fj.rates));
  m.Set("steal.items_per_s", Median(st.rates));
  m.Set("serve_lo.p50_us", lo.p50_us());
  m.Set("serve_hi.served_frac", hi.served_frac());
  m.Set("serve_lo.cpu_us_per_item", lo.cpu_us_per_item());
  for (const auto& [name, rate] : {std::pair{"lo", &lo}, std::pair{"hi", &hi}}) {
    const auto p50 = rate->Each([](const PhaseResult& r) { return r.LatencyUs(0.5); });
    const auto p99 = rate->Each([](const PhaseResult& r) { return r.LatencyUs(0.99); });
    std::fprintf(stderr,
                 "optbench: %s: %zu windows; IQR/median across windows: p50 %.3f, p99 %.3f\n",
                 name, rate->windows.size(), Spread(p50), Spread(p99));
  }
  std::fprintf(stderr,
               "optbench: %zu forkjoin passes (IQR/median %.3f), %zu steal passes (%.3f), "
               "%zu lo and %zu hi windows\n",
               fj.rates.size(), Spread(fj.rates), st.rates.size(), Spread(st.rates),
               lo.windows.size(), hi.windows.size());
}

// Each round runs every part untraced and traced back to back; the
// untraced figures are the baseline of trace.overhead_frac.
void TracedRun(const Options& o, World& world, uint64_t want_fib, Checks& checks, Metrics& m) {
  // forkjoin: TaskRunner and BalancePolicy decorators.
  Lanes fj_lanes(kClosedWorkers, kSpanCap);
  TimedRunner runner(*world.graph, fj_lanes);
  ExecutorConfig fj_config = ForkjoinConfig(o, &runner);
  fj_config.trace_ring_capacity = kTraceRingCapacity;
  const LinePtr<Executor> fj_traced =
      MakeLineAligned<Executor>(std::make_shared<CountingPolicy>(MakePolicy(), fj_lanes), fj_config);
  // steal: BalancePolicy decorator.
  Lanes st_lanes(kClosedWorkers, 0);
  ExecutorConfig st_config = StealConfig(o);
  st_config.trace_ring_capacity = kTraceRingCapacity;
  const LinePtr<Executor> st_traced =
      MakeLineAligned<Executor>(std::make_shared<CountingPolicy>(MakePolicy(), st_lanes), st_config);
  // serve: IngressSource decorator (built per window), Offer timed in the
  // generator.
  Lanes lo_lanes(kServeWorkers, kSpanCap);
  Lanes hi_lanes(kServeWorkers, kSpanCap);

  ClosedResult fj_base;
  ClosedResult fj;
  ClosedResult st_base;
  ClosedResult st;
  RateResult lo_base;
  RateResult hi_base;
  RateResult lo;
  RateResult hi;
  bool seeded_base = true;
  bool seeded = false;
  const uint64_t origin = NowNs();
  for (uint64_t round = 0; round < kMinRounds || Seconds(origin) < o.seconds; ++round) {
    for (uint64_t k = 0; k < kFibPerRound; ++k) {
      ForkjoinPass(*world.graph, *world.forkjoin, want_fib, checks, fj_base);
      ForkjoinPass(*world.graph, *fj_traced, want_fib, checks, fj);
    }
    for (uint64_t k = 0; k < kPilePerRound; ++k) {
      StealPass(*world.steal, seeded_base, checks, st_base);
      StealPass(*st_traced, seeded, checks, st);
    }
    for (uint64_t k = 0; k < kLo.per_round; ++k) {
      RunNextWindow(o, world.lo, nullptr, checks, lo_base);
      RunNextWindow(o, world.lo, &lo_lanes, checks, lo);
    }
    for (uint64_t k = 0; k < kHi.per_round; ++k) {
      RunNextWindow(o, world.hi, nullptr, checks, hi_base);
      RunNextWindow(o, world.hi, &hi_lanes, checks, hi);
    }
  }
  RuntimeTotals ladder;
  const double max_rate = MaxRate(o, ladder);
  CheckWatchdog(checks, "forkjoin", fj_base.runtime);
  CheckWatchdog(checks, "forkjoin traced", fj.runtime);
  CheckWatchdog(checks, "steal", st_base.runtime);
  CheckWatchdog(checks, "steal traced", st.runtime);
  CheckWatchdog(checks, "serve", Both(lo_base, hi_base));
  CheckWatchdog(checks, "serve traced", Both(lo, hi));
  CheckWatchdog(checks, "serve ladder", ladder);
  CheckGeneratorLag(checks, kLo, lo_base);
  CheckGeneratorLag(checks, kHi, hi_base);

  uint64_t ring_dropped = 0;
  {
    uint64_t busy = 0;
    uint64_t runs = 0;
    FineHist run_ns;
    for (size_t i = 0; i < fj_lanes.size(); ++i) {
      busy += fj_lanes[i].task_busy_ns;
      runs += fj_lanes[i].task_runs;
      run_ns.Merge(fj_lanes[i].task_run_ns);
    }
    const RuntimeTotals& rt = fj.runtime;
    const double worker_ns = static_cast<double>(rt.wall_ns) * kClosedWorkers;
    checks.Expect(runs == rt.items, "forkjoin: task.run spans != items executed");
    const std::string p = "forkjoin.";
    EmitStealLayer(m, p, rt);
    EmitWatchdog(m, p, rt);
    m.Set(p + "runtime.items_cv", rt.items_cv());
    // Forkjoin has no ingress, so no ingress.drain spans: the scheduler's
    // self time is what task.run spans leave uncovered.
    m.Set(p + "runtime.sched_frac", 1.0 - Ratio(static_cast<double>(busy), worker_ns));
    m.Set(p + "task.run_ns.p50", run_ns.Percentile(0.50));
    m.Set(p + "task.run_ns.p99", run_ns.Percentile(0.99));
    m.Set(p + "task.busy_frac", Ratio(static_cast<double>(busy), worker_ns));
    m.Set(p + "trace.overhead_frac", 1.0 - Ratio(Median(fj.rates), Median(fj_base.rates)));
    ring_dropped += rt.trace_dropped;
  }
  {
    uint64_t cansteal = 0;
    uint64_t select = 0;
    for (size_t i = 0; i < st_lanes.size(); ++i) {
      cansteal += st_lanes[i].cansteal_calls;
      select += st_lanes[i].select_calls;
    }
    const RuntimeTotals& rt = st.runtime;
    const std::string p = "steal.";
    EmitStealLayer(m, p, rt);
    EmitWatchdog(m, p, rt);
    m.Set(p + "runtime.steal.items_per_success",
          Ratio(static_cast<double>(rt.items_stolen), static_cast<double>(rt.successes)));
    m.Set(p + "runtime.steal.fail_recheck_frac", rt.per_round(rt.failed_recheck));
    m.Set(p + "runtime.steal.empty_filter_frac", rt.per_round(rt.empty_filter));
    m.Set(p + "runtime.steal_ns.p50", rt.steal_ns.Percentile(0.50));
    m.Set(p + "runtime.steal_ns.p99", rt.steal_ns.Percentile(0.99));
    m.Set(p + "runtime.steal_fail_ns.p50", rt.steal_fail_ns.Percentile(0.50));
    m.Set(p + "runtime.select_ns.p50", rt.select_ns.Percentile(0.50));
    m.Set(p + "runtime.select_ns.p99", rt.select_ns.Percentile(0.99));
    m.Set(p + "runtime.seqlock_retries_per_kitem", rt.per_kitem(rt.seqlock_retries));
    m.Set(p + "runtime.items_cv", rt.items_cv());
    m.Set(p + "core.cansteal_calls_per_attempt", rt.per_round(cansteal));
    m.Set(p + "core.select_calls_per_success",
          Ratio(static_cast<double>(select), static_cast<double>(rt.successes)));
    m.Set(p + "trace.overhead_frac", 1.0 - Ratio(Median(st.rates), Median(st_base.rates)));
    ring_dropped += rt.trace_dropped;
  }
  {
    uint64_t calls = 0;
    uint64_t empty = 0;
    uint64_t drained = 0;
    FineHist drain_ns;
    FineHist wait_ns;
    for (size_t i = 0; i < hi_lanes.size(); ++i) {
      calls += hi_lanes[i].drain_calls;
      empty += hi_lanes[i].drain_empty;
      drained += hi_lanes[i].drain_items;
      drain_ns.Merge(hi_lanes[i].drain_ns);
      wait_ns.Merge(hi_lanes[i].mailbox_wait_ns);
    }
    uint64_t offered = 0;
    uint64_t shed = 0;
    for (const PhaseResult& w : hi.windows) {
      offered += w.offered;
      shed += w.shed;
    }
    const RuntimeTotals& lo_rt = lo.runtime;
    const RuntimeTotals both = Both(lo, hi);
    const FineHist& offer_ns = hi_lanes.generator().offer_ns;
    const std::string p = "serve.";
    EmitWatchdog(m, p, both);
    m.Set(p + "runtime.backoff.parks_per_s",
          Ratio(static_cast<double>(lo_rt.parks), lo_rt.wall_s()));
    m.Set(p + "runtime.backoff.spins_per_item",
          Ratio(static_cast<double>(lo_rt.park_spins), static_cast<double>(lo_rt.items)));
    m.Set(p + "runtime.submit_wakeups_per_kitem", lo_rt.per_kitem(lo_rt.submit_wakeups));
    m.Set(p + "runtime.idle_loops_per_kitem", lo_rt.per_kitem(lo_rt.idle_loops));
    m.Set(p + "ingress.offer_ns.p50", offer_ns.Percentile(0.50));
    m.Set(p + "ingress.offer_ns.p99", offer_ns.Percentile(0.99));
    m.Set(p + "ingress.shed_frac", Ratio(static_cast<double>(shed), static_cast<double>(offered)));
    m.Set(p + "ingress.drain.items_per_call",
          Ratio(static_cast<double>(drained), static_cast<double>(calls)));
    m.Set(p + "ingress.drain.empty_frac",
          Ratio(static_cast<double>(empty), static_cast<double>(calls)));
    m.Set(p + "ingress.drain_ns.p50", drain_ns.Percentile(0.50));
    m.Set(p + "ingress.mailbox_wait_us.p50", wait_ns.Percentile(0.50) / 1e3);
    m.Set(p + "ingress.mailbox_wait_us.p99", wait_ns.Percentile(0.99) / 1e3);
    // The lag of the plain hi windows, the ones CheckGeneratorLag judges.
    m.Set(p + "bench.gen_lag_us.p99", hi_base.gen_lag_p99_us());
    // The hi latencies, the lo tail and the maximum rate come from plain
    // windows: their spread across runs on a shared host is too wide for an
    // end-to-end bound (see record.json), so they are reported here,
    // unbounded.
    m.Set("serve_hi.p50_us", hi_base.p50_us());
    m.Set("serve_lo.p99_us", lo_base.p99_us());
    m.Set("serve_hi.p99_us", hi_base.p99_us());
    m.Set("serve.max_rate_per_s", max_rate);
    m.Set(p + "trace.overhead_frac", Ratio(hi.p50_us(), hi_base.p50_us()) - 1.0);
    ring_dropped += both.trace_dropped;
  }
  m.Set("trace.ring_dropped", static_cast<double>(ring_dropped));

  std::string chrome = "{\"traceEvents\":[";
  uint64_t spans_dropped = 0;
  AppendTrace(chrome, fj_lanes, 1, "forkjoin", origin, spans_dropped);
  AppendTrace(chrome, lo_lanes, 2, "serve_lo", origin, spans_dropped);
  AppendTrace(chrome, hi_lanes, 3, "serve_hi", origin, spans_dropped);
  chrome += "],\"otherData\":{\"spans_dropped\":" + std::to_string(spans_dropped) + "}}\n";
  if (!o.trace_out.empty() && !optsched::trace::WriteStringToFile(o.trace_out, chrome)) {
    Die("cannot write the Chrome trace to " + o.trace_out);
  }
}

int Run(const Options& o) {
  CheckThreadBudget();
  std::fprintf(stderr, "optbench: profile %s (%s backend, max_steal_batch %u), seed %llu\n",
               o.profile->name, optsched::runtime::QueueBackendName(o.profile->backend),
               o.max_steal_batch, static_cast<unsigned long long>(o.seed));
  Checks checks;
  Metrics m;
  const uint64_t want_fib = optsched::workload::FibSequential(kFibN);

  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (uint64_t rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    const uint64_t start = NowNs();
    world = SetUp(o);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  if (o.trace) {
    TracedRun(o, *world, want_fib, checks, m);
  } else {
    m.Set("setup_s", Median(setup_s));
    UntracedRun(o, *world, want_fib, checks, m);
  }

  const bool correct = checks.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace optbench

int main(int argc, char** argv) { return optbench::Run(optbench::ParseOptions(argc, argv)); }
