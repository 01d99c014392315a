// Workload generators for the simulator.
//
// These recreate the imbalance shapes behind the paper's motivation (§1):
// scientific fork-join applications that suffer "many-fold performance
// degradation" and database workloads losing "up to 25% ... throughput" when
// cores idle while runqueues hold work (Lozi et al., EuroSys'16). Each
// generator is deterministic given its seed.

#ifndef OPTSCHED_SRC_WORKLOAD_WORKLOADS_H_
#define OPTSCHED_SRC_WORKLOAD_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/simulator.h"

namespace optsched::workload {

// --- Static imbalance --------------------------------------------------------
// `num_tasks` CPU-bound tasks of `service_us` each, all submitted at t=0 onto
// a small subset of cores (round-robin over the first `initial_cpus` CPUs).
// Measures pure rebalancing ability: makespan of a perfectly work-conserving
// scheduler approaches ceil(num_tasks / num_cpus) * service_us.
struct StaticImbalanceConfig {
  uint32_t num_tasks = 64;
  uint64_t service_us = 100'000;
  uint32_t initial_cpus = 1;
};
void SubmitStaticImbalance(sim::Simulator& simulator, const StaticImbalanceConfig& config);

// --- Fork-join scientific phases ----------------------------------------------
// `num_phases` barrier-synchronized phases; each phase forks
// `tasks_per_phase` CPU-bound tasks (duration jittered up to `jitter_frac`)
// from a master core, and the next phase starts only when all tasks of the
// current phase completed. Wake placement mistakes or missed steals delay the
// barrier by the slowest task — the "many-fold" degradation shape.
struct ForkJoinConfig {
  uint32_t num_phases = 8;
  uint32_t tasks_per_phase = 64;
  uint64_t task_service_us = 50'000;
  double jitter_frac = 0.2;
  CpuId master_cpu = 0;
  uint64_t seed = 42;
};
// Installs the phase driver (uses Simulator::SetOnTaskExit) and submits the
// first phase. Returns a keep-alive handle that must outlive Run().
std::shared_ptr<void> InstallForkJoin(sim::Simulator& simulator, const ForkJoinConfig& config);

// --- OLTP-style database workers ----------------------------------------------
// `num_workers` long-lived workers; each executes transactions: a CPU burst
// of `txn_service_us` followed by an exponential I/O wait of
// `mean_io_wait_us`. Workers are born on their home node (spread uniformly).
// Throughput = completed bursts; the paper's database number is the ~25%
// throughput loss when balancing fails to spread workers.
struct OltpConfig {
  uint32_t num_workers = 64;
  uint64_t txn_service_us = 1'000;
  uint64_t mean_io_wait_us = 3'000;
  uint64_t duration_us = 5'000'000;  // total worker lifetime
  uint64_t seed = 42;
};
void SubmitOltp(sim::Simulator& simulator, const OltpConfig& config);

// --- Poisson open system --------------------------------------------------------
// Tasks arrive with exponential inter-arrival times (rate = `arrivals_per_sec`)
// and exponential service (mean `mean_service_us`), submitted to a uniformly
// random home node. Used for latency measurements under churn.
struct PoissonConfig {
  double arrivals_per_sec = 2000.0;
  uint64_t mean_service_us = 8'000;
  uint64_t duration_us = 2'000'000;
  uint64_t seed = 42;
};
void SubmitPoisson(sim::Simulator& simulator, const PoissonConfig& config);

}  // namespace optsched::workload

#endif  // OPTSCHED_SRC_WORKLOAD_WORKLOADS_H_
