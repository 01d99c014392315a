// Experiment E6 — wasted cores: CFS-like heuristics vs proven policies
// (paper §1, citing Lozi et al. EuroSys'16).
//
// Paper claims: "The default Linux scheduler (CFS) has been shown to leave
// cores idle while threads are waiting in runqueues ... we have observed
// many-fold performance degradation in the case of scientific applications,
// and up to 25% decrease in throughput for realistic database workloads."
//
// Reproduction (simulator, 2 NUMA nodes x 16 cores): a fork-join "scientific"
// workload and an OLTP "database" workload, each run under (a) the CFS-like
// policy (group-average thresholding + designated-core cross-group balancing,
// sticky last-cpu wakeups), (b) the proven Listing-1 policy, and (c) the
// proven hierarchical policy. We report makespan / throughput and the
// wasted-core time fraction. Absolute numbers are simulator-scale; the
// *shape* — CFS-like materially worse, proven policies near-zero waste — is
// the reproduced result.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/policies/cfs_like.h"
#include "src/core/policies/hierarchical.h"
#include "src/core/policies/locality.h"
#include "src/core/policies/thread_count.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

namespace optsched {
namespace {

using bench::F;
using policies::GroupMap;

struct Candidate {
  std::string label;
  std::shared_ptr<const BalancePolicy> policy;
};

std::vector<Candidate> Candidates(const Topology& topo) {
  return {
      {"cfs-like", policies::MakeCfsLike(GroupMap::ByNode(topo))},
      {"thread-count (proven)", policies::MakeThreadCount()},
      {"hierarchical (proven)", policies::MakeHierarchical(GroupMap::ByNode(topo))},
  };
}

}  // namespace
}  // namespace optsched

int main() {
  using namespace optsched;
  const Topology topo = Topology::Numa(2, 16);

  bench::Section("E6a: fork-join scientific workload (8 phases x 64 tasks, forked on cpu0)");
  {
    std::vector<std::vector<std::string>> rows;
    double proven_makespan = 0.0;
    for (const auto& candidate : Candidates(topo)) {
      sim::SimConfig config;
      config.max_time_us = 3'000'000'000;
      config.lb_period_us = 4'000;
      config.wake_placement = sim::WakePlacement::kLastCpu;
      sim::Simulator s(topo, candidate.policy, config, 21);
      workload::ForkJoinConfig wl;
      wl.num_phases = 8;
      wl.tasks_per_phase = 64;
      // Short phases: the cost of *spreading* the fork dominates, as in the
      // barrier-bound NAS applications of Lozi et al.
      wl.task_service_us = 5'000;
      wl.jitter_frac = 0.2;
      auto keepalive = workload::InstallForkJoin(s, wl);
      s.Run();
      const double makespan_ms = static_cast<double>(s.metrics().makespan_us) / 1000.0;
      if (candidate.label == "thread-count (proven)") {
        proven_makespan = makespan_ms;
      }
      rows.push_back({candidate.label, F("%.1f", makespan_ms),
                      F("%.1f%%", s.accounting().wasted_fraction() * 100.0),
                      F("%.1f%%", s.accounting().utilization() * 100.0),
                      F("%llu", static_cast<unsigned long long>(s.metrics().migrations)),
                      F("%llu", static_cast<unsigned long long>(s.metrics().failed_steals))});
    }
    bench::PrintTable({"policy", "makespan_ms", "wasted_time", "utilization", "migrations",
                       "failed_steals"},
                      rows);
    if (proven_makespan > 0) {
      bench::Note(F("(perfect-balance lower bound: 8 phases x 64 tasks x 5ms / 32 cpus = %.1f ms)",
                    8.0 * 64.0 * 5.0 / 32.0));
    }
  }

  bench::Section(
      "E6b: OLTP database workload (open system: transactions arrive on node 0 only)");
  {
    // Connections are accepted on node 0 (the node holding the NIC / listener
    // in the Lozi et al. TPC-H setup): every transaction task is spawned on a
    // node-0 runqueue and runs ~10ms of CPU. Offered load ~30 cores' worth on
    // a 32-core machine, so throughput is gated by how fast the balancer
    // drains node 0 into node 1. CFS-like cross-node stealing (designated
    // core only, average-thresholded) is rate-limited; the proven policies
    // let every idle core pull work each round.
    std::vector<std::vector<std::string>> rows;
    uint64_t proven_txns = 0;
    uint64_t cfs_txns = 0;
    for (const auto& candidate : Candidates(topo)) {
      sim::SimConfig config;
      config.max_time_us = 5'000'000;
      config.lb_period_us = 4'000;
      config.wake_placement = sim::WakePlacement::kLastCpu;
      sim::Simulator s(topo, candidate.policy, config, 22);
      Rng arrivals(97);
      double t = 0.0;
      uint32_t next_cpu = 0;
      while (t < 5'000'000.0) {
        t += arrivals.NextExponential(3.0 / 1000.0);  // 3 transactions per ms
        if (t >= 5'000'000.0) {
          break;
        }
        sim::TaskSpec spec;
        spec.total_service_us = std::max<uint64_t>(
            1, static_cast<uint64_t>(arrivals.NextExponential(1.0 / 10'000.0)));
        spec.home_node = 0;
        s.Submit(spec, static_cast<sim::SimTime>(t), /*cpu_hint=*/next_cpu++ % 16);
      }
      s.RunUntil(config.max_time_us);
      const uint64_t txns = s.metrics().tasks_completed;
      if (candidate.label == "thread-count (proven)") {
        proven_txns = txns;
      }
      if (candidate.label == "cfs-like") {
        cfs_txns = txns;
      }
      rows.push_back(
          {candidate.label, F("%llu", static_cast<unsigned long long>(txns)),
           F("%.2f", static_cast<double>(txns) / 5000.0),
           F("%.1f", s.metrics().completion_latency_us.mean() / 1000.0),
           F("%.1f%%", s.accounting().wasted_fraction() * 100.0),
           F("%.1f%%", s.accounting().utilization() * 100.0),
           F("%llu", static_cast<unsigned long long>(s.metrics().migrations))});
    }
    bench::PrintTable({"policy", "transactions", "txn/ms", "mean_latency_ms", "wasted_time",
                       "utilization", "migrations"},
                      rows);
    if (proven_txns > 0 && cfs_txns > 0) {
      bench::Note(F("cfs-like throughput loss vs proven: %.1f%% (paper reports up to 25%%)",
                    100.0 * (1.0 - static_cast<double>(cfs_txns) /
                                       static_cast<double>(proven_txns))));
    }
  }

  bench::Section("E6c: persistent starvation fixpoint (analytic shape from cfs_like.h)");
  {
    // Node 0: one idle core + 15 singly-loaded; node 1: one doubly-loaded +
    // 15 singly-loaded. CFS-like admits no steal anywhere; the proven policy
    // clears it in one round.
    std::vector<int64_t> loads(32, 1);
    loads[0] = 0;
    loads[16] = 2;
    std::vector<std::vector<std::string>> rows;
    for (const auto& candidate : Candidates(topo)) {
      MachineState machine = MachineState::FromLoads(loads);
      LoadBalancer balancer(candidate.policy, &topo);
      Rng rng(3);
      uint64_t rounds = 0;
      while (!machine.WorkConserved() && rounds < 50) {
        balancer.RunRound(machine, rng);
        ++rounds;
      }
      rows.push_back({candidate.label,
                      machine.WorkConserved() ? F("%llu", static_cast<unsigned long long>(rounds))
                                              : std::string(">50 (starved forever)")});
    }
    bench::PrintTable({"policy", "rounds to work conservation"}, rows);
  }

  bench::Section("E6d: migration costs — locality-aware CHOICE under cold-cache penalties");
  {
    // Paper 5: NUMA/cache-aware placement lives in the choice step "without
    // adding any complexity to the proofs". With a cold-cache penalty per
    // topology distance, the choice step's quality becomes measurable:
    // identical piles on each node's first CPU; the flat max-load choice
    // tie-breaks onto node 0 so node-1 thieves raid cross-node; nearest-
    // first drains locally. Same filter, same audit, different makespan.
    const Topology topo2 = Topology::Numa(2, 8);
    std::vector<std::vector<std::string>> rows;
    struct Entry {
      const char* label;
      std::shared_ptr<const BalancePolicy> policy;
    };
    const Entry entries[] = {
        {"thread-count (flat max-load choice)", policies::MakeThreadCount()},
        {"thread-count + numa-nearest choice",
         policies::MakeNumaAware(policies::MakeThreadCount())},
        {"hierarchical choice (by node)",
         policies::MakeHierarchical(policies::GroupMap::ByNode(topo2))},
    };
    for (const Entry& entry : entries) {
      sim::SimConfig config;
      config.max_time_us = 2'000'000'000;
      config.lb_period_us = 1'000;
      config.wake_placement = sim::WakePlacement::kLastCpu;
      config.migration_penalty_us_per_distance = 200;
      sim::Simulator s(topo2, entry.policy, config, 29);
      sim::TaskSpec spec;
      spec.total_service_us = 10'000;
      for (int i = 0; i < 48; ++i) {
        s.Submit(spec, 0, 0);  // node-0 pile
        s.Submit(spec, 0, 8);  // node-1 pile
      }
      s.Run();
      rows.push_back(
          {entry.label, F("%.1f", static_cast<double>(s.metrics().makespan_us) / 1000.0),
           F("%llu", static_cast<unsigned long long>(s.metrics().cold_migrations)),
           F("%.1f", static_cast<double>(s.metrics().migration_penalty_us) / 1000.0),
           F("%llu", static_cast<unsigned long long>(s.metrics().migrations))});
    }
    bench::PrintTable({"policy", "makespan_ms", "cold migrations", "penalty paid (ms)",
                       "steals"},
                      rows);
    bench::Note(F("(perfect balance: 96 x 10ms / 16 cpus = %.1f ms, penalty 200us x distance; the\n"
                  " filter is shared so all three pass the same audit — only placement\n"
                  " quality differs)",
                  96.0 * 10.0 / 16.0));
  }

  bench::Note("\nExpected shape (paper): the CFS-like baseline leaves cores idle while work\n"
              "waits (many-fold makespan inflation on fork-join, tens of percent of OLTP\n"
              "throughput); the provably work-conserving policies drive wasted-core time\n"
              "to (near) zero on the same workloads.");
  return 0;
}
