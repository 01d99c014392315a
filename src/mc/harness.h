// Model-checking harness: the real steal protocol (ConcurrentMachine +
// BalancePolicy, the same code the executor runs) driven by N virtual
// workers, with the paper's properties evaluated over each execution.
//
// Three worker-loop modes:
//   * "balance" — Figure 1's loop in isolation: snapshot, (yield), steal,
//     repeat for a fixed attempt budget. Queues only change through steals,
//     which is what makes failure causality and the d0/2 steal bound exact.
//   * "drain"   — owners pop/execute their own queues and steal when empty,
//     so conservation is checked against the executed-item record too.
//   * "epoch"   — the executor's escalation-epoch protocol in miniature: a
//     parked worker blocks on an epoch change, a supervisor bumps it; the
//     property is that the bump wakes the worker (a miss is a deadlock).
//   * "ingress" — the serving front end's admission path: worker 0 is a
//     PRODUCER pushing items into the owners' bounded mailboxes
//     (src/ingress) mid-exploration; owners drain mailbox->runqueue, then
//     pop/execute/steal like "drain". Discharges no-lost-admitted-items:
//     every item the mailbox accepted is executed, still queued, or still
//     mailbox-resident — full mailboxes refuse loudly (kUserMailboxShed),
//     they never lose.
//   * "wakeup"  — the executor's notify/park handshake end to end: worker 0
//     produces into mailboxes and bumps the wakeup epoch AFTER each push
//     (NotifyIngress's ordering contract); owners sample the epoch at the
//     loop top, drain+execute, and park on an epoch change only when the
//     sample predates any unseen notify. Discharges that a notify landing
//     between an owner's last drain and its park can neither deadlock the
//     owner nor strand the pushed item (wakeup-no-stranded-items).
//     With `spawns` > 0 it also models the executor's gated SPAWN wakeup:
//     after its pushes worker 0 runs one item that flushes `spawns` children
//     onto its own queue, reads the parked count and bumps the epoch only
//     when it is nonzero (SubmitFromWorker). The item stays running until
//     siblings have executed every child, so only a steal can finish them.
//     Owners steal when idle, and before parking register in the parked
//     count and re-run a fresh snapshot + filter, parking only if it is
//     empty. A child the gate fails to announce leaves an owner parked
//     forever beside the blocked spawner: the deadlock reports as
//     epoch-wakeup.
//   * "forkjoin" — the continuation-counted task layer (src/task) over the
//     real queues: worker 0 seeds the root of a uniform spawn tree
//     (tree_depth levels, `fanout` children per internal node); workers
//     pop/run task bodies — which fork continuations and spawn children onto
//     the runner's OWN queue mid-exploration — and steal when empty. The
//     join decrement is a decision point (kTaskJoinDec), so the checker
//     drives all last-arriver races. Discharges no-lost-spawns (every
//     spawned item is executed — dynamic work obeys conservation),
//     join-fires-exactly-once, no-worker-blocks-on-join (no parks, no
//     deadlock: joins cost one RMW, never a wait), and
//     bounded-steals-on-tree (migrations stay within the rooted-tree
//     O(W·depth) regime, never the item count).
//
// Properties (per mode):
//   no-lost-items     — multiset{initial items} == queued ∪ executed after.
//   steal-safety      — no successful steal left its victim idle (observed
//                       under both locks, §4.1) — batches included: the whole
//                       batch must keep the victim non-idle.
//   bounded-steals    — migrated ITEMS ≤ d(initial)/2 (§4.3): every permitted
//                       migration strictly decreases the potential, so the
//                       item bound also bounds steal ACTIONS (each action
//                       moves ≥ 1 item).
//   publish-batching  — a successful steal performs ≤ 2 seqlock publishes
//                       inside its critical section (one per queue), however
//                       many items the batch moved.
//   failure-causality — every failed re-check has a concurrent successful
//                       steal inside its snapshot→recheck window (§4.2: all
//                       failures are caused by the optimism, not spurious).
//                       Locked backend only: on chase_lev the causality holds
//                       by construction (TakeTop fails only because a
//                       competitor's CAS moved top) but the competitor's
//                       kUserStealOk note may be emitted after this thread's
//                       recheck event, so the event-window scan would flag
//                       spurious violations.
//   published-depth   — at quiescence, the lock-free published load of every
//                       queue (seqlock snapshot or relaxed counters) equals
//                       the structural count held under the lock: no batched
//                       operation may leave the published depth stale.
//   epoch-wakeup      — no deadlock, and every park is followed by a wake
//                       after an epoch bump. In "wakeup" mode a deadlock
//                       reports under this name: a parked owner never woke.
//   wakeup-no-stranded-items — "wakeup" mode: at termination every mailbox is
//                       empty; an owner may exit only after observing the
//                       producer done AND re-checking its mailbox.
//   no-lost-spawns    — "forkjoin" mode: multiset{root ∪ spawned} == executed
//                       at termination with every queue empty.
//   join-fires-exactly-once — every forked continuation's counter reaches
//                       zero exactly once (a lost decrement strands it; the
//                       protocol cannot double-fire an acq_rel RMW chain).
//   no-worker-blocks-on-join — no kUserPark events and no deadlock: the
//                       continuation-counting discipline never waits.
//   bounded-steals-on-tree — migrated items stay within the rooted-tree
//                       steal regime (≤ W·(depth+2)·fanout), far below the
//                       total task count.

#ifndef OPTSCHED_SRC_MC_HARNESS_H_
#define OPTSCHED_SRC_MC_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/ingress/mailbox.h"
#include "src/mc/explorer.h"
#include "src/mc/schedule.h"
#include "src/mc/scheduler.h"
#include "src/runtime/concurrent_machine.h"
#include "src/task/task.h"
#include "src/topology/topology.h"

namespace optsched::mc {

struct PropertyReport {
  std::string name;
  bool holds = true;
  std::string detail;  // why it failed (empty when it holds)
};

class StealHarness {
 public:
  struct Config {
    std::string mode = "balance";  // balance|drain|epoch|ingress|wakeup|forkjoin
    std::string policy = "thread-count";
    // Items seeded per queue; size() is the worker count.
    std::vector<int64_t> initial_loads;
    uint32_t attempts_per_worker = 2;
    uint64_t seed = 1;
    bool recheck = true;
    // Batched steal-half: cap on items per successful steal action (see
    // StealOptions::max_batch). 1 = the original steal-one protocol.
    uint32_t max_steal_batch = 1;
    // Fault mode: ignore the migration rule and the batch cap, stripping the
    // victim bare — the checker must find the steal-safety violation and
    // minimize it (see StealOptions::break_batch_bound).
    bool break_batch_bound = false;
    // "ingress"/"wakeup" modes: BoundedMailbox capacity per owner. Small
    // bounds (2) make the full/refuse path reachable in tiny explorations.
    uint32_t mailbox_capacity = 2;
    // Run-queue backend under test (see runtime::QueueBackend). Both backends
    // discharge the same properties; failure-causality is locked-only.
    runtime::QueueBackend backend = runtime::QueueBackend::kLocked;
    // Chase-Lev ring capacity; small default keeps mc state bounded while
    // still holding every seeded load without spilling to the inbox.
    uint32_t deque_capacity = 64;
    // Fault knob (chase_lev only): thieves read bottom before top with no
    // fence, so a stale size window can claim an already-executed slot. The
    // checker must find the no-lost-items violation.
    bool broken_steal_order = false;
    // "forkjoin" mode: uniform spawn tree of this many levels below the root
    // (tree_depth = 1 is a root forking `fanout` leaves). initial_loads must
    // be all-zero in this mode — the only seeded item is the root task.
    uint32_t tree_depth = 2;
    uint32_t fanout = 2;
    // Fault knob ("forkjoin"): TaskGraphOptions::broken_join_counter — a
    // plain load/store join decrement that can lose a concurrent arrival and
    // strand the continuation (join-fires-exactly-once).
    bool broken_join_counter = false;
    // "wakeup" mode: children worker 0 spawns onto its own queue through the
    // gated spawn wakeup after its mailbox pushes (0 = no spawn phase).
    // Requires initial_loads[0] == 0: the spawning item must be alone in
    // its queue, where no steal may take it.
    uint32_t spawns = 0;
    // Fault knob ("wakeup", spawns > 0): owners skip the re-check after
    // registering as parked, so a spawn flushed between their last steal
    // attempt and the registration is never announced (epoch-wakeup).
    bool broken_spawn_gate = false;

    static Config FromSchedule(const Schedule& schedule);
  };

  explicit StealHarness(Config config);

  // Fresh machine + per-worker state; bodies for one controlled execution.
  // Bodies reach the driving Scheduler through ActiveScheduler().
  std::vector<std::function<void()>> MakeBodies();

  // A BodyFactory bound to this harness (convenience for the explorer).
  BodyFactory Factory();

  // Evaluates the mode's properties over the machine left by the execution
  // that MakeBodies() most recently fed.
  std::vector<PropertyReport> Evaluate(const ExecutionResult& result);

  static const PropertyReport* FirstViolation(const std::vector<PropertyReport>& reports);

  // Serializable identity of `choices` under this harness configuration.
  Schedule MakeSchedule(const std::vector<uint32_t>& choices) const;

  const Config& config() const { return config_; }
  uint32_t num_workers() const { return static_cast<uint32_t>(config_.initial_loads.size()); }
  // d over the seeded task counts; /2 bounds successful steals (§4.3).
  int64_t InitialPotential() const;

 private:
  void BalanceBody(uint32_t worker);
  void DrainBody(uint32_t worker);
  void EpochBody(uint32_t worker);
  // "ingress" mode: worker 0 produces into mailboxes, owners drain+execute.
  void ProducerBody();
  void IngressBody(uint32_t worker);
  // "wakeup" mode: the producer pairs every mailbox push with an epoch bump
  // (NotifyIngress); owners park on the epoch exactly like WorkerMain.
  void WakeupProducerBody();
  void WakeupWorkerBody(uint32_t worker);
  // "wakeup" mode, spawns > 0: worker 0 runs one item that spawns onto its
  // own queue and stays running until siblings have executed every child.
  void SpawnPhase();
  // "forkjoin" mode: pop/run task bodies (spawning onto the own queue),
  // steal when empty, exit when the graph is done or the budget is spent.
  void ForkJoinBody(uint32_t worker);
  void StealOnce(uint32_t worker, Rng& rng);

  Config config_;
  Topology topology_;
  std::shared_ptr<const BalancePolicy> policy_;
  std::unique_ptr<runtime::ConcurrentMachine> machine_;
  std::vector<runtime::StealCounters> counters_;
  std::vector<uint64_t> initial_item_ids_;
  // The escalation/wakeup epoch word for "epoch" and "wakeup" modes.
  std::uint64_t epoch_ = 0;
  // "wakeup" mode, spawns > 0: the executor's parked_workers_ and the
  // spawned children not yet executed (the spawning item waits on it).
  std::uint64_t parked_ = 0;
  std::uint64_t spawns_left_ = 0;
  uint64_t first_spawn_id_ = 0;
  // "wakeup" mode: set by the producer strictly after its last push, then
  // followed by one final epoch bump (the executor's quit-path ordering).
  bool producer_done_ = false;
  // "ingress" mode state, rebuilt per execution by MakeBodies.
  std::unique_ptr<ingress::MailboxSet> mailboxes_;
  uint64_t next_ingress_id_ = 0;
  // "forkjoin" mode state, rebuilt per execution by MakeBodies. The graph
  // runs the REAL src/task join protocol; only the spawn sink is replaced
  // (machine queues + Note hooks instead of Executor::SubmitFromWorker).
  std::unique_ptr<task::TaskGraph> task_graph_;
};

}  // namespace optsched::mc

#endif  // OPTSCHED_SRC_MC_HARNESS_H_
