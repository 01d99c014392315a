// Timing decorators for the traced run of the optsched benchmark.
//
// Each decorator wraps one public seam of the library and forwards every
// call unchanged; around the call it counts, times and records a span into
// the calling worker's lane. Lanes are indexed by worker (the generator
// thread gets the lane after the last worker), so every lane has exactly one
// writer while a run is in flight and is read only after the run has joined.
//
//   CountingPolicy  BalancePolicy   filter/choice call counts per worker
//   TimedRunner     TaskRunner      task.run spans (TaskGraph execution)
//   TimedSource     IngressSource   ingress.drain spans (MailboxSet::Drain)
//
// IngressRouter::Offer is concrete, so the generator times it in place.

#ifndef OPTSCHED_PERFBENCH_CPP_SEAMS_H_
#define OPTSCHED_PERFBENCH_CPP_SEAMS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/runtime/executor.h"
#include "src/runtime/ingress_source.h"
#include "src/runtime/work_item.h"
#include "src/task/task.h"

namespace optbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Log-linear histogram: 64 linear sub-buckets per power of two, so a
// percentile is resolved to within 1/64 of its octave (the library's
// LogHistogram resolves only to the octave).
class FineHist {
 public:
  void Add(uint64_t v) {
    ++counts_[Index(v)];
    ++total_;
  }
  void Merge(const FineHist& other) {
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }
  // Interpolated within the bucket; q in [0, 1]. 0 when empty.
  double Percentile(double q) const {
    if (total_ == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(total_);
    double cumulative = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      const double next = cumulative + static_cast<double>(counts_[i]);
      if (counts_[i] > 0 && next >= target) {
        const double within = (target - cumulative) / static_cast<double>(counts_[i]);
        return Lower(i) + within * Width(i);
      }
      cumulative = next;
    }
    return Lower(counts_.size() - 1);
  }

 private:
  static constexpr uint64_t kSubBits = 6;
  static constexpr uint64_t kSub = 1u << kSubBits;

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    const uint64_t shift = static_cast<uint64_t>(63 - __builtin_clzll(v)) - kSubBits;
    return static_cast<size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  static double Lower(size_t i) {
    if (i < kSub) {
      return static_cast<double>(i);
    }
    const uint64_t shift = i / kSub - 1;
    return static_cast<double>((kSub + i % kSub) << shift);
  }
  static double Width(size_t i) {
    return i < kSub ? 1.0 : static_cast<double>(uint64_t{1} << (i / kSub - 1));
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(64 * kSub, 0);
  uint64_t total_ = 0;
};

// One recorded span, or one end of a flow arrow linking an offered item to
// the drain that moved it (Chrome trace "s"/"f" events share the item id).
struct Span {
  enum Kind : uint8_t { kSlice, kFlowStart, kFlowEnd };
  const char* name = "";
  Kind kind = kSlice;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;      // item id (task arena index + 1, or serve item id)
  uint64_t parent = 0;  // causing span's id; 0 = none
  uint32_t count = 0;   // items covered (drains)
};

struct alignas(64) Lane {
  // CountingPolicy
  uint64_t cansteal_calls = 0;
  uint64_t select_calls = 0;
  // TimedRunner
  uint64_t task_runs = 0;
  uint64_t task_busy_ns = 0;
  FineHist task_run_ns;
  // TimedSource
  uint64_t drain_calls = 0;
  uint64_t drain_empty = 0;
  uint64_t drain_items = 0;
  FineHist drain_ns;
  FineHist mailbox_wait_ns;
  // Generator lane: IngressRouter::Offer
  FineHist offer_ns;
  // Spans kept in memory until the run ends; past the cap they are counted.
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;

  void Record(const Span& span) {
    if (spans.size() < spans.capacity()) {
      spans.push_back(span);
    } else {
      ++spans_dropped;
    }
  }
};

// The lanes of one traced run: lanes[0..workers) plus one generator lane.
class Lanes {
 public:
  Lanes(uint32_t workers, size_t span_cap_per_lane) : lanes_(workers + 1) {
    for (Lane& lane : lanes_) {
      lane.spans.reserve(span_cap_per_lane);
    }
  }
  Lane& worker(uint32_t w) { return lanes_[w]; }
  Lane& generator() { return lanes_.back(); }
  size_t size() const { return lanes_.size(); }
  Lane& operator[](size_t i) { return lanes_[i]; }
  const Lane& operator[](size_t i) const { return lanes_[i]; }

 private:
  std::vector<Lane> lanes_;
};

class CountingPolicy final : public optsched::BalancePolicy {
 public:
  CountingPolicy(std::shared_ptr<const optsched::BalancePolicy> inner, Lanes& lanes)
      : inner_(std::move(inner)), lanes_(lanes) {}

  std::string name() const override { return inner_->name(); }
  optsched::LoadMetric metric() const override { return inner_->metric(); }
  bool CanSteal(const optsched::SelectionView& view, optsched::CpuId stealee) const override {
    ++lanes_.worker(view.self).cansteal_calls;
    return inner_->CanSteal(view, stealee);
  }
  optsched::CpuId SelectCore(const optsched::SelectionView& view,
                             const std::vector<optsched::CpuId>& candidates,
                             optsched::Rng& rng) const override {
    ++lanes_.worker(view.self).select_calls;
    return inner_->SelectCore(view, candidates, rng);
  }
  bool ShouldMigrate(int64_t task_weight, int64_t victim_load,
                     int64_t thief_load) const override {
    return inner_->ShouldMigrate(task_weight, victim_load, thief_load);
  }
  uint32_t StealBatchHint(int64_t victim_load, int64_t thief_load) const override {
    return inner_->StealBatchHint(victim_load, thief_load);
  }

 private:
  std::shared_ptr<const optsched::BalancePolicy> inner_;
  Lanes& lanes_;
};

class TimedRunner final : public optsched::runtime::TaskRunner {
 public:
  TimedRunner(optsched::task::TaskGraph& inner, Lanes& lanes) : inner_(inner), lanes_(lanes) {}

  void RunItem(const optsched::runtime::WorkItem& item, optsched::runtime::Executor& executor,
               uint32_t worker) override {
    // The span's parent is the join node the task completes into
    // (TaskNode::parent): the continuation its forking task created. Arena
    // nodes are contiguous and item ids are arena index + 1, so the parent's
    // id follows from the pointer distance.
    const auto* node = reinterpret_cast<const optsched::task::TaskNode*>(item.task);
    const uint64_t parent =
        node->parent == nullptr
            ? 0
            : static_cast<uint64_t>(static_cast<int64_t>(item.id) + (node->parent - node));
    const uint64_t start = NowNs();
    inner_.RunItem(item, executor, worker);
    const uint64_t end = NowNs();
    Lane& lane = lanes_.worker(worker);
    ++lane.task_runs;
    lane.task_busy_ns += end - start;
    lane.task_run_ns.Add(end - start);
    lane.Record({.name = "task.run", .start_ns = start, .end_ns = end, .id = item.id,
                 .parent = parent});
  }
  int64_t OutstandingFor(uint32_t worker) const override { return inner_.OutstandingFor(worker); }

 private:
  optsched::task::TaskGraph& inner_;
  Lanes& lanes_;
};

class TimedSource final : public optsched::runtime::IngressSource {
 public:
  TimedSource(optsched::runtime::IngressSource& inner, Lanes& lanes)
      : inner_(inner), lanes_(lanes) {}

  uint32_t Drain(uint32_t worker, std::vector<optsched::runtime::WorkItem>& out,
                 uint32_t max_items) override {
    const size_t first = out.size();
    const uint64_t start = NowNs();
    const uint32_t moved = inner_.Drain(worker, out, max_items);
    const uint64_t end = NowNs();
    Lane& lane = lanes_.worker(worker);
    ++lane.drain_calls;
    lane.drain_empty += moved == 0 ? 1 : 0;
    lane.drain_items += moved;
    lane.drain_ns.Add(end - start);
    lane.Record({.name = "ingress.drain", .start_ns = start, .end_ns = end,
                 .id = moved > 0 ? out[first].id : 0, .count = moved});
    for (size_t i = first; i < first + moved; ++i) {
      const uint64_t arrival = out[i].arrival_ns;
      lane.mailbox_wait_ns.Add(end > arrival ? end - arrival : 0);
      lane.Record({.name = "ingress.drain", .kind = Span::kFlowEnd, .start_ns = end,
                   .end_ns = end, .id = out[i].id});
    }
    return moved;
  }
  int64_t PendingFor(uint32_t worker) const override { return inner_.PendingFor(worker); }

 private:
  optsched::runtime::IngressSource& inner_;
  Lanes& lanes_;
};

}  // namespace optbench

#endif  // OPTSCHED_PERFBENCH_CPP_SEAMS_H_
