#ifndef SURFER_RUNTIME_MACHINE_HOST_H_
#define SURFER_RUNTIME_MACHINE_HOST_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"
#include "obs/trace_shard.h"
#include "propagation/app_traits.h"
#include "propagation/config.h"
#include "propagation/partition_kernel.h"
#include "runtime/combine_plan.h"
#include "runtime/fault.h"
#include "runtime/stats.h"
#include "runtime/timeline.h"
#include "runtime/wire_batch.h"
#include "storage/partitioned_graph.h"

namespace surfer {
namespace runtime {

/// How a MachineHost reaches the rest of the cluster: bounded in-process
/// channels (threaded engine) or the TCP mesh (distributed worker).
///   - Send(batch) delivers a sealed, booked batch; returns seconds blocked.
///   - Pump() hands whatever has arrived to the host's Receive.
///   - TaskDone(p, m) reports partition p's task complete on machine m.
///   - Kill(m) takes machine m down at a fault point, after the host has
///     flushed m's completed-task output; it may return or end the process.
template <typename L>
concept MachineLink = requires(L& link, WireBatch batch, PartitionId p,
                               MachineId m) {
  { link.Send(std::move(batch)) } -> std::convertible_to<double>;
  link.Pump();
  link.TaskDone(p, m);
  link.Kill(m);
};

/// Per-partition state of one engine run: one per distributed worker, one
/// shared by all hosts of the threaded engine (inboxes[p] and plans[p] are
/// written by the host draining p's primary and consumed by p's Combine
/// executor across the stage barrier).
template <typename App>
struct PartitionTable {
  using Kernel = PartitionKernel<App>;
  using VertexState = typename App::VertexState;
  using VirtualOutput = typename Kernel::VirtualOutput;

  PartitionTable(const PartitionedGraph* g, std::vector<VertexState> init,
                 std::vector<MachineId> primary_of)
      : graph(g),
        primaries(std::move(primary_of)),
        states(std::move(init)),
        next_states(states),
        dirty(g->num_partitions(), 0),
        inboxes(g->num_partitions()),
        plans(g->num_partitions()),
        inbox_chunks(
            std::make_unique<std::atomic<uint64_t>[]>(g->num_partitions())),
        virtual_results(g->num_partitions()) {
    for (PartitionId p = 0; p < g->num_partitions(); ++p) {
      inbox_chunks[p].store(0, std::memory_order_relaxed);
    }
  }

  /// Moves every dirty partition's next_states range into states. What
  /// stays behind in next_states is stale, which is harmless: every writer
  /// (Combine, a replication update) overwrites a whole range before
  /// marking it.
  void Commit() {
    for (PartitionId p = 0; p < dirty.size(); ++p) {
      if (dirty[p]) {
        const PartitionMeta& meta = graph->partition(p);
        std::swap_ranges(next_states.begin() + meta.begin,
                         next_states.begin() + meta.end,
                         states.begin() + meta.begin);
        dirty[p] = 0;
      }
    }
  }

  const PartitionedGraph* graph;
  /// Each partition's primary machine: the threaded engine's Transfer
  /// route, and what a Combine elsewhere prices Appendix-B refetch against.
  std::vector<MachineId> primaries;
  /// Iteration-start states, read by every Transfer (also a recovery
  /// re-execution that runs after some Combines of the iteration).
  std::vector<VertexState> states;
  /// Combine output, committed at the iteration boundary.
  std::vector<VertexState> next_states;
  std::vector<uint8_t> dirty;
  std::vector<std::vector<typename Kernel::InboxChunk>> inboxes;
  std::vector<CombineScratch> plans;  ///< counts inboxes[p] as it fills
  /// inbox_chunks[p]: chunks in inboxes[p], a relaxed mirror a telemetry
  /// sampler may read while the hosts fill and drain the inboxes.
  std::unique_ptr<std::atomic<uint64_t>[]> inbox_chunks;
  /// The virtual outputs of partition p's latest Combine.
  std::vector<std::vector<std::pair<uint64_t, VirtualOutput>>> virtual_results;
};

/// The machines one thread (threaded engine) or one process (distributed
/// engine) runs, with everything around the partition kernel both engines
/// need: the machines' WireStagers and the kernel scratch, the stage round
/// with its kill points and flushes, send booking, and the receive path
/// that counts records into the combine plans as batches arrive. Task time
/// lands in the hosted machines' PhaseSeconds. Single-threaded: every
/// method runs on the owner's thread.
template <typename App>
  requires PropagationApp<App> && WireSerializableApp<App>
class MachineHost {
 public:
  using Kernel = PartitionKernel<App>;
  using Table = PartitionTable<App>;
  using Message = typename App::Message;

  /// What every host of one engine run shares.
  struct Env {
    const App* app = nullptr;
    PropagationConfig config;
    WireBatchOptions wire;
    const FaultController* fault = nullptr;
    WireBufferPool* pool = nullptr;  ///< thread-safe payload freelist
    Table* table = nullptr;
    uint32_t num_machines = 0;
    /// The run's origin (the time point its telemetry recorder starts
    /// from): superstep bounds are seconds since it.
    std::chrono::steady_clock::time_point origin;
  };

  /// Optional per-task trace spans, recorded into a lock-free shard.
  struct TaskTrace {
    const obs::Tracer* tracer = nullptr;
    obs::TraceShard* shard = nullptr;
    uint32_t transfer_name = 0;
    uint32_t combine_name = 0;
  };

  /// Hosts machines first, first + stride, ... below env.num_machines.
  MachineHost(Env env, MachineId first, uint32_t stride, TaskTrace trace = {})
      : env_(std::move(env)),
        kernel_(*env_.app, *env_.table->graph),
        gated_(Kernel::Gated(env_.config)),
        slot_of_(env_.num_machines, kNotHosted),
        trace_(trace) {
    for (MachineId m = first; m < env_.num_machines; m += stride) {
      slot_of_[m] = static_cast<uint32_t>(hosted_.size());
      hosted_.push_back(m);
      stagers_.push_back(MakeStager(m));
    }
    tasks_done_.assign(hosted_.size(), 0);
    phases_.assign(static_cast<size_t>(env_.config.iterations) * 2,
                   std::vector<PhaseSeconds>(hosted_.size()));
    bounds_.assign(phases_.size(), {0.0, 0.0});
    link_bytes_.assign(
        static_cast<size_t>(env_.num_machines) * env_.num_machines, 0);
  }

  const std::vector<MachineId>& hosted() const { return hosted_; }

  /// Superstep index in execution order: two stages per BSP iteration.
  static size_t StepIndex(int iteration, RuntimeStage stage) {
    return static_cast<size_t>(iteration) * 2 + static_cast<size_t>(stage);
  }

  /// A stager for machine m. Wire combination needs the job's local
  /// combination, a mergeable app and the wire toggle.
  WireStager<App> MakeStager(MachineId m) const {
    const bool wire_combine = env_.config.local_combination &&
                              MergeableApp<App> && env_.wire.wire_combine;
    return WireStager<App>(env_.app, env_.wire, env_.pool, m,
                           env_.num_machines, wire_combine);
  }

  /// Books received bytes and task time to superstep (iteration, stage)
  /// from now on, 0 <= iteration < config.iterations; the first entry
  /// stamps the step's start. The per-machine task counts fault plans
  /// trigger on restart with each new superstep, not with each recovery
  /// round.
  void SetStep(int iteration, RuntimeStage stage) {
    const size_t step = StepIndex(iteration, stage);
    if (step != step_) {
      step_ = step;
      std::fill(tasks_done_.begin(), tasks_done_.end(), 0u);
    }
    if (bounds_[step].first == 0.0) {
      bounds_[step].first = Seconds(Clock::now() - env_.origin);
    }
  }

  /// One round of a stage: each hosted machine m runs the tasks of the
  /// partitions p with exec[p] == m, ascending; Transfer sends traffic for
  /// partition d to route[d]. A fault plan may kill m before a task. After
  /// each task: TaskDone, a deadline flush (Transfer), a pump. A Transfer
  /// round ends with every batch on the wire.
  template <typename Link>
    requires MachineLink<Link>
  void RunRound(Link& link, int iteration, RuntimeStage stage, bool recovery,
                const std::vector<MachineId>& exec,
                const std::vector<MachineId>& route) {
    SetStep(iteration, stage);
    const bool transfer = stage == RuntimeStage::kTransfer;
    auto ship = [&](WireBatch&& batch) {
      return Ship(link, std::move(batch));
    };
    for (uint32_t slot = 0; slot < hosted_.size(); ++slot) {
      const MachineId m = hosted_[slot];
      PhaseSeconds& phase = phases_[step_][slot];
      bool killed = false;
      for (PartitionId p = 0; p < exec.size(); ++p) {
        if (exec[p] != m) {
          continue;
        }
        if (env_.fault->ShouldKill(m, iteration, stage, tasks_done_[slot])) {
          // A completed task's output survives the crash (its disk
          // replicas do, Appendix B), so it ships before m goes down.
          if (transfer) {
            phase.blocked_s += stagers_[slot].FlushAll(ship);
          }
          link.Kill(m);
          killed = true;
          break;
        }
        if (transfer) {
          TransferTask(p, slot, route, ship);
        } else {
          CombineTask(p, slot);
        }
        ++tasks_done_[slot];
        ++counters_.tasks_executed;
        if (recovery) {
          ++counters_.tasks_reexecuted;
        }
        link.TaskDone(p, m);
        if (transfer) {
          // Ship batches whose flush deadline lapsed while the task ran, so
          // a quiet destination is not held hostage to the stage end.
          phase.blocked_s += stagers_[slot].FlushExpired(ship);
        }
        link.Pump();
      }
      if (transfer && !killed) {
        // Stage-end flush: every batch is on the wire before the round ends.
        phase.blocked_s += stagers_[slot].FlushAll(ship);
      }
    }
  }

  /// Decodes a batch for a hosted machine into inbox chunks, counting each
  /// real record into its partition's plan (order-independent; Regroup's
  /// sorted placement fixes the order). Unpack time and wire bytes book to
  /// the receiver. The payload stays the caller's. Corruption when the
  /// batch names a machine not hosted here or fails to decode.
  Status Receive(const WireBatch& batch) {
    if (batch.dst_machine >= slot_of_.size() ||
        slot_of_[batch.dst_machine] == kNotHosted) {
      return Status::Corruption("wire batch for machine " +
                                std::to_string(batch.dst_machine) +
                                ", which this host does not run");
    }
    const auto start = Clock::now();
    Table& table = *env_.table;
    WireBatchReader<Message> reader(batch);
    const Status status = kernel_.Decode(
        reader, batch.src_machine, chunk_pool_,
        [&](PartitionId dst, typename Kernel::InboxChunk&& chunk) {
          CombineScratch& plan = table.plans[dst];
          if (!plan.active()) {
            const PartitionMeta& meta = table.graph->partition(dst);
            plan.BeginRange(meta.begin, meta.end);
          }
          for (const auto& record : chunk.real) {
            plan.Count(record.first);
          }
          table.inbox_chunks[dst].fetch_add(1, std::memory_order_relaxed);
          table.inboxes[dst].push_back(std::move(chunk));
        });
    PhaseSeconds& phase = phases_[step_][slot_of_[batch.dst_machine]];
    phase.serialize_s += Seconds(Clock::now() - start);
    phase.wire_bytes += static_cast<double>(batch.wire_size());
    return status;
  }

  /// Drops partition p's inbox together with the counts its plan holds.
  void ClearInbox(PartitionId p) {
    Table& table = *env_.table;
    chunk_pool_.Recycle(table.inboxes[p]);
    table.inbox_chunks[p].store(0, std::memory_order_relaxed);
    table.plans[p].Reset();
  }

  /// Partition q's Transfer into the host's streams, for recovery paths
  /// that stage them their own way.
  typename Kernel::Streams& Transfer(PartitionId q) {
    kernel_.RunTransfer(q, env_.table->states, streams_);
    return streams_;
  }

  /// Books idle seconds (barrier wait) against the hosted machines at
  /// (iteration, stage), split evenly among them, once a round of that
  /// step has passed its barrier; stamps the step's end.
  void AddIdle(int iteration, RuntimeStage stage, double seconds) {
    const size_t step = StepIndex(iteration, stage);
    for (PhaseSeconds& phase : phases_[step]) {
      phase.barrier_s += seconds / static_cast<double>(hosted_.size());
    }
    bounds_[step].second = Seconds(Clock::now() - env_.origin);
  }

  /// Payload bytes sitting in the stagers' open batches.
  size_t OpenBytes() const {
    size_t total = 0;
    for (const WireStager<App>& stager : stagers_) {
      total += stager.OpenBytes();
    }
    return total;
  }

  /// Adds the host's counters, its stagers' wire counters and its link
  /// bytes into an engine's stats record (RuntimeStats or the distributed
  /// WorkerStatsMsg), whose link_bytes is already sized M x M.
  template <typename Stats>
  void FoldCounters(Stats& out) const {
    out.Add(counters_);
    for (const WireStager<App>& stager : stagers_) {
      AccumulateStagerStats(stager.stats(), out);
    }
    out.combine_scatter_seconds += scatter_seconds_;
    for (size_t i = 0; i < link_bytes_.size(); ++i) {
      out.link_bytes[i] += link_bytes_[i];
    }
  }

  /// Adds the hosted machines' phases into `timeline` (one profile per
  /// superstep, one PhaseSeconds per machine; created on first use) and
  /// widens each step's bounds to cover this host's (0 = not stamped).
  void FoldTimeline(std::vector<SuperstepProfile>& timeline) const {
    timeline.resize(phases_.size());
    for (size_t step = 0; step < phases_.size(); ++step) {
      SuperstepProfile& profile = timeline[step];
      profile.iteration = static_cast<int>(step / 2);
      profile.stage =
          step % 2 == 0 ? RuntimeStage::kTransfer : RuntimeStage::kCombine;
      const auto [start_s, end_s] = bounds_[step];
      if (start_s > 0.0 &&
          (profile.start_s == 0.0 || start_s < profile.start_s)) {
        profile.start_s = start_s;
      }
      profile.end_s = std::max(profile.end_s, end_s);
      profile.machines.resize(env_.num_machines);
      for (uint32_t slot = 0; slot < hosted_.size(); ++slot) {
        profile.machines[hosted_[slot]].MergeFrom(phases_[step][slot]);
      }
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr uint32_t kNotHosted = 0xFFFFFFFFu;

  static double Seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  /// Books a sealed batch against its link, then hands it to the link.
  template <typename Link>
  double Ship(Link& link, WireBatch&& batch) {
    link_bytes_[static_cast<size_t>(batch.src_machine) * env_.num_machines +
                batch.dst_machine] += batch.priced_bytes;
    counters_.messages_sent += batch.num_messages;
    ++counters_.buffers_sent;
    return link.Send(std::move(batch));
  }

  double TraceStart() const {
    return trace_.shard != nullptr ? trace_.tracer->WallNowUs() : 0.0;
  }

  void TraceEnd(uint32_t name, MachineId m, double start_us, PartitionId p) {
    if (trace_.shard != nullptr) {
      trace_.shard->Record(obs::ShardEvent{
          name, m, start_us, trace_.tracer->WallNowUs() - start_us, p});
    }
  }

  /// Transfer: the kernel routes emissions into per-destination streams;
  /// the stager merges, prices and serializes each, shipping as it fills.
  template <typename ShipFn>
  void TransferTask(PartitionId p, uint32_t slot,
                    const std::vector<MachineId>& route, ShipFn& ship) {
    const double start_us = TraceStart();
    const auto compute_start = Clock::now();
    kernel_.RunTransfer(p, env_.table->states, streams_);
    const auto serialize_start = Clock::now();
    const double blocked_s = stagers_[slot].StageStreams(
        p, streams_, [&](PartitionId dst) { return route[dst]; }, ship);
    const auto end = Clock::now();
    PhaseSeconds& phase = phases_[step_][slot];
    phase.compute_s += Seconds(serialize_start - compute_start);
    phase.serialize_s += Seconds(end - serialize_start) - blocked_s;
    phase.blocked_s += blocked_s;
    TraceEnd(trace_.transfer_name, hosted_[slot], start_us, p);
  }

  /// Combine: regroups the counted inbox (serialize time), then combines
  /// p's range of next_states, seeded from states, and folds the virtual
  /// groups (compute time).
  void CombineTask(PartitionId p, uint32_t slot) {
    const double start_us = TraceStart();
    const auto regroup_start = Clock::now();
    Table& table = *env_.table;
    CombineScratch& plan = table.plans[p];
    const auto inbox =
        kernel_.Regroup(p, hosted_[slot], table.primaries[p], plan,
                        table.inboxes[p], chunk_pool_, combine_);
    counters_.refetch_bytes += inbox.refetch_bytes;
    scatter_seconds_ += inbox.scatter_seconds;
    counters_.combine_messages_scattered += inbox.scattered;
    table.inbox_chunks[p].store(0, std::memory_order_relaxed);

    const auto compute_start = Clock::now();
    const PartitionMeta& meta = table.graph->partition(p);
    std::copy(table.states.begin() + meta.begin,
              table.states.begin() + meta.end,
              table.next_states.begin() + meta.begin);
    const uint64_t skipped =
        kernel_.RunCombine(p, gated_, plan, combine_, table.next_states);
    counters_.frontier_vertices_skipped += skipped;
    table.dirty[p] = 1;
    table.virtual_results[p].clear();
    kernel_.FoldVirtuals(combine_, table.virtual_results[p]);

    const auto end = Clock::now();
    PhaseSeconds& phase = phases_[step_][slot];
    phase.serialize_s += Seconds(compute_start - regroup_start);
    phase.compute_s += Seconds(end - compute_start);
    phase.scatter_messages += static_cast<double>(inbox.scattered);
    phase.frontier_skipped += static_cast<double>(skipped);
    TraceEnd(trace_.combine_name, hosted_[slot], start_us, p);
  }

  Env env_;
  Kernel kernel_;
  bool gated_;
  std::vector<MachineId> hosted_;
  std::vector<uint32_t> slot_of_;  ///< machine -> index in hosted_
  std::vector<WireStager<App>> stagers_;  ///< per hosted machine
  typename Kernel::Streams streams_;
  typename Kernel::CombineBuffers combine_;
  typename Kernel::ChunkPool chunk_pool_;
  std::vector<uint32_t> tasks_done_;  ///< per hosted machine, this step
  size_t step_ = 0;
  /// phases_[step][slot]: hosted machine `slot`'s time in that superstep.
  std::vector<std::vector<PhaseSeconds>> phases_;
  /// bounds_[step]: (start_s, end_s) since env_.origin; 0 = not stamped.
  std::vector<std::pair<double, double>> bounds_;
  EngineCounters counters_;
  double scatter_seconds_ = 0.0;
  std::vector<uint64_t> link_bytes_;  ///< row-major M x M priced bytes sent
  TaskTrace trace_;
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_MACHINE_HOST_H_
