#ifndef SURFER_RUNTIME_EXECUTOR_H_
#define SURFER_RUNTIME_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/logging.h"
#include "common/result.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_shard.h"
#include "propagation/app_traits.h"
#include "propagation/config.h"
#include "propagation/partition_kernel.h"
#include "runtime/barrier.h"
#include "runtime/channel.h"
#include "runtime/channel_plan.h"
#include "runtime/fault.h"
#include "runtime/machine_host.h"
#include "runtime/stats.h"
#include "runtime/timeline.h"
#include "runtime/wire_batch.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {
namespace runtime {

/// Knobs of the concurrent runtime. Observability hooks come from the
/// PropagationConfig so runner and runtime share one configuration surface.
struct RuntimeOptions {
  /// Default admission window; named so EngineOptions::Validate can tell
  /// "left at default" apart from "deliberately configured".
  static constexpr size_t kDefaultChannelWindowBytes = 256 << 10;

  /// Worker threads; 0 means one per simulated machine. With fewer workers
  /// than machines, machine m is owned by worker (m % num_workers).
  uint32_t max_workers = 0;
  /// Bytes-in-flight granted to the widest topology link's channel; narrower
  /// links are scaled down proportionally (see PlanChannelCapacities), so
  /// cross-pod links backpressure sooner at equal traffic. Channels weigh
  /// each WireBatch by its wire size; a batch larger than the whole window
  /// is still admitted once the queue is empty (progress guarantee), so a
  /// tiny window maximizes backpressure without deadlocking.
  size_t channel_window_bytes = kDefaultChannelWindowBytes;
  /// Wire-plane staging knobs: batch size cap, flush deadline, and the
  /// wire-level local combination toggle (see WireBatchOptions).
  WireBatchOptions wire;
  /// Flight-recorder sampling of runtime gauges (channel occupancy, pool
  /// pressure, barrier membership, RSS): off by default. The instrumented
  /// hot paths only ever update relaxed atomics — one store per batch-level
  /// event, never per message — whether or not the sampler runs; enabling
  /// telemetry only starts the background sampling thread.
  obs::TelemetryOptions telemetry;
  /// Machines to kill mid-stage (Appendix-B recovery drills).
  std::vector<RuntimeFaultPlan> faults;
};

/// Concurrent BSP executor for propagation apps: the wall-clock counterpart
/// of the analytic PropagationRunner.
///
/// Each worker thread is one MachineHost (runtime/machine_host.h) for the
/// machines m with m % num_workers == w: the host runs their Transfer and
/// Combine tasks, stages their WireBatches and counts arrivals into the
/// shared PartitionTable. This class adds the in-process Link — bounded
/// channels whose byte capacities mirror the topology's bandwidth matrix —
/// and the main-thread scheduler with its three barriers per stage round.
/// The contract, asserted by tests/runtime_test.cc, is *bit-identical*
/// results to the sequential runner at every optimization level: the
/// per-partition work is the shared PartitionKernel, whose header gives the
/// ordering argument, and the channels are FIFO. Cascaded propagation and
/// memory limits change the *accounted* cost only, so the runtime ignores
/// them.
///
/// Fault injection follows Appendix B at task granularity: a machine killed
/// mid-stage keeps the buffers of tasks it completed (its disk replicas
/// survive), while its unfinished tasks are re-assigned to the next alive
/// replica holder on the following round. Inboxes live in shared memory and
/// survive the death, so re-executed Combine tasks re-fetch their remote
/// inputs (counted in RuntimeStats::refetch_bytes). Dead machines' worker
/// threads stay up purely to drain their inbound channels, so senders never
/// deadlock against a corpse.
template <typename App>
  requires PropagationApp<App> && WireSerializableApp<App>
class RuntimeExecutor {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  RuntimeExecutor(const PartitionedGraph* graph,
                  const ReplicatedPlacement* placement,
                  const Topology* topology, App app, PropagationConfig config,
                  RuntimeOptions options = {})
      : graph_(graph),
        placement_(placement),
        topology_(topology),
        app_(std::move(app)),
        config_(config),
        options_(options),
        fault_(options.faults) {}

  /// Executes config.iterations supersteps. Fails when every replica of a
  /// partition is dead (the job is unrecoverable, as in Appendix B).
  Status Run() {
    SURFER_RETURN_IF_ERROR(
        Kernel::Validate(graph_, placement_, topology_, config_));
    const auto wall_start = std::chrono::steady_clock::now();
    // Tracer time at the run's start instant: the offset that maps the
    // flight recorder's run-relative timestamps onto the tracer's origin
    // when counter events merge into the Chrome trace.
    const double wall_start_tracer_us =
        config_.tracer != nullptr ? config_.tracer->WallNowUs() : 0.0;
    virtual_outputs_.clear();
    stats_ = RuntimeStats{};

    const uint32_t num_machines = topology_->num_machines();
    const uint32_t num_workers =
        options_.max_workers == 0
            ? num_machines
            : std::min(options_.max_workers, num_machines);
    num_machines_ = num_machines;
    num_workers_ = num_workers;

    const size_t num_channels = static_cast<size_t>(num_machines) * num_machines;
    const std::vector<size_t> capacities =
        PlanChannelCapacities(*topology_, options_.channel_window_bytes);
    channels_.clear();
    channels_.reserve(num_channels);
    for (size_t i = 0; i < num_channels; ++i) {
      channels_.push_back(
          std::make_unique<BoundedChannel<WireBatch>>(capacities[i]));
    }
    // One pool for every host: a payload is acquired by its sender's host
    // and released by its receiver's.
    pool_ = std::make_unique<WireBufferPool>();

    const uint32_t num_partitions = graph_->num_partitions();
    std::vector<MachineId> primaries(num_partitions);
    for (PartitionId p = 0; p < num_partitions; ++p) {
      primaries[p] = placement_->primary(p);
    }
    table_ = std::make_unique<PartitionTable<App>>(
        graph_, Kernel(app_, *graph_).InitStates(), std::move(primaries));
    done_.assign(num_partitions, 0);
    alive_.assign(num_machines, 1);
    locals_.assign(num_workers + 1, WorkerLocal{});
    barrier_ = std::make_unique<BspBarrier>(num_workers + 1);
    phase_ = Phase{};

    // Telemetry mirrors live whether or not the sampler runs: each is one
    // relaxed atomic touched at batch granularity, so keeping them
    // unconditional avoids a branch on the same paths. (The per-partition
    // inbox chunk counts live in the table, next to the inboxes.)
    sent_wire_bytes_ = std::make_unique<std::atomic<uint64_t>[]>(num_machines);
    for (MachineId m = 0; m < num_machines; ++m) {
      sent_wire_bytes_[m].store(0, std::memory_order_relaxed);
    }
    worker_state_ = std::make_unique<std::atomic<uint32_t>[]>(num_workers);
    for (uint32_t w = 0; w < num_workers; ++w) {
      worker_state_[w].store(0, std::memory_order_relaxed);
    }
    sharded_.reset();
    uint32_t transfer_name = 0;
    uint32_t combine_name = 0;
    if (config_.tracer != nullptr && obs::Tracer::CompiledIn()) {
      sharded_ = std::make_unique<obs::ShardedTracer>(config_.tracer,
                                                      num_workers);
      transfer_name =
          sharded_->InternName("rt_task_transfer", "runtime", "partition");
      combine_name =
          sharded_->InternName("rt_task_combine", "runtime", "partition");
    }

    const typename Host::Env env{.app = &app_,
                                 .config = config_,
                                 .wire = options_.wire,
                                 .fault = &fault_,
                                 .pool = pool_.get(),
                                 .table = table_.get(),
                                 .num_machines = num_machines,
                                 .origin = wall_start};
    hosts_.clear();
    hosts_.reserve(num_workers);
    for (uint32_t w = 0; w < num_workers; ++w) {
      typename Host::TaskTrace trace;
      if (sharded_ != nullptr) {
        trace = {config_.tracer, &sharded_->shard(w), transfer_name,
                 combine_name};
      }
      hosts_.push_back(std::make_unique<Host>(env, w, num_workers, trace));
    }

    telemetry_ = std::make_unique<obs::TelemetryRecorder>(options_.telemetry);
    if (options_.telemetry.enabled) {
      RegisterTelemetryGauges();
    }
    telemetry_->Start(wall_start);

    std::vector<std::thread> workers;
    workers.reserve(num_workers);
    for (uint32_t w = 0; w < num_workers; ++w) {
      workers.emplace_back([this, w] { WorkerMain(w); });
    }

    Status status = Status::OK();
    for (int iteration = 0; iteration < config_.iterations; ++iteration) {
      if constexpr (IterationAwareApp<App>) {
        app_.OnIterationStart(iteration);
      }
      status = RunStage(RuntimeStage::kTransfer, iteration);
      if (!status.ok()) {
        break;
      }
      status = RunStage(RuntimeStage::kCombine, iteration);
      if (!status.ok()) {
        break;
      }
      table_->Commit();
      // Flush point: workers are parked at the next start barrier, so their
      // shards only grow while we drain (SPSC-safe either way). One flush
      // per iteration keeps ring occupancy bounded without touching the
      // global tracer mutex from the hot path.
      if (sharded_ != nullptr) {
        sharded_->Flush();
      }
      // Fold this iteration's virtual-vertex outputs in partition order,
      // exactly as the sequential runner does at the end of RunIteration.
      if constexpr (VirtualVertexApp<App>) {
        for (auto& per_partition : table_->virtual_results) {
          for (auto& [id, output] : per_partition) {
            virtual_outputs_[id] = std::move(output);
          }
          per_partition.clear();
        }
      }
    }

    // Publish the shutdown phase whether or not the run succeeded; workers
    // are all parked at the start barrier by construction.
    phase_.shutdown = true;
    MainBarrier();
    for (std::thread& t : workers) {
      t.join();
    }
    if (sharded_ != nullptr) {
      sharded_->Flush();
    }
    // The sampler must stop before stats finalization tears anything down:
    // its providers read the channels, pool, and barrier it outlives here.
    telemetry_->Stop();
    if (config_.tracer != nullptr) {
      telemetry_->ExportCounterEvents(config_.tracer, wall_start_tracer_us);
    }
    stats_.wall_seconds = SecondsSince(wall_start);
    FinalizeStats();
    return status;
  }

  /// Final states after a successful Run (empty before the first Run).
  const std::vector<VertexState>& states() const {
    static const std::vector<VertexState> kNone;
    return table_ != nullptr ? table_->states : kNone;
  }

  const std::map<uint64_t, VirtualOutput>& virtual_outputs() const {
    return virtual_outputs_;
  }

  const RuntimeStats& stats() const { return stats_; }

  /// The run's flight recorder (null before the first Run call; inert when
  /// RuntimeOptions::telemetry is off). Valid until the next Run call.
  const obs::TelemetryRecorder* telemetry() const { return telemetry_.get(); }

  /// Machine liveness after the run (all ones without injected faults).
  const std::vector<uint8_t>& alive() const { return alive_; }

 private:
  using Kernel = PartitionKernel<App>;
  using Host = MachineHost<App>;

  /// One stage round published by the main thread before the start barrier;
  /// workers read it (immutably) after the barrier releases them.
  struct Phase {
    bool shutdown = false;
    RuntimeStage stage = RuntimeStage::kTransfer;
    int iteration = 0;
    bool recovery = false;
    /// exec[p]: the machine running p's task this round, or kInvalidMachine.
    std::vector<MachineId> exec;
  };

  /// Per-thread tallies the hosts do not keep, merged after the join.
  struct WorkerLocal {
    uint32_t machine_failures = 0;
    double barrier_wait_seconds = 0.0;
    Histogram barrier_wait;
  };

  /// Worker w's Link: the bounded channels between machines.
  struct ChannelLink {
    RuntimeExecutor* executor;
    uint32_t w;

    double Send(WireBatch&& batch) {
      return executor->SendBatch(std::move(batch), w);
    }
    void Pump() { executor->Drain(w); }
    void TaskDone(PartitionId p, MachineId) { executor->done_[p] = 1; }
    /// Marks m dead; its worker keeps draining m's inbound channels.
    void Kill(MachineId m) {
      executor->alive_[m] = 0;
      ++executor->locals_[w].machine_failures;
      if (obs::Tracer* tracer = executor->config_.tracer) {
        tracer->RecordInstant(obs::TraceClock::kWall, "rt_machine_failed",
                              "runtime", tracer->WallNowUs(),
                              obs::Tracer::CurrentThreadLane(),
                              {{"machine", std::to_string(m)}});
      }
    }
  };

  double MainBarrier() { return barrier_->ArriveAndWait(); }

  static double SecondsSince(std::chrono::steady_clock::time_point start) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(elapsed).count();
  }

  /// Attaches the runtime's gauge providers to the flight recorder. Every
  /// provider reads only relaxed atomics (the mirrors maintained next to
  /// the mutex-protected structures), so sampling never contends with the
  /// run. Per-entity series are registered up to a small fan-out cap and
  /// fall back to aggregates beyond it — M^2 channel series at large M
  /// would dominate the recorder's own memory; all-zero series are elided
  /// at export either way.
  void RegisterTelemetryGauges() {
    constexpr uint32_t kPerEntityCap = 8;
    const std::vector<size_t> capacities =
        PlanChannelCapacities(*topology_, options_.channel_window_bytes);
    double total_capacity = 0.0;
    for (size_t c : capacities) {
      total_capacity += static_cast<double>(c);
    }
    if (num_machines_ <= kPerEntityCap) {
      for (MachineId s = 0; s < num_machines_; ++s) {
        for (MachineId d = 0; d < num_machines_; ++d) {
          const size_t i = static_cast<size_t>(s) * num_machines_ + d;
          BoundedChannel<WireBatch>* ch = channels_[i].get();
          telemetry_->RegisterGauge(
              "rt_channel_bytes_in_flight.m" + std::to_string(s) + ".m" +
                  std::to_string(d),
              "bytes",
              [ch] { return static_cast<double>(ch->ApproxQueuedWeight()); },
              static_cast<double>(capacities[i]));
        }
      }
    }
    telemetry_->RegisterGauge(
        "rt_channel_bytes_in_flight.total", "bytes",
        [this] {
          double total = 0.0;
          for (const auto& ch : channels_) {
            total += static_cast<double>(ch->ApproxQueuedWeight());
          }
          return total;
        },
        total_capacity);
    telemetry_->RegisterGauge("rt_channel_queued_batches.total", "batches",
                              [this] {
                                double total = 0.0;
                                for (const auto& ch : channels_) {
                                  total += static_cast<double>(
                                      ch->ApproxDepth());
                                }
                                return total;
                              });
    if (num_machines_ <= kPerEntityCap) {
      for (MachineId m = 0; m < num_machines_; ++m) {
        std::atomic<uint64_t>* sent = &sent_wire_bytes_[m];
        telemetry_->RegisterGauge(
            "rt_sent_wire_bytes.m" + std::to_string(m), "bytes", [sent] {
              return static_cast<double>(
                  sent->load(std::memory_order_relaxed));
            });
      }
    }
    telemetry_->RegisterGauge("rt_sent_wire_bytes.total", "bytes", [this] {
      double total = 0.0;
      for (MachineId m = 0; m < num_machines_; ++m) {
        total += static_cast<double>(
            sent_wire_bytes_[m].load(std::memory_order_relaxed));
      }
      return total;
    });
    WireBufferPool* pool = pool_.get();
    telemetry_->RegisterGauge("rt_pool_free_buffers", "buffers", [pool] {
      return static_cast<double>(pool->ApproxFreeBuffers());
    });
    telemetry_->RegisterGauge(
        "rt_pool_outstanding_buffers", "buffers", [pool] {
          return static_cast<double>(pool->ApproxOutstandingBuffers());
        });
    if (num_machines_ <= kPerEntityCap) {
      for (MachineId m = 0; m < num_machines_; ++m) {
        telemetry_->RegisterGauge(
            "rt_inbox_chunks.m" + std::to_string(m), "chunks", [this, m] {
              double total = 0.0;
              for (PartitionId p = 0; p < placement_->num_partitions(); ++p) {
                if (placement_->primary(p) == m) {
                  total += static_cast<double>(table_->inbox_chunks[p].load(
                      std::memory_order_relaxed));
                }
              }
              return total;
            });
      }
    }
    telemetry_->RegisterGauge("rt_inbox_chunks.total", "chunks", [this] {
      double total = 0.0;
      const uint32_t num_partitions = graph_->num_partitions();
      for (PartitionId p = 0; p < num_partitions; ++p) {
        total += static_cast<double>(
            table_->inbox_chunks[p].load(std::memory_order_relaxed));
      }
      return total;
    });
    if (num_workers_ <= kPerEntityCap) {
      for (uint32_t w = 0; w < num_workers_; ++w) {
        std::atomic<uint32_t>* state = &worker_state_[w];
        telemetry_->RegisterGauge(
            "rt_worker_state.w" + std::to_string(w), "phase", [state] {
              return static_cast<double>(
                  state->load(std::memory_order_relaxed));
            });
      }
    }
    telemetry_->RegisterGauge(
        "rt_workers_busy", "workers",
        [this] {
          double busy = 0.0;
          for (uint32_t w = 0; w < num_workers_; ++w) {
            if (worker_state_[w].load(std::memory_order_relaxed) != 0) {
              busy += 1.0;
            }
          }
          return busy;
        },
        static_cast<double>(num_workers_));
    BspBarrier* barrier = barrier_.get();
    telemetry_->RegisterGauge(
        "rt_barrier_waiting", "threads",
        [barrier] { return static_cast<double>(barrier->ApproxWaiting()); },
        static_cast<double>(num_workers_ + 1));
    telemetry_->RegisterRssGauge();
  }

  /// Drives one BSP stage to completion, re-assigning the tasks of machines
  /// that die mid-round to their next alive replica holder until every
  /// partition's task has run. Each extra round implies a fresh machine
  /// death, so the loop terminates within num_machines rounds.
  Status RunStage(RuntimeStage stage, int iteration) {
    obs::ScopedSpan stage_span(
        config_.tracer,
        std::string("rt_") + RuntimeStageName(stage) + "[" +
            std::to_string(iteration) + "]",
        "runtime");
    const uint32_t num_partitions = graph_->num_partitions();
    std::fill(done_.begin(), done_.end(), uint8_t{0});
    bool recovery = false;
    for (;;) {
      // Assign every pending partition to its first alive replica holder
      // (Appendix B's recovery rule; round one degenerates to the primary).
      Phase phase;
      phase.stage = stage;
      phase.iteration = iteration;
      phase.recovery = recovery;
      phase.exec.assign(num_partitions, kInvalidMachine);
      uint32_t pending = 0;
      for (PartitionId p = 0; p < num_partitions; ++p) {
        if (done_[p]) {
          continue;
        }
        const MachineId m = placement_->FirstAliveReplica(p, alive_);
        if (m == kInvalidMachine) {
          // Workers stay parked at the start barrier; Run publishes the
          // shutdown phase and joins them before surfacing this error.
          return Status::Internal(
              "all replicas of partition " + std::to_string(p) +
              " are dead; " + RuntimeStageName(stage) +
              " stage cannot recover");
        }
        phase.exec[p] = m;
        ++pending;
      }
      if (pending == 0) {
        return Status::OK();
      }
      phase_ = std::move(phase);
      locals_[num_workers_].barrier_wait_seconds += MainBarrier();  // start
      locals_[num_workers_].barrier_wait_seconds += MainBarrier();  // work done
      locals_[num_workers_].barrier_wait_seconds += MainBarrier();  // drained
      recovery = true;
    }
  }

  // --------------------------------------------------------- worker side

  void WorkerMain(uint32_t w) {
    WorkerLocal& local = locals_[w];
    Host& host = *hosts_[w];
    ChannelLink link{this, w};
    for (;;) {
      const double start_wait = barrier_->ArriveAndWait();  // start barrier
      RecordBarrierWait(local, start_wait);
      if (phase_.shutdown) {
        return;
      }
      const Phase& phase = phase_;
      // Copied out because phase_ is only stable until our last barrier of
      // this round releases the main thread to publish the next phase.
      const int iteration = phase.iteration;
      const RuntimeStage stage = phase.stage;
      // Run-state gauge: 1 transfer, 2 combine, 0 while parked at a
      // barrier. One relaxed store per stage round.
      worker_state_[w].store(static_cast<uint32_t>(stage) + 1,
                             std::memory_order_relaxed);
      host.RunRound(link, iteration, stage, phase.recovery, phase.exec,
                    table_->primaries);
      worker_state_[w].store(0, std::memory_order_relaxed);
      const double work_wait =
          barrier_->ArriveAndWait([this, w] { Drain(w); });
      RecordBarrierWait(local, work_wait);
      // All sends of this stage were accepted before the work-done barrier
      // released, so one final sweep leaves every owned channel empty.
      Drain(w);
      const double drain_wait = barrier_->ArriveAndWait();  // drain done
      RecordBarrierWait(local, drain_wait);
      // With workers == machines the attribution is exact; with fewer
      // workers each hosted machine shares its worker's idle time.
      host.AddIdle(iteration, stage, start_wait + work_wait + drain_wait);
    }
  }

  void RecordBarrierWait(WorkerLocal& local, double seconds) {
    local.barrier_wait_seconds += seconds;
    local.barrier_wait.Add(seconds);
  }

  /// Hands every batch waiting in worker w's inbound channels to its host
  /// and recycles the payloads. Only w consumes these channels (and only w
  /// writes the inboxes of partitions whose primary it hosts), so no lock
  /// is needed beyond the channels' own. Batches come from this process's
  /// own stagers, so a decode failure is a bug, never bad input.
  void Drain(uint32_t w) {
    Host& host = *hosts_[w];
    for (MachineId d : host.hosted()) {
      for (MachineId s = 0; s < num_machines_; ++s) {
        BoundedChannel<WireBatch>& ch =
            *channels_[static_cast<size_t>(s) * num_machines_ + d];
        while (std::optional<WireBatch> batch = ch.TryRecv()) {
          SURFER_CHECK_OK(host.Receive(*batch));
          pool_->Release(std::move(batch->payload));
        }
      }
    }
  }

  /// Moves a sealed, booked batch into its channel. Returns the seconds the
  /// send spent blocked on channel backpressure (0 when the first TrySend
  /// lands), which flows back into the superstep timeline's blocked phase.
  double SendBatch(WireBatch&& batch, uint32_t w) {
    sent_wire_bytes_[batch.src_machine].fetch_add(
        batch.wire_size(), std::memory_order_relaxed);
    BoundedChannel<WireBatch>& ch =
        *channels_[static_cast<size_t>(batch.src_machine) * num_machines_ +
                   batch.dst_machine];
    const size_t weight = batch.wire_size() > 0 ? batch.wire_size() : 1;
    if (ch.TrySend(batch, weight)) {
      return 0.0;
    }
    // Backpressure loop: while the link is saturated, keep draining our own
    // inbound channels so the system as a whole cannot wedge. Drain before
    // the timed wait: when the full channel is one this worker owns (always
    // true at one worker), draining it is what frees the window, and waiting
    // first would just burn the timeout. Retries pass is_retry so the stall
    // stats count this batch once in items_stalled however long it waits.
    const auto stall_start = std::chrono::steady_clock::now();
    do {
      Drain(w);
      if (ch.TrySendFor(batch, std::chrono::microseconds(200), weight,
                        /*is_retry=*/true)) {
        break;
      }
    } while (!ch.TrySend(batch, weight, /*is_retry=*/true));
    return SecondsSince(stall_start);
  }

  // ------------------------------------------------------------- wrap-up

  void FinalizeStats() {
    stats_.num_workers = num_workers_;
    stats_.num_machines = num_machines_;
    stats_.iterations = config_.iterations;
    stats_.barrier_generations = barrier_->generation();
    stats_.link_bytes.assign(
        static_cast<size_t>(num_machines_) * num_machines_, 0);
    for (const WorkerLocal& local : locals_) {
      stats_.machine_failures += local.machine_failures;
      stats_.barrier_wait_seconds += local.barrier_wait_seconds;
      stats_.barrier_wait.Merge(local.barrier_wait);
    }
    stats_.timeline.clear();
    for (const std::unique_ptr<Host>& host : hosts_) {
      host->FoldCounters(stats_);
      host->FoldTimeline(stats_.timeline);
    }
    // Mean/max over *workers only* (locals_[num_workers_] is the main
    // thread, whose waits overlap every worker's): the per-thread view that
    // stays comparable to wall_seconds where the overlapping sum does not.
    double wait_total = 0.0;
    for (uint32_t w = 0; w < num_workers_; ++w) {
      wait_total += locals_[w].barrier_wait_seconds;
      stats_.barrier_wait_max_s =
          std::max(stats_.barrier_wait_max_s, locals_[w].barrier_wait_seconds);
    }
    stats_.barrier_wait_mean_s =
        num_workers_ > 0 ? wait_total / num_workers_ : 0.0;
    stats_.channels.reserve(channels_.size());
    for (const auto& channel : channels_) {
      ChannelStats snapshot = channel->stats();
      stats_.send_stalls += snapshot.stall_attempts;
      stats_.items_stalled += snapshot.items_stalled;
      stats_.channel_depth.Merge(snapshot.depth_on_send);
      stats_.channels.push_back(std::move(snapshot));
    }
    const WireBufferPool::Stats pool = pool_->stats();
    stats_.pool_buffers_acquired = pool.acquires;
    stats_.pool_buffers_reused = pool.reuses;
    if (sharded_ != nullptr) {
      stats_.trace_events_dropped = sharded_->total_dropped();
    }
    if (telemetry_ != nullptr) {
      stats_.telemetry_samples = telemetry_->samples_taken();
      stats_.telemetry_samples_dropped = telemetry_->total_dropped();
    }
    const obs::MemoryUsage memory = obs::ReadMemoryUsage();
    stats_.rss_bytes = memory.rss_bytes;
    stats_.peak_rss_bytes = memory.peak_rss_bytes;
  }

  const PartitionedGraph* graph_;
  const ReplicatedPlacement* placement_;
  const Topology* topology_;
  App app_;
  PropagationConfig config_;
  RuntimeOptions options_;
  FaultController fault_;

  uint32_t num_machines_ = 0;
  uint32_t num_workers_ = 0;
  std::vector<std::unique_ptr<BoundedChannel<WireBatch>>> channels_;
  std::unique_ptr<BspBarrier> barrier_;
  std::unique_ptr<WireBufferPool> pool_;

  // Shared state with single-writer-per-element or barrier-separated access
  // (the data-race-freedom discipline TSan verifies):
  //  - phase_: written by main before the start barrier, read by workers
  //    after it releases;
  //  - hosts_[w]: touched only by worker w, read by main after the join;
  //  - table_: see PartitionTable; main commits states and folds virtual
  //    results between iterations, while every worker is parked;
  //  - done_[p]: written by the one worker executing p this round, read by
  //    main only across a barrier;
  //  - alive_[m]: written solely by m's owner worker, read by main across
  //    a barrier.
  Phase phase_;
  std::unique_ptr<PartitionTable<App>> table_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<uint8_t> done_;
  std::vector<uint8_t> alive_;
  std::vector<WorkerLocal> locals_;

  std::unique_ptr<obs::ShardedTracer> sharded_;  ///< null when tracing is off

  // Flight-recorder plane. The atomic arrays are lock-free mirrors written
  // by the instrumented paths (relaxed, batch granularity) and read by the
  // sampler thread; the recorder itself stops before Run returns, so its
  // providers never outlive the structures they read.
  std::unique_ptr<obs::TelemetryRecorder> telemetry_;
  /// Per machine: wire bytes handed to its outbound channels so far.
  std::unique_ptr<std::atomic<uint64_t>[]> sent_wire_bytes_;
  std::unique_ptr<std::atomic<uint32_t>[]> worker_state_;  ///< stage + 1, or 0

  std::map<uint64_t, VirtualOutput> virtual_outputs_;
  RuntimeStats stats_;
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_EXECUTOR_H_
