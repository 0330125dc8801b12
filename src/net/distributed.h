#ifndef SURFER_NET_DISTRIBUTED_H_
#define SURFER_NET_DISTRIBUTED_H_

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/result.h"
#include "net/control.h"
#include "net/coordinator.h"
#include "net/frame.h"
#include "net/transport.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "propagation/app_traits.h"
#include "propagation/config.h"
#include "propagation/partition_kernel.h"
#include "runtime/fault.h"
#include "runtime/machine_host.h"
#include "runtime/report.h"
#include "runtime/stats.h"
#include "runtime/timeline.h"
#include "runtime/wire_batch.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {
namespace net {

/// Apps that can run distributed: wire-serializable messages (the mesh
/// carries WireBatches) plus trivially-copyable vertex states and virtual
/// outputs, because final results and replication updates cross process
/// boundaries as raw bytes.
template <typename App>
concept DistributableApp =
    PropagationApp<App> && runtime::WireSerializableApp<App> &&
    std::is_trivially_copyable_v<typename App::VertexState> &&
    std::is_trivially_copyable_v<typename internal::VirtualOutputOf<App>::type>;

/// Knobs of the distributed engine.
struct DistributedOptions {
  /// Worker processes; 0 means one per simulated machine. With fewer
  /// processes than machines, machine m is hosted by process
  /// (m % num_processes) — mirroring the threaded executor's worker
  /// ownership rule, so a process death is a correlated failure of its
  /// hosted machine group.
  uint32_t max_processes = 0;
  /// Task-granular fault plans. Here a plan kills the *process* hosting the
  /// planned machine (flushing completed-task output first), so recovery
  /// exercises real process death, reconnect-free mesh degradation, and
  /// first-alive-replica takeover.
  std::vector<runtime::RuntimeFaultPlan> faults;
  /// Deliver a real SIGTERM to the process hosting this machine before the
  /// given iteration (graceful decommission); kInvalidMachine = off.
  MachineId sigterm_machine = kInvalidMachine;
  int sigterm_iteration = 0;
  /// When non-empty, each worker process writes
  /// `dist_worker_<proc>.report.json` and `dist_worker_<proc>.trace.json`
  /// here at finalize (and on SIGTERM).
  std::string artifact_dir;
  /// Per-worker-process flight recorder (mailbox depth, RSS).
  obs::TelemetryOptions telemetry;
  /// Health plane: workers push a load snapshot to the coordinator every
  /// this-many milliseconds (0 = heartbeats off).
  uint32_t heartbeat_period_ms = 0;
  /// Clock-offset estimation: each mesh link runs an NTP-style ping exchange
  /// of this many pings during the rendezvous (0 = off). The per-peer
  /// offsets land in each worker's stats and trace artifacts, and correct
  /// the per-link latency series in the cluster report.
  uint32_t clock_sync_pings = 0;
  /// Online straggler detection: a process still holding up a round after
  /// straggler_multiple x the trailing-median round duration — but at least
  /// straggler_min_ms — is logged and counted, never aborted.
  double straggler_multiple = 4.0;
  uint32_t straggler_min_ms = 250;
  /// Live-status sink: receives the re-rendered cluster status table on
  /// every heartbeat or straggler flag (surfer_dist --watch). Null = off.
  std::function<void(const std::string&)> status_sink;
  /// Straggler injection for tests: process `stall_proc` sleeps `stall_ms`
  /// milliseconds at its first combine round of iteration `stall_iteration`
  /// (0xFFFFFFFF = no stall).
  uint32_t stall_proc = 0xFFFFFFFFu;
  int32_t stall_iteration = 0;
  uint32_t stall_ms = 0;
};

namespace detail {

/// The RuntimeStats view of a worker's (or the cluster's summed) counters.
/// Engine-level fields — worker and machine counts, failures, barrier
/// generations, current RSS — are the caller's to fill.
inline runtime::RuntimeStats ToRuntimeStats(const WorkerStatsMsg& counters) {
  runtime::RuntimeStats stats;
  static_cast<runtime::EngineCounters&>(stats) = counters;
  stats.combine_scatter_seconds = counters.combine_scatter_seconds;
  stats.link_bytes = counters.link_bytes;
  stats.peak_rss_bytes = counters.peak_rss_bytes;
  return stats;
}

/// The worker-process side of the distributed engine: one MachineHost
/// (runtime/machine_host.h) for the machines m % P == proc runs their
/// rounds as directed by the coordinator; this class is its TCP Link (local
/// short-circuit, retention for replay, the mesh) plus the control loop,
/// recovery (resend rounds), state replication, heartbeats and finalize.
///
/// Bit-identity argument: the per-partition work is the shared
/// PartitionKernel, whose header gives the ordering argument. Its FIFO-link
/// premise holds here because each TCP connection is FIFO and drained by one
/// receiver thread into a FIFO mailbox. Recovery preserves the argument
/// because replayed retained segments keep their original src machine and
/// relative order, and re-executed transfer tasks go back through a
/// WireStager (identical merge sequence) against *iteration-start* states
/// (PartitionTable::states).
template <typename App>
  requires DistributableApp<App>
class DistributedWorker {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  DistributedWorker(const PartitionedGraph* graph, App app,
                    PropagationConfig config, DistributedOptions options,
                    uint32_t proc, Socket control)
      : graph_(graph),
        app_(std::move(app)),
        config_(config),
        options_(std::move(options)),
        proc_(proc),
        transport_(proc, std::move(control)) {}

  /// Runs the whole worker life cycle. Never returns: every path ends in
  /// _exit (0 clean/graceful, 2 fault or protocol failure).
  [[noreturn]] void Run() {
    InstallWorkerSignalHandlers();
    tracer_ = std::make_unique<obs::Tracer>();
    trace_origin_unix_us_ = NowUnixUs() - tracer_->WallNowUs();
    PlacementMsg placement;
    if (!transport_.Handshake(&placement).ok()) {
      Die();
    }
    if (!Setup(placement)) {
      Die();
    }
    for (;;) {
      Result<Frame> frame = transport_.ReadControl();
      if (!frame.ok()) {
        if (SigtermFlag()->load(std::memory_order_relaxed)) {
          GracefulExit();
        }
        Die();  // coordinator vanished mid-run
      }
      switch (frame->type) {
        case FrameType::kRound: {
          Result<RoundMsg> round = Decode<RoundMsg>(frame->payload);
          if (!round.ok() || !ValidateRound(*round, num_partitions_,
                                            num_machines_, config_.iterations)
                                  .ok()) {
            Die();
          }
          ExecuteRound(*round);
          break;
        }
        case FrameType::kFinalize:
          Finalize();
          break;
        case FrameType::kShutdown:
          transport_.CloseAll();
          ::_exit(0);
        default:
          break;
      }
    }
  }

 private:
  using Kernel = PartitionKernel<App>;
  using Host = runtime::MachineHost<App>;

  static double NowUnixUs() {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }

  /// The host's Link over the TCP mesh, for one round.
  struct TcpLink {
    DistributedWorker* worker;
    const RoundMsg* round;

    double Send(runtime::WireBatch&& batch) {
      worker->Deliver(std::move(batch), /*retain=*/true);
      return 0.0;
    }
    void Pump() { worker->PumpMailbox(); }
    void TaskDone(PartitionId p, MachineId m) {
      worker->TaskDone(p, m, *round);
    }
    /// Planned process death. Completed tasks' output survives the crash
    /// in the paper's model, so the exit waits until every sent frame is
    /// acknowledged as *consumed* by its peer — closing earlier could RST
    /// away kernel-buffered output.
    [[noreturn]] void Kill(MachineId) {
      (void)worker->transport_.WaitDataAcked();
      worker->Die();
    }
  };

  [[noreturn]] void Die() {
    transport_.CloseAll();
    ::_exit(2);
  }

  bool HostedHere(MachineId m) const { return m % num_procs_ == proc_; }

  /// The superstep a round books to: a resend round rebuilds inboxes for
  /// its iteration's combine.
  static runtime::RuntimeStage StageOf(RoundKind kind) {
    return kind == RoundKind::kTransfer ? runtime::RuntimeStage::kTransfer
                                        : runtime::RuntimeStage::kCombine;
  }

  bool Setup(const PlacementMsg& placement) {
    num_machines_ = placement.num_machines;
    num_partitions_ = placement.num_partitions;
    num_procs_ = transport_.num_procs();
    if (num_partitions_ != graph_->num_partitions() || num_machines_ == 0 ||
        placement.replication == 0) {
      return false;
    }
    fault_tolerant_ = placement.fault_tolerant != 0;
    fault_ = runtime::FaultController(placement.faults);
    heartbeat_period_ms_ = placement.heartbeat_period_ms;
    stall_proc_ = placement.stall_proc;
    stall_iteration_ = placement.stall_iteration;
    stall_ms_ = placement.stall_ms;
    if (heartbeat_period_ms_ > 0) {
      // Tick from ReadControl's idle poll: heartbeats flow between rounds
      // from the main thread, the sole writer on the control socket.
      transport_.SetIdleTick([this] { MaybeHeartbeat(); });
    }
    replicas_.assign(num_partitions_, {});
    if (placement.replicas.size() !=
        static_cast<size_t>(num_partitions_) * placement.replication) {
      return false;
    }
    std::vector<MachineId> primaries(num_partitions_);
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      for (uint32_t r = 0; r < placement.replication; ++r) {
        const MachineId m =
            placement.replicas[static_cast<size_t>(p) * placement.replication +
                               r];
        if (m >= num_machines_ && (r == 0 || m != kInvalidMachine)) {
          return false;  // only a backup may be kInvalidMachine
        }
        replicas_[p].push_back(m);
      }
      primaries[p] = replicas_[p][0];
    }
    pool_ = std::make_unique<runtime::WireBufferPool>();
    table_ = std::make_unique<runtime::PartitionTable<App>>(
        graph_, Kernel(app_, *graph_).InitStates(), std::move(primaries));
    const auto origin = std::chrono::steady_clock::now();
    host_ = std::make_unique<Host>(
        typename Host::Env{.app = &app_,
                           .config = config_,
                           .wire = {},
                           .fault = &fault_,
                           .pool = pool_.get(),
                           .table = table_.get(),
                           .num_machines = num_machines_,
                           .origin = origin},
        proc_, num_procs_);
    state_version_.assign(num_partitions_, -1);
    counters_.link_bytes.assign(
        static_cast<size_t>(num_machines_) * num_machines_, 0);

    telemetry_ = std::make_unique<obs::TelemetryRecorder>(options_.telemetry);
    if (options_.telemetry.enabled) {
      telemetry_->RegisterGauge("dist_mailbox_depth", "frames", [this] {
        return static_cast<double>(transport_.ApproxMailboxDepth());
      });
      telemetry_->RegisterGauge("dist_inflight_bytes", "bytes", [this] {
        return static_cast<double>(transport_.InflightBytes());
      });
      telemetry_->RegisterGauge("dist_recv_latency_us", "us", [this] {
        return static_cast<double>(transport_.LastRecvLatencyUs());
      });
      telemetry_->RegisterRssGauge();
      // The sampler thread must never take the process-directed SIGTERM:
      // only the main thread owns the graceful-exit interrupt.
      sigset_t block, old;
      sigemptyset(&block);
      sigaddset(&block, SIGTERM);
      pthread_sigmask(SIG_BLOCK, &block, &old);
      telemetry_->Start(origin);
      pthread_sigmask(SIG_SETMASK, &old, nullptr);
    }
    return true;
  }

  // ------------------------------------------------------------ round driver

  void ExecuteRound(const RoundMsg& round) {
    obs::ScopedSpan span(
        tracer_.get(), "dist_round[" + std::to_string(round.seq) + "]", "net",
        {{"kind", std::to_string(static_cast<int>(round.kind))},
         {"iteration", std::to_string(round.iteration)}});
    current_stage_ = static_cast<uint32_t>(round.kind);
    current_iteration_ = round.iteration;
    current_round_seq_ = round.seq;
    // Receiver threads record link stats by round seq only; this map lets
    // BuildStatsMsg patch in the (iteration, kind) the seq belonged to.
    round_info_[round.seq] = {round.iteration,
                              static_cast<uint32_t>(round.kind)};
    if (proc_ == stall_proc_ && round.iteration == stall_iteration_ &&
        round.kind == RoundKind::kCombine && !stalled_) {
      // Injected straggler (tests): one long pause at this iteration's first
      // combine round, long enough for the online detector to flag us.
      stalled_ = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
    if (round.kind == RoundKind::kTransfer &&
        round.iteration != started_iteration_) {
      // First transfer round of a new iteration: commit last iteration's
      // combine results, drop last iteration's retention, advance the app.
      table_->Commit();
      started_iteration_ = round.iteration;
      if constexpr (IterationAwareApp<App>) {
        app_.OnIterationStart(round.iteration);
      }
      for (runtime::WireBatch& batch : retained_) {
        pool_->Release(std::move(batch.payload));
      }
      retained_.clear();
    }
    if (round.kind == RoundKind::kResend) {
      ExecuteResend(round);
    } else {
      TcpLink link{this, &round};
      host_->RunRound(link, round.iteration, StageOf(round.kind),
                      round.recovery != 0, round.exec, round.route);
    }
    FinishRound(round);
  }

  /// Recovery-only round of a combine stage: rebuild the inboxes of the
  /// partitions in round.exec (their previous holders died) by replaying
  /// retained batches and re-executing the transfer tasks whose producer
  /// died with its retained output.
  void ExecuteResend(const RoundMsg& round) {
    host_->SetStep(round.iteration, StageOf(round.kind));
    // Clear before the first mailbox pop of this round: replayed frames that
    // raced ahead of our own replay work sit safely in the transport mailbox
    // until PumpMailbox runs (pumps only happen inside rounds).
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      if (round.exec[p] != kInvalidMachine && HostedHere(round.exec[p])) {
        host_->ClearInbox(p);
      }
    }
    ReplayRetained(round);
    for (MachineId m : host_->hosted()) {
      for (PartitionId q = 0; q < num_partitions_; ++q) {
        if (round.reexec[q] != m) {
          continue;
        }
        ReexecTransfer(q, m, round);
        ++counters_.tasks_executed;
        ++counters_.tasks_reexecuted;
        SendTaskDone(q, m, round);
        PumpMailbox();
      }
    }
  }

  /// Ends a round: EOS to every peer, then the drain wait until every peer
  /// is dead or past EOS, booked as barrier time (a resend round's to its
  /// iteration's combine step).
  void FinishRound(const RoundMsg& round) {
    if (!transport_.BroadcastEos(round.seq).ok()) {
      Die();
    }
    const auto drain_start = std::chrono::steady_clock::now();
    barrier_waiting_ = true;
    for (;;) {
      PumpMailbox();
      if (transport_.RoundDrained(round.seq)) {
        break;
      }
      if (SigtermFlag()->load(std::memory_order_relaxed)) {
        GracefulExit();
      }
      MaybeHeartbeat();  // keep the health plane fed while the drain blocks
      transport_.WaitActivity();
    }
    barrier_waiting_ = false;
    // Every peer is dead or past-EOS, and each receiver pushes a link's data
    // frames before recording its EOS — one final pump empties the round.
    PumpMailbox();
    host_->AddIdle(round.iteration, StageOf(round.kind),
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - drain_start)
                       .count());
    SeqMsg done;
    done.seq = round.seq;
    done.src_proc = proc_;
    if (!transport_.SendControl(FrameType::kRoundDone, Encode(done)).ok()) {
      Die();
    }
    current_stage_ = kIdleStage;
  }

  /// Sends one heartbeat if the period elapsed. Main-thread only (idle tick
  /// + barrier drain loop), so it never races other control-plane writes.
  void MaybeHeartbeat() {
    if (heartbeat_period_ms_ == 0) {
      return;
    }
    const double now = NowUnixUs();
    if (now - last_heartbeat_us_ <
        static_cast<double>(heartbeat_period_ms_) * 1000.0) {
      return;
    }
    last_heartbeat_us_ = now;
    HeartbeatMsg hb;
    hb.proc = proc_;
    hb.stage = current_stage_;
    hb.iteration = current_iteration_;
    hb.round_seq = current_round_seq_;
    hb.mailbox_frames = transport_.ApproxMailboxDepth();
    hb.inflight_bytes = transport_.InflightBytes();
    hb.staged_wire_bytes = host_->OpenBytes();
    const obs::MemoryUsage memory = obs::ReadMemoryUsage();
    hb.rss_bytes = memory.available ? memory.rss_bytes : 0;
    hb.barrier_waiting = barrier_waiting_ ? 1 : 0;
    hb.unix_us = static_cast<uint64_t>(now);
    if (transport_.SendControl(FrameType::kHeartbeat, Encode(hb)).ok()) {
      ++counters_.heartbeats_sent;
    }
  }

  /// The Link's TaskDone. A finished Combine stamps p's state version,
  /// records its virtual outputs and, in fault-tolerant runs, replicates
  /// the state *before* TASK_DONE: once the coordinator marks p done, a
  /// replica holder must already be able to take over from this state.
  void TaskDone(PartitionId p, MachineId m, const RoundMsg& round) {
    if (round.kind == RoundKind::kCombine) {
      state_version_[p] = round.iteration;
      for (const auto& [id, output] : table_->virtual_results[p]) {
        virtual_acc_[id] = {round.iteration, output};
      }
      if (fault_tolerant_) {
        ReplicateState(p, round.iteration);
      }
    }
    SendTaskDone(p, m, round);
  }

  void SendTaskDone(PartitionId p, MachineId m, const RoundMsg& round) {
    TaskDoneMsg msg;
    msg.partition = p;
    msg.machine = m;
    msg.iteration = round.iteration;
    msg.kind = static_cast<uint8_t>(round.kind);
    if (!transport_.SendControl(FrameType::kTaskDone, Encode(msg)).ok()) {
      Die();
    }
  }

  // -------------------------------------------------------------- data plane

  /// Delivers one sealed batch, retained for replay in fault-tolerant runs
  /// when asked. Local destinations (a machine this process hosts)
  /// short-circuit into the host; remote ones go over the mesh.
  void Deliver(runtime::WireBatch&& batch, bool retain) {
    if (retain && fault_tolerant_) {
      retained_.push_back(batch);  // deep copy; replayed if a holder dies
    }
    const uint32_t dst_proc = batch.dst_machine % num_procs_;
    if (dst_proc == proc_) {
      if (!host_->Receive(batch).ok()) {
        Die();
      }
    } else {
      (void)transport_.SendPeer(dst_proc, FrameType::kData,
                                EncodeWireBatch(batch));
    }
    pool_->Release(std::move(batch.payload));
  }

  /// Recovery traffic: booked as resend bytes, not into the link matrix
  /// (the link bytes already counted it once).
  void Resend(runtime::WireBatch&& batch, bool retain) {
    counters_.resend_bytes += batch.payload.size();
    Deliver(std::move(batch), retain);
  }

  /// Hands every mailbox batch to the host and applies state updates. The
  /// bytes come from peer processes, so a malformed batch or update is a
  /// protocol failure.
  void PumpMailbox() {
    runtime::WireBatch batch;
    while (transport_.TryPopData(&batch)) {
      if (!host_->Receive(batch).ok()) {
        Die();
      }
    }
    StateUpdateMsg update;
    while (transport_.TryPopUpdate(&update)) {
      ApplyUpdate(update);
    }
  }

  // ------------------------------------------------------- state replication

  /// Names partition p in `msg` and packs its range of `states` as raw
  /// bytes (the shape ValidateStateBlock checks on arrival).
  template <typename Msg>
  void PackStates(PartitionId p, const std::vector<VertexState>& states,
                  Msg& msg) const {
    const PartitionMeta& meta = graph_->partition(p);
    msg.partition = p;
    msg.begin = meta.begin;
    msg.count = meta.end - meta.begin;
    const auto* first =
        reinterpret_cast<const uint8_t*>(states.data() + meta.begin);
    msg.states.assign(first, first + msg.count * sizeof(VertexState));
  }

  void ReplicateState(PartitionId p, int32_t iteration) {
    StateUpdateMsg msg;
    PackStates(p, table_->next_states, msg);
    msg.iteration = iteration;
    const auto& virtual_results = table_->virtual_results[p];
    msg.virtual_count = static_cast<uint32_t>(virtual_results.size());
    for (const auto& [id, output] : virtual_results) {
      runtime::AppendPod(msg.virtuals, id);
      runtime::AppendPod(msg.virtuals, output);
    }
    const std::vector<uint8_t> payload = Encode(msg);
    std::set<uint32_t> targets;
    for (MachineId r : replicas_[p]) {
      if (r != kInvalidMachine && r < num_machines_ && !HostedHere(r)) {
        targets.insert(r % num_procs_);
      }
    }
    for (uint32_t q : targets) {
      (void)transport_.SendPeer(q, FrameType::kStateUpdate, payload);
      counters_.replication_bytes += payload.size();
    }
  }

  void ApplyUpdate(const StateUpdateMsg& msg) {
    constexpr size_t kEntry = sizeof(uint64_t) + sizeof(VirtualOutput);
    if (!ValidateStateBlock({msg.partition, msg.begin, msg.count,
                             msg.states.size(), msg.virtual_count,
                             msg.virtuals.size()},
                            *graph_, sizeof(VertexState), kEntry)
             .ok()) {
      Die();
    }
    if (msg.iteration <= state_version_[msg.partition]) {
      return;  // stale: a newer state of p is already here
    }
    if (msg.count > 0) {
      std::memcpy(&table_->next_states[msg.begin], msg.states.data(),
                  msg.states.size());
    }
    table_->dirty[msg.partition] = 1;
    state_version_[msg.partition] = msg.iteration;
    const uint8_t* base = msg.virtuals.data();
    for (uint32_t i = 0; i < msg.virtual_count; ++i) {
      const uint64_t id = runtime::ReadPod<uint64_t>(base + i * kEntry);
      const VirtualOutput output = runtime::ReadPod<VirtualOutput>(
          base + i * kEntry + sizeof(uint64_t));
      virtual_acc_[id] = {msg.iteration, output};
    }
  }

  // ---------------------------------------------------------------- recovery

  /// Replays every retained segment destined to a partition being rebuilt
  /// through a stager of its original producer machine, in retention
  /// order, so each stream keeps its source and record order and the
  /// rebuilt inbox sorts into the identical sequential order. The records
  /// were merged before they were retained, so re-staging them merges
  /// nothing and prices them as before.
  void ReplayRetained(const RoundMsg& round) {
    std::map<MachineId, runtime::WireStager<App>> stagers;  // by producer
    auto send = [&](runtime::WireBatch&& batch) {
      Resend(std::move(batch), /*retain=*/false);
      return 0.0;
    };
    typename runtime::WireBatchReader<Message>::Segment segment;
    for (const runtime::WireBatch& batch : retained_) {
      runtime::WireBatchReader<Message> reader(batch);
      auto it = stagers.find(batch.src_machine);
      if (it == stagers.end()) {
        it = stagers.emplace(batch.src_machine,
                             host_->MakeStager(batch.src_machine)).first;
      }
      // Our own retained bytes: a malformed tail is dropped, not misparsed.
      while (reader.NextInto(segment).value_or(false)) {
        const PartitionId dst = segment.header.dst_partition;
        if (dst < round.route.size() && round.route[dst] != kInvalidMachine) {
          it->second.StageTask(segment.header.src_partition, dst,
                               round.route[dst], segment.real,
                               segment.virtuals, send);
        }
      }
    }
    for (auto& [m, stager] : stagers) {
      stager.FlushAll(send);
    }
  }

  /// Re-executes a transfer task whose producer process died with its
  /// retained output. The full task re-runs against iteration-start states
  /// through WireStagers (identical duplicate-merge folds); streams for the
  /// partitions being rebuilt are sent, the rest are retained only — so a
  /// later death in this same iteration still finds a complete copy here.
  /// Two stagers keep rebuilt and retain-only streams in separate batches.
  void ReexecTransfer(PartitionId q, MachineId m, const RoundMsg& round) {
    typename Kernel::Streams& streams = host_->Transfer(q);
    runtime::WireStager<App> send_stager = host_->MakeStager(m);
    runtime::WireStager<App> retain_stager = host_->MakeStager(m);
    auto send = [&](runtime::WireBatch&& batch) {
      Resend(std::move(batch), /*retain=*/true);
      return 0.0;
    };
    auto retain_only = [&](runtime::WireBatch&& batch) {
      retained_.push_back(batch);
      pool_->Release(std::move(batch.payload));
      return 0.0;
    };
    for (PartitionId dst = 0; dst < num_partitions_; ++dst) {
      auto& real = streams.real[dst];
      auto& virtuals = streams.virtuals[dst];
      if (real.empty() && virtuals.empty()) {
        continue;
      }
      const MachineId target = round.route[dst];
      if (target != kInvalidMachine) {
        send_stager.StageTask(q, dst, target, real, virtuals, send);
      } else {
        retain_stager.StageTask(q, dst, replicas_[dst][0], real, virtuals,
                                retain_only);
      }
    }
    send_stager.FlushAll(send);
    retain_stager.FlushAll(retain_only);
  }

  // ------------------------------------------------------------------- exits

  /// SIGTERM: persist run report and telemetry, then exit cleanly. Rounds
  /// end with every batch sealed, so nothing is left staged. The
  /// coordinator treats the EOF like any machine death and recovers hosted
  /// partitions on their replicas.
  [[noreturn]] void GracefulExit() {
    (void)transport_.WaitDataAcked();
    WriteArtifacts();
    transport_.CloseAll();
    ::_exit(0);
  }

  // ---------------------------------------------------------------- finalize

  void Finalize() {
    table_->Commit();
    // The coordinator's finalize drain expects no control traffic after
    // kFinalDone; stop heartbeating for good before the stats go out.
    heartbeat_period_ms_ = 0;
    telemetry_->Stop();
    const WorkerStatsMsg stats = BuildStatsMsg();
    if (!transport_.SendControl(FrameType::kWorkerStats, Encode(stats)).ok()) {
      Die();
    }
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      if (state_version_[p] < 0) {
        continue;
      }
      FinalStateMsg msg;
      PackStates(p, table_->states, msg);
      msg.version = state_version_[p];
      if (!transport_.SendControl(FrameType::kFinalState, Encode(msg)).ok()) {
        Die();
      }
    }
    if (!virtual_acc_.empty()) {
      FinalVirtualMsg msg;
      msg.entry_bytes = sizeof(VirtualOutput);
      msg.count = static_cast<uint32_t>(virtual_acc_.size());
      for (const auto& [id, entry] : virtual_acc_) {
        runtime::AppendPod(msg.entries, id);
        runtime::AppendPod(msg.entries, entry.first);   // int32_t version
        runtime::AppendPod(msg.entries, entry.second);  // VirtualOutput
      }
      if (!transport_.SendControl(FrameType::kFinalVirtual, Encode(msg)).ok()) {
        Die();
      }
    }
    WriteArtifacts();
    if (!transport_.SendControl(FrameType::kFinalDone).ok()) {
      Die();
    }
  }

  /// The counters this worker keeps itself plus the pool, transport and
  /// memory figures: everything but the host's share and the per-link
  /// records.
  WorkerStatsMsg OwnCounters() const {
    WorkerStatsMsg stats = counters_;
    const runtime::WireBufferPool::Stats pool = pool_->stats();
    stats.pool_buffers_acquired = pool.acquires;
    stats.pool_buffers_reused = pool.reuses;
    stats.tcp_bytes_sent = transport_.tcp_bytes_sent();
    stats.tcp_frames_sent = transport_.tcp_frames_sent();
    stats.peak_rss_bytes = obs::ReadMemoryUsage().peak_rss_bytes;
    return stats;
  }

  WorkerStatsMsg BuildStatsMsg() {
    WorkerStatsMsg stats = OwnCounters();
    host_->FoldCounters(stats);
    stats.clock_synced = transport_.clock_synced() ? 1 : 0;
    stats.clock_offset_us = transport_.ClockOffsets();
    stats.clock_uncertainty_us = transport_.ClockUncertainties();
    stats.round_link_stats = transport_.DrainLinkStats();
    for (RoundLinkStat& link : stats.round_link_stats) {
      // The receiver thread only knows the round seq; resolve the round's
      // (iteration, kind) from the rounds this worker actually executed.
      const auto it = round_info_.find(link.seq);
      if (it != round_info_.end()) {
        link.iteration = it->second.first;
        link.kind = it->second.second;
      }
    }
    return stats;
  }

  runtime::RuntimeStats LocalStats() {
    runtime::RuntimeStats stats = ToRuntimeStats(OwnCounters());
    host_->FoldCounters(stats);
    host_->FoldTimeline(stats.timeline);
    stats.num_workers = static_cast<uint32_t>(host_->hosted().size());
    stats.num_machines = num_machines_;
    stats.num_processes = num_procs_;
    stats.iterations = config_.iterations;
    stats.telemetry_samples = telemetry_->samples_taken();
    stats.telemetry_samples_dropped = telemetry_->total_dropped();
    stats.rss_bytes = obs::ReadMemoryUsage().rss_bytes;
    return stats;
  }

  /// This process's run report: its runtime counters and the hosted
  /// machines' superstep timeline.
  obs::JsonValue BuildReport() {
    obs::RunReportOptions report_options;
    report_options.name = "surfer_dist_worker_" + std::to_string(proc_);
    std::string machines;
    for (MachineId m : host_->hosted()) {
      machines += (machines.empty() ? "" : ",") + std::to_string(m);
    }
    report_options.notes = "distributed worker process " +
                           std::to_string(proc_) + "/" +
                           std::to_string(num_procs_) + " hosting machines [" +
                           machines + "]";
    const runtime::RuntimeStats stats = LocalStats();
    const obs::JsonValue runtime_block = runtime::RuntimeStatsToJson(stats);
    const obs::JsonValue timeline_block =
        runtime::TimelineToJson(stats.timeline);
    obs::JsonValue telemetry_block;
    const bool have_telemetry = telemetry_->enabled();
    if (have_telemetry) {
      telemetry_block = telemetry_->ToJson();
    }
    return obs::BuildRunReport(report_options, nullptr, nullptr, tracer_.get(),
                               &runtime_block, &timeline_block,
                               have_telemetry ? &telemetry_block : nullptr);
  }

  void WriteArtifacts() {
    if (options_.artifact_dir.empty()) {
      return;
    }
    telemetry_->Stop();
    const std::string stem =
        options_.artifact_dir + "/dist_worker_" + std::to_string(proc_);
    (void)obs::WriteRunReport(stem + ".report.json", BuildReport());
    obs::JsonValue trace = tracer_->ToChromeJson();
    if (trace.is_object()) {
      // Wall-clock anchor of this tracer's t=0, so surfer_trace merge can
      // align per-process timelines.
      trace.Set("origin_unix_us", obs::JsonValue(trace_origin_unix_us_));
      if (transport_.clock_synced()) {
        // Handshake-estimated peer-clock offsets: `surfer_trace merge`
        // prefers these over the wall-clock origins for shard alignment.
        obs::JsonValue sync = obs::JsonValue::MakeObject();
        sync.Set("proc", static_cast<uint64_t>(proc_));
        obs::JsonValue offsets = obs::JsonValue::MakeArray();
        for (const int64_t offset : transport_.ClockOffsets()) {
          offsets.Append(obs::JsonValue(offset));
        }
        obs::JsonValue uncertainty = obs::JsonValue::MakeArray();
        for (const uint64_t u : transport_.ClockUncertainties()) {
          uncertainty.Append(obs::JsonValue(u));
        }
        sync.Set("offsets_us", std::move(offsets));
        sync.Set("uncertainty_us", std::move(uncertainty));
        trace.Set("clock_sync", std::move(sync));
      }
    }
    (void)obs::WriteRunReport(stem + ".trace.json", trace);
  }

  // -------------------------------------------------------------------------

  const PartitionedGraph* graph_;
  App app_;
  PropagationConfig config_;
  DistributedOptions options_;
  const uint32_t proc_;
  WorkerTransport transport_;

  uint32_t num_machines_ = 0;
  uint32_t num_partitions_ = 0;
  uint32_t num_procs_ = 1;
  bool fault_tolerant_ = false;
  runtime::FaultController fault_;
  std::vector<std::vector<MachineId>> replicas_;
  std::unique_ptr<runtime::WireBufferPool> pool_;
  std::unique_ptr<runtime::PartitionTable<App>> table_;
  std::unique_ptr<Host> host_;

  std::vector<int32_t> state_version_;  ///< iteration of last combine, -1 none
  /// id -> (iteration of last update, output); the coordinator-side merge
  /// keeps the max-iteration entry across processes.
  std::map<uint64_t, std::pair<int32_t, VirtualOutput>> virtual_acc_;
  /// Normal sends of the current iteration (deep copies), replayed when an
  /// inbox holder dies. Cleared at each iteration boundary.
  std::vector<runtime::WireBatch> retained_;
  int started_iteration_ = -1;

  /// Health-plane state (main thread only). current_* mirror the round in
  /// flight for heartbeat snapshots; round_info_ maps round seq to
  /// (iteration, kind) so link stats recorded by seq can be attributed.
  uint32_t heartbeat_period_ms_ = 0;
  double last_heartbeat_us_ = 0.0;
  uint32_t current_stage_ = kIdleStage;
  int32_t current_iteration_ = 0;
  uint64_t current_round_seq_ = 0;
  bool barrier_waiting_ = false;
  std::map<uint64_t, std::pair<int32_t, uint32_t>> round_info_;
  /// Injected-straggler knobs (tests); stalled_ makes the pause one-shot.
  uint32_t stall_proc_ = 0xFFFFFFFFu;
  int32_t stall_iteration_ = 0;
  uint32_t stall_ms_ = 0;
  bool stalled_ = false;

  /// Counters this worker maintains itself (recovery tasks, resend and
  /// replication bytes, heartbeats); the host keeps the rest.
  WorkerStatsMsg counters_;

  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::TelemetryRecorder> telemetry_;
  double trace_origin_unix_us_ = 0.0;
};

}  // namespace detail

/// Parent-process front end of the distributed engine: forks one worker
/// process per machine group, lets DistributedCoordinator drive the BSP
/// rounds over the control plane, then assembles the version-merged final
/// states and the cluster-wide stats. Mirrors RuntimeExecutor's public
/// surface so core::Engine can treat the two engines uniformly.
template <typename App>
  requires DistributableApp<App>
class DistributedExecutor {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  DistributedExecutor(const PartitionedGraph* graph,
                      const ReplicatedPlacement* placement,
                      const Topology* topology, App app,
                      PropagationConfig config, DistributedOptions options = {})
      : graph_(graph),
        placement_(placement),
        topology_(topology),
        app_(std::move(app)),
        config_(config),
        options_(std::move(options)) {}

  Status Run() {
    SURFER_RETURN_IF_ERROR(PartitionKernel<App>::Validate(
        graph_, placement_, topology_, config_));
    const auto wall_start = std::chrono::steady_clock::now();
    const uint32_t num_machines = topology_->num_machines();
    const uint32_t num_processes =
        options_.max_processes == 0
            ? num_machines
            : std::min(options_.max_processes, num_machines);

    CoordinatorParams params;
    params.num_processes = num_processes;
    params.num_machines = num_machines;
    params.iterations = config_.iterations;
    params.placement = BuildPlacementMsg(num_machines);
    params.replicas = placement_;
    params.sigterm_machine = options_.sigterm_machine;
    params.sigterm_iteration = options_.sigterm_iteration;
    params.straggler_multiple = options_.straggler_multiple;
    params.straggler_min_ms = options_.straggler_min_ms;
    params.status_sink = options_.status_sink;

    DistributedCoordinator coordinator(
        params, [this](uint32_t proc, Socket control) {
          detail::DistributedWorker<App> worker(graph_, app_, config_,
                                                options_, proc,
                                                std::move(control));
          worker.Run();  // never returns
        });
    SURFER_ASSIGN_OR_RETURN(CoordinatorOutcome outcome, coordinator.Run());
    SURFER_RETURN_IF_ERROR(Assemble(outcome, num_processes, num_machines));
    stats_.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    return Status::OK();
  }

  const std::vector<VertexState>& states() const { return states_; }

  const std::map<uint64_t, VirtualOutput>& virtual_outputs() const {
    return virtual_outputs_;
  }

  const runtime::RuntimeStats& stats() const { return stats_; }

  /// The merged report's "cluster" block: coordinator-clock round timing,
  /// offset-corrected per-link latency samples, the per-superstep critical
  /// path, and the online straggler count. Null before Run.
  const obs::JsonValue& cluster_report() const { return cluster_report_; }

 private:
  PlacementMsg BuildPlacementMsg(uint32_t num_machines) const {
    PlacementMsg msg;
    msg.num_machines = num_machines;
    msg.num_partitions = placement_->num_partitions();
    msg.replication = kReplicationFactor;
    msg.fault_tolerant = (!options_.faults.empty() ||
                          options_.sigterm_machine != kInvalidMachine)
                             ? 1
                             : 0;
    msg.replicas.reserve(static_cast<size_t>(msg.num_partitions) *
                         kReplicationFactor);
    for (PartitionId p = 0; p < msg.num_partitions; ++p) {
      for (uint32_t r = 0; r < kReplicationFactor; ++r) {
        msg.replicas.push_back(placement_->replicas[p][r]);
      }
    }
    msg.faults = options_.faults;
    msg.heartbeat_period_ms = options_.heartbeat_period_ms;
    msg.clock_sync_pings = options_.clock_sync_pings;
    msg.stall_proc = options_.stall_proc;
    msg.stall_iteration = options_.stall_iteration;
    msg.stall_ms = options_.stall_ms;
    return msg;
  }

  Status Assemble(const CoordinatorOutcome& outcome, uint32_t num_processes,
                  uint32_t num_machines) {
    // Baseline, then overlay each partition's highest-version final state.
    states_ = PartitionKernel<App>(app_, *graph_).InitStates();
    std::vector<int32_t> best(graph_->num_partitions(), -1);
    for (const FinalStateMsg& msg : outcome.states) {
      SURFER_RETURN_IF_ERROR(ValidateStateBlock(
          {msg.partition, msg.begin, msg.count, msg.states.size()}, *graph_,
          sizeof(VertexState), /*virtual_entry_size=*/0));
      if (msg.version <= best[msg.partition]) {
        continue;
      }
      if (msg.count > 0) {
        std::memcpy(&states_[msg.begin], msg.states.data(), msg.states.size());
      }
      best[msg.partition] = msg.version;
    }
    for (PartitionId p = 0; p < best.size(); ++p) {
      if (best[p] < 0) {
        return Status::Internal("no final state received for partition " +
                                std::to_string(p));
      }
    }

    virtual_outputs_.clear();
    std::map<uint64_t, int32_t> virtual_version;
    constexpr size_t kEntry =
        sizeof(uint64_t) + sizeof(int32_t) + sizeof(VirtualOutput);
    for (const FinalVirtualMsg& msg : outcome.virtuals) {
      if (msg.entry_bytes != sizeof(VirtualOutput) ||
          msg.entries.size() != static_cast<size_t>(msg.count) * kEntry) {
        return Status::Corruption("malformed final virtual outputs");
      }
      const uint8_t* base = msg.entries.data();
      for (uint32_t i = 0; i < msg.count; ++i) {
        const uint64_t id = runtime::ReadPod<uint64_t>(base + i * kEntry);
        const int32_t version =
            runtime::ReadPod<int32_t>(base + i * kEntry + sizeof(uint64_t));
        const VirtualOutput output = runtime::ReadPod<VirtualOutput>(
            base + i * kEntry + sizeof(uint64_t) + sizeof(int32_t));
        auto it = virtual_version.find(id);
        if (it == virtual_version.end() || version > it->second) {
          virtual_version[id] = version;
          virtual_outputs_[id] = output;
        }
      }
    }

    stats_ = detail::ToRuntimeStats(outcome.totals);
    stats_.num_workers = num_processes;
    stats_.num_machines = num_machines;
    stats_.num_processes = num_processes;
    stats_.iterations = config_.iterations;
    stats_.machine_failures = outcome.machine_failures;
    stats_.barrier_generations = outcome.rounds;
    stats_.peak_rss_bytes = outcome.peak_worker_rss_bytes;
    stats_.rss_bytes = obs::ReadMemoryUsage().rss_bytes;

    BuildClusterView(outcome, num_processes);
    return Status::OK();
  }

  /// Folds the per-worker link records into offset-corrected cluster link
  /// samples, chains the per-superstep critical path, and serializes the
  /// "cluster" block (also written to dist_cluster.report.json when an
  /// artifact dir is configured).
  void BuildClusterView(const CoordinatorOutcome& outcome,
                        uint32_t num_processes) {
    std::vector<runtime::ClusterLinkSample> links;
    const size_t procs =
        std::min<size_t>(outcome.worker_stats.size(), num_processes);
    for (uint32_t to = 0; to < procs; ++to) {
      const WorkerStatsMsg& stats = outcome.worker_stats[to];
      for (const RoundLinkStat& raw : stats.round_link_stats) {
        runtime::ClusterLinkSample sample;
        sample.seq = raw.seq;
        sample.from_proc = raw.from_proc;
        sample.to_proc = to;
        sample.frames = raw.frames;
        sample.bytes = raw.bytes;
        // The receiver recorded (receiver clock - sender clock); adding its
        // handshake-estimated offset to the sender — (sender clock -
        // receiver clock) — recovers the true transit time.
        double offset = 0.0;
        if (stats.clock_synced != 0 &&
            raw.from_proc < stats.clock_offset_us.size()) {
          offset = static_cast<double>(stats.clock_offset_us[raw.from_proc]);
        }
        if (raw.frames > 0) {
          sample.mean_latency_us =
              static_cast<double>(raw.latency_sum_us) / raw.frames + offset;
        }
        sample.max_latency_us =
            static_cast<double>(raw.latency_max_us) + offset;
        links.push_back(sample);
      }
    }
    cluster_report_ = runtime::ClusterTimelineToJson(
        outcome.round_records, links, outcome.stragglers_flagged);
    if (!options_.artifact_dir.empty()) {
      obs::JsonValue doc = obs::JsonValue::MakeObject();
      doc.Set("name", obs::JsonValue("surfer_dist_cluster"));
      doc.Set("schema_version", obs::kRunReportSchemaVersion);
      doc.Set("cluster", cluster_report_);
      (void)obs::WriteRunReport(
          options_.artifact_dir + "/dist_cluster.report.json", doc);
    }
  }

  const PartitionedGraph* graph_;
  const ReplicatedPlacement* placement_;
  const Topology* topology_;
  App app_;
  PropagationConfig config_;
  DistributedOptions options_;

  std::vector<VertexState> states_;
  std::map<uint64_t, VirtualOutput> virtual_outputs_;
  runtime::RuntimeStats stats_;
  obs::JsonValue cluster_report_;
};

}  // namespace net
}  // namespace surfer

#endif  // SURFER_NET_DISTRIBUTED_H_
