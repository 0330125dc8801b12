#include "net/control.h"

#include "runtime/wire_batch.h"

namespace surfer {
namespace net {

using runtime::AppendPod;

namespace {

template <typename T>
void AppendVector(std::vector<uint8_t>& out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendPod(out, static_cast<uint32_t>(values.size()));
  const size_t offset = out.size();
  out.resize(offset + values.size() * sizeof(T));
  if (!values.empty()) {
    std::memcpy(out.data() + offset, values.data(),
                values.size() * sizeof(T));
  }
}

template <typename T>
Status ReadVector(PayloadReader& reader, std::vector<T>* values) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint32_t count = 0;
  SURFER_RETURN_IF_ERROR(reader.Read(&count));
  if (static_cast<size_t>(count) * sizeof(T) > reader.remaining()) {
    return Status::Corruption("control vector length exceeds payload");
  }
  values->resize(count);
  if (count > 0) {
    SURFER_RETURN_IF_ERROR(
        reader.ReadBytes(values->data(), count * sizeof(T)));
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeHello(const HelloMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.proc);
  AppendPod(out, msg.mesh_port);
  return out;
}

Result<HelloMsg> DecodeHello(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  HelloMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.proc));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.mesh_port));
  return msg;
}

std::vector<uint8_t> EncodePeers(const PeersMsg& msg) {
  std::vector<uint8_t> out;
  AppendVector(out, msg.ports);
  return out;
}

Result<PeersMsg> DecodePeers(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  PeersMsg msg;
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.ports));
  return msg;
}

std::vector<uint8_t> EncodePlacement(const PlacementMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.num_machines);
  AppendPod(out, msg.num_partitions);
  AppendPod(out, msg.replication);
  AppendPod(out, msg.fault_tolerant);
  AppendVector(out, msg.replicas);
  AppendPod(out, static_cast<uint32_t>(msg.faults.size()));
  for (const runtime::RuntimeFaultPlan& plan : msg.faults) {
    AppendPod(out, static_cast<uint32_t>(plan.machine));
    AppendPod(out, static_cast<int32_t>(plan.iteration));
    AppendPod(out, static_cast<uint8_t>(plan.stage));
    AppendPod(out, plan.after_tasks);
  }
  AppendPod(out, msg.heartbeat_period_ms);
  AppendPod(out, msg.clock_sync_pings);
  AppendPod(out, msg.stall_proc);
  AppendPod(out, msg.stall_iteration);
  AppendPod(out, msg.stall_ms);
  return out;
}

Result<PlacementMsg> DecodePlacement(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  PlacementMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.num_machines));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.num_partitions));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.replication));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.fault_tolerant));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.replicas));
  uint32_t fault_count = 0;
  SURFER_RETURN_IF_ERROR(reader.Read(&fault_count));
  msg.faults.resize(fault_count);
  for (runtime::RuntimeFaultPlan& plan : msg.faults) {
    uint32_t machine = 0;
    int32_t iteration = 0;
    uint8_t stage = 0;
    SURFER_RETURN_IF_ERROR(reader.Read(&machine));
    SURFER_RETURN_IF_ERROR(reader.Read(&iteration));
    SURFER_RETURN_IF_ERROR(reader.Read(&stage));
    SURFER_RETURN_IF_ERROR(reader.Read(&plan.after_tasks));
    plan.machine = machine;
    plan.iteration = iteration;
    plan.stage = static_cast<runtime::RuntimeStage>(stage);
  }
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.heartbeat_period_ms));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.clock_sync_pings));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.stall_proc));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.stall_iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.stall_ms));
  return msg;
}

std::vector<uint8_t> EncodeRound(const RoundMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.seq);
  AppendPod(out, msg.iteration);
  AppendPod(out, static_cast<uint8_t>(msg.kind));
  AppendPod(out, msg.recovery);
  AppendVector(out, msg.alive);
  AppendVector(out, msg.exec);
  AppendVector(out, msg.route);
  AppendVector(out, msg.reexec);
  return out;
}

Result<RoundMsg> DecodeRound(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  RoundMsg msg;
  uint8_t kind = 0;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.seq));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&kind));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.recovery));
  msg.kind = static_cast<RoundKind>(kind);
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.alive));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.exec));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.route));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.reexec));
  return msg;
}

Status ValidateRound(const RoundMsg& round, uint32_t num_partitions,
                     uint32_t num_machines, int iterations) {
  const std::string what = "round " + std::to_string(round.seq) + ": ";
  if (round.kind > RoundKind::kResend) {
    return Status::Corruption(what + "unknown kind");
  }
  if (round.iteration < 0 || round.iteration >= iterations) {
    return Status::Corruption(what + "iteration " +
                              std::to_string(round.iteration) +
                              " is out of range");
  }
  if (round.alive.size() != num_machines) {
    return Status::Corruption(what + "alive is not one entry per machine");
  }
  // kInvalidMachine means "not scheduled", except that a transfer round
  // must route every partition somewhere.
  auto check = [&](const char* name, const std::vector<MachineId>& ids,
                   bool allow_invalid) {
    if (ids.size() != num_partitions) {
      return Status::Corruption(what + name +
                                " is not one entry per partition");
    }
    for (const MachineId m : ids) {
      if (m == kInvalidMachine ? !allow_invalid : m >= num_machines) {
        return Status::Corruption(what + name + " names machine " +
                                  std::to_string(m));
      }
    }
    return Status::OK();
  };
  SURFER_RETURN_IF_ERROR(check("exec", round.exec, true));
  SURFER_RETURN_IF_ERROR(
      check("route", round.route, round.kind != RoundKind::kTransfer));
  return check("reexec", round.reexec, true);
}

std::vector<uint8_t> EncodeTaskDone(const TaskDoneMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.partition);
  AppendPod(out, msg.machine);
  AppendPod(out, msg.iteration);
  AppendPod(out, msg.kind);
  return out;
}

Result<TaskDoneMsg> DecodeTaskDone(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  TaskDoneMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.partition));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.machine));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.kind));
  return msg;
}

std::vector<uint8_t> EncodeSeq(const SeqMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.seq);
  AppendPod(out, msg.src_proc);
  return out;
}

Result<SeqMsg> DecodeSeq(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  SeqMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.seq));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.src_proc));
  return msg;
}

std::vector<uint8_t> EncodeHeartbeat(const HeartbeatMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.proc);
  AppendPod(out, msg.stage);
  AppendPod(out, msg.iteration);
  AppendPod(out, msg.round_seq);
  AppendPod(out, msg.mailbox_frames);
  AppendPod(out, msg.inflight_bytes);
  AppendPod(out, msg.staged_wire_bytes);
  AppendPod(out, msg.rss_bytes);
  AppendPod(out, msg.barrier_waiting);
  AppendPod(out, msg.unix_us);
  return out;
}

Result<HeartbeatMsg> DecodeHeartbeat(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  HeartbeatMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.proc));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.stage));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.round_seq));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.mailbox_frames));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.inflight_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.staged_wire_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.rss_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.barrier_waiting));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.unix_us));
  return msg;
}

std::vector<uint8_t> EncodeClockPing(const ClockPingMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.seq);
  return out;
}

Result<ClockPingMsg> DecodeClockPing(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  ClockPingMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.seq));
  return msg;
}

std::vector<uint8_t> EncodeClockPong(const ClockPongMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.seq);
  AppendPod(out, msg.t1);
  AppendPod(out, msg.t2);
  return out;
}

Result<ClockPongMsg> DecodeClockPong(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  ClockPongMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.seq));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.t1));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.t2));
  return msg;
}

std::vector<uint8_t> EncodeClockOffset(const ClockOffsetMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.offset_us);
  AppendPod(out, msg.uncertainty_us);
  return out;
}

Result<ClockOffsetMsg> DecodeClockOffset(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  ClockOffsetMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.offset_us));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.uncertainty_us));
  return msg;
}

std::vector<uint8_t> EncodeStateUpdate(const StateUpdateMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.partition);
  AppendPod(out, msg.iteration);
  AppendPod(out, msg.begin);
  AppendPod(out, msg.count);
  AppendVector(out, msg.states);
  AppendPod(out, msg.virtual_count);
  AppendVector(out, msg.virtuals);
  return out;
}

Result<StateUpdateMsg> DecodeStateUpdate(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  StateUpdateMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.partition));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.iteration));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.begin));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.count));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.states));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.virtual_count));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.virtuals));
  return msg;
}

std::vector<uint8_t> EncodeWorkerStats(const WorkerStatsMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, static_cast<const runtime::EngineCounters&>(msg));
  AppendPod(out, msg.combine_scatter_seconds);
  AppendPod(out, msg.peak_rss_bytes);
  AppendPod(out, msg.heartbeats_sent);
  AppendPod(out, msg.clock_synced);
  AppendVector(out, msg.link_bytes);
  AppendVector(out, msg.clock_offset_us);
  AppendVector(out, msg.clock_uncertainty_us);
  AppendVector(out, msg.round_link_stats);
  return out;
}

Result<WorkerStatsMsg> DecodeWorkerStats(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  WorkerStatsMsg msg;
  runtime::EngineCounters counters;
  SURFER_RETURN_IF_ERROR(reader.Read(&counters));
  static_cast<runtime::EngineCounters&>(msg) = counters;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.combine_scatter_seconds));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.peak_rss_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.heartbeats_sent));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.clock_synced));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.link_bytes));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.clock_offset_us));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.clock_uncertainty_us));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.round_link_stats));
  return msg;
}

std::vector<uint8_t> EncodeFinalState(const FinalStateMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.partition);
  AppendPod(out, msg.version);
  AppendPod(out, msg.begin);
  AppendPod(out, msg.count);
  AppendVector(out, msg.states);
  return out;
}

Result<FinalStateMsg> DecodeFinalState(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  FinalStateMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.partition));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.version));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.begin));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.count));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.states));
  return msg;
}

std::vector<uint8_t> EncodeFinalVirtual(const FinalVirtualMsg& msg) {
  std::vector<uint8_t> out;
  AppendPod(out, msg.entry_bytes);
  AppendPod(out, msg.count);
  AppendVector(out, msg.entries);
  return out;
}

Result<FinalVirtualMsg> DecodeFinalVirtual(
    const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  FinalVirtualMsg msg;
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.entry_bytes));
  SURFER_RETURN_IF_ERROR(reader.Read(&msg.count));
  SURFER_RETURN_IF_ERROR(ReadVector(reader, &msg.entries));
  return msg;
}

Status ValidateStateBlock(const StateBlock& block,
                          const PartitionedGraph& graph, size_t state_size,
                          size_t virtual_entry_size) {
  const std::string what =
      "state block of partition " + std::to_string(block.partition);
  if (block.partition >= graph.num_partitions()) {
    return Status::Corruption(what + ": no such partition");
  }
  const PartitionMeta& meta = graph.partition(block.partition);
  if (block.begin != meta.begin || block.count != meta.end - meta.begin) {
    return Status::Corruption(what + " does not cover exactly its range");
  }
  if (block.state_bytes != static_cast<size_t>(block.count) * state_size ||
      block.virtual_bytes != block.virtual_count * virtual_entry_size) {
    return Status::Corruption(what + " has a byte size mismatch");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace surfer
