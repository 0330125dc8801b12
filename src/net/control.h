#ifndef SURFER_NET_CONTROL_H_
#define SURFER_NET_CONTROL_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/types.h"
#include "net/frame.h"
#include "runtime/fault.h"
#include "runtime/stats.h"
#include "storage/partitioned_graph.h"

namespace surfer {
namespace net {

// Control codec. Every control message lists its fields once, in wire
// order, in a static `Fields(m, f)` that calls `f` with all of them
// (`FieldList` supplies the list for a type that cannot carry one), and
// one Encode/Decode pair walks that list under three rules:
//  - a scalar (integer, enum, double, padding-free struct) goes as its raw
//    bytes;
//  - a vector goes as a u32 count and then its elements: raw when the
//    element type has no padding, field by field when it has a field list.
//    The decoder checks the count against the bytes left before it
//    allocates anything;
//  - bytes left after the last field make the payload Corruption.
// Nothing else goes on the wire (no tags, no per-field headers), so a
// struct's field order and widths are its layout: changing either changes
// the bytes and needs a kFrameVersion bump.

/// The field list of a control type: its own static `Fields`, if any.
template <typename T>
struct FieldList {
  template <typename M, typename F>
  static auto Apply(M& m, F&& f)
      -> decltype(std::remove_const_t<M>::Fields(m, f)) {
    std::remove_const_t<M>::Fields(m, f);
  }
};

/// RuntimeFaultPlan's wire fields: u32 machine, i32 iteration, u8 stage,
/// u32 after_tasks (13 bytes; the struct itself is padded).
template <>
struct FieldList<runtime::RuntimeFaultPlan> {
  template <typename M, typename F>
  static void Apply(M& m, F&& f) {
    f(m.machine, m.iteration, m.stage, m.after_tasks);
  }
};

template <typename T>
concept HasFieldList =
    requires(T& t) { FieldList<T>::Apply(t, [](auto&...) {}); };

/// `m` as its base class `B`, keeping m's constness (a field list names a
/// base class as one field).
template <typename B, typename M>
auto& AsBase(M& m) {
  return static_cast<std::conditional_t<std::is_const_v<M>, const B, B>&>(m);
}

/// What a BSP round asks the workers to do. kTransfer and kCombine map to
/// the two halves of a superstep; kResend is the recovery-only round that
/// rebuilds a re-homed partition's inbox (retained-batch resend plus
/// re-execution of transfer tasks whose producer died) before its combine
/// task runs on the first alive replica.
enum class RoundKind : uint8_t {
  kTransfer = 0,
  kCombine = 1,
  kResend = 2,
};

/// worker -> coordinator, first control frame: which process this is and
/// where its mesh listener is.
struct HelloMsg {
  uint32_t proc = 0;
  uint16_t mesh_port = 0;
  template <typename M, typename F>
  static void Fields(M& m, F&& f) { f(m.proc, m.mesh_port); }
};

/// coordinator -> workers: every process's mesh listener port, indexed by
/// process. Workers build the full mesh from this (process i dials every
/// j < i, accepts from every j > i).
struct PeersMsg {
  std::vector<uint16_t> ports;
  template <typename M, typename F>
  static void Fields(M& m, F&& f) { f(m.ports); }
};

/// coordinator -> workers: the replica placement table (row-major partition
/// x replica machine ids) and the fault schedule. The placement crossing the
/// control plane — rather than being inherited through fork — is what makes
/// the coordinator the single source of truth for task routing.
struct PlacementMsg {
  uint32_t num_machines = 0;
  uint32_t num_partitions = 0;
  uint32_t replication = 0;
  /// Faults (or a scheduled SIGTERM) are possible this run: workers retain
  /// sent batches for resend and replicate post-combine state to replica
  /// holders. Off on clean runs so the no-fault path pays nothing.
  uint8_t fault_tolerant = 0;
  std::vector<MachineId> replicas;  ///< partition-major, num_partitions x replication
  std::vector<runtime::RuntimeFaultPlan> faults;
  /// Health-plane knobs. heartbeat_period_ms == 0 disables heartbeats;
  /// clock_sync_pings == 0 disables the handshake clock-offset exchange.
  uint32_t heartbeat_period_ms = 0;
  uint32_t clock_sync_pings = 0;
  /// Straggler-injection knob for tests: process `stall_proc` sleeps
  /// `stall_ms` milliseconds at the start of iteration `stall_iteration`'s
  /// combine stage (UINT32_MAX = no stall).
  uint32_t stall_proc = 0xFFFFFFFFu;
  int32_t stall_iteration = 0;
  uint32_t stall_ms = 0;
  template <typename M, typename F>
  static void Fields(M& m, F&& f) {
    f(m.num_machines, m.num_partitions, m.replication, m.fault_tolerant,
      m.replicas, m.faults, m.heartbeat_period_ms, m.clock_sync_pings,
      m.stall_proc, m.stall_iteration, m.stall_ms);
  }
};

/// coordinator -> workers: one round of the barrier protocol. `seq` is a
/// global monotone round counter (EOS frames carry it, so drain progress is
/// unambiguous across recovery rounds). `exec[p]` names the machine running
/// partition p's task this round (kInvalidMachine = not scheduled);
/// `route[d]` names the machine to which dst-partition-d traffic must be
/// sent (transfer and resend rounds); `reexec[q]` names the machine that
/// must re-run q's transfer task during a resend round because the original
/// executor died with its retained output.
struct RoundMsg {
  uint32_t seq = 0;
  int32_t iteration = 0;
  RoundKind kind = RoundKind::kTransfer;
  uint8_t recovery = 0;
  std::vector<uint8_t> alive;       ///< per machine
  std::vector<MachineId> exec;      ///< per partition
  std::vector<MachineId> route;     ///< per partition
  std::vector<MachineId> reexec;    ///< per partition
  template <typename M, typename F>
  static void Fields(M& m, F&& f) {
    f(m.seq, m.iteration, m.kind, m.recovery, m.alive, m.exec, m.route,
      m.reexec);
  }
};

/// worker -> coordinator after each completed task.
struct TaskDoneMsg {
  uint32_t partition = 0;
  uint32_t machine = 0;
  int32_t iteration = 0;
  uint8_t kind = 0;  ///< RoundKind of the round the task ran in
  template <typename M, typename F>
  static void Fields(M& m, F&& f) {
    f(m.partition, m.machine, m.iteration, m.kind);
  }
};

/// worker -> coordinator (kRoundDone) and worker -> worker (kEos).
struct SeqMsg {
  uint32_t seq = 0;
  uint32_t src_proc = 0;
  template <typename M, typename F>
  static void Fields(M& m, F&& f) { f(m.seq, m.src_proc); }
};

/// worker -> coordinator, periodic (kHeartbeat): a snapshot of the worker's
/// load, sourced from the same providers that feed the TelemetryRecorder
/// gauges. The coordinator folds these into its live status table and the
/// straggler detector; losing one is harmless (the next one supersedes it).
struct HeartbeatMsg {
  uint32_t proc = 0;
  uint32_t stage = 0;          ///< RoundKind of the active round; kIdleStage between rounds
  int32_t iteration = 0;
  uint64_t round_seq = 0;      ///< seq of the round being executed (0 = none yet)
  uint64_t mailbox_frames = 0; ///< undrained inbound frames across all links
  uint64_t inflight_bytes = 0; ///< inbound payload bytes not yet consumed
  uint64_t staged_wire_bytes = 0;  ///< bytes staged for sending
  uint64_t rss_bytes = 0;      ///< 0 when /proc-based sampling is unavailable
  uint32_t barrier_waiting = 0;    ///< 1 while blocked in the EOS drain wait
  uint64_t unix_us = 0;        ///< worker clock when the snapshot was taken
  template <typename M, typename F>
  static void Fields(M& m, F&& f) {
    f(m.proc, m.stage, m.iteration, m.round_seq, m.mailbox_frames,
      m.inflight_bytes, m.staged_wire_bytes, m.rss_bytes, m.barrier_waiting,
      m.unix_us);
  }
};

/// HeartbeatMsg::stage value meaning "no round is executing".
inline constexpr uint32_t kIdleStage = 0xFFFFFFFFu;

/// Clock-sync session payloads (mesh rendezvous). The interesting
/// timestamps ride in the frame headers, not here: t1 is the ping's
/// send_unix_us, t2 the ping's receive stamp at the server (echoed back in
/// the pong), t3 the pong's own send_unix_us, t4 the pong's receive stamp
/// at the client.
struct ClockPingMsg {
  uint32_t seq = 0;
  template <typename M, typename F>
  static void Fields(M& m, F&& f) { f(m.seq); }
};
struct ClockPongMsg {
  uint32_t seq = 0;
  uint64_t t1 = 0;  ///< echoed ping send stamp (client clock)
  uint64_t t2 = 0;  ///< ping receive stamp (server clock)
  template <typename M, typename F>
  static void Fields(M& m, F&& f) { f(m.seq, m.t1, m.t2); }
};
/// client -> server at session end: the client's offset estimate so both
/// ends of the link agree (the server stores the negation).
struct ClockOffsetMsg {
  int64_t offset_us = 0;       ///< server clock minus client clock
  uint64_t uncertainty_us = 0; ///< half the minimum observed round trip
  template <typename M, typename F>
  static void Fields(M& m, F&& f) { f(m.offset_us, m.uncertainty_us); }
};

/// One per-(round, inbound link) latency/queueing record accumulated by the
/// transport receiver threads from frame send/recv stamps. Latencies are in
/// raw clock terms (receiver clock minus sender clock, *not* offset
/// corrected); the analysis side applies the handshake offsets. Laid out
/// padding-free so a vector of them ships raw through the control codec.
struct RoundLinkStat {
  uint64_t seq = 0;            ///< round the frames belonged to
  int32_t iteration = 0;
  uint32_t kind = 0;           ///< RoundKind
  uint32_t from_proc = 0;      ///< sending peer (receiver is the reporting worker)
  uint32_t frames = 0;
  uint64_t bytes = 0;          ///< payload bytes received on the link this round
  int64_t latency_sum_us = 0;  ///< sum of (recv - send) per frame, raw clocks
  int64_t latency_max_us = 0;
  uint64_t first_send_us = 0;  ///< earliest send stamp (sender clock)
  uint64_t last_recv_us = 0;   ///< latest recv stamp (receiver clock)
};
static_assert(std::is_trivially_copyable_v<RoundLinkStat>);
static_assert(sizeof(RoundLinkStat) == 64);

/// worker -> worker after combining a partition (fault-tolerant runs only):
/// the partition's fresh vertex states, and the virtual-vertex outputs its
/// combine produced this iteration, shipped to the partition's other replica
/// holders so a first-alive-replica takeover starts from current state.
struct StateUpdateMsg {
  uint32_t partition = 0;
  int32_t iteration = 0;
  uint32_t begin = 0;       ///< first encoded vertex id of the partition
  uint32_t count = 0;       ///< number of vertices
  std::vector<uint8_t> states;    ///< count * sizeof(VertexState) raw bytes
  uint32_t virtual_count = 0;
  std::vector<uint8_t> virtuals;  ///< virtual_count * (u64 id + VirtualOutput)
  template <typename M, typename F>
  static void Fields(M& m, F&& f) {
    f(m.partition, m.iteration, m.begin, m.count, m.states, m.virtual_count,
      m.virtuals);
  }
};

/// worker -> coordinator at finalize: counters and the worker's additive
/// share of the M x M link matrix.
struct WorkerStatsMsg : runtime::EngineCounters {
  double combine_scatter_seconds = 0.0;  ///< combine regroup scatter time
  uint64_t peak_rss_bytes = 0;
  uint64_t heartbeats_sent = 0;
  uint8_t clock_synced = 0;  ///< handshake ping exchange ran on every link
  std::vector<uint64_t> link_bytes;  ///< row-major M x M, this worker's sends
  /// Estimated peer-clock offsets from the handshake ping exchange, indexed
  /// by process ([self] == 0): offset_us[j] = clock_j - clock_self.
  std::vector<int64_t> clock_offset_us;
  std::vector<uint64_t> clock_uncertainty_us;
  /// Per-(round, inbound link) latency records from frame stamps.
  std::vector<RoundLinkStat> round_link_stats;
  template <typename M, typename F>
  static void Fields(M& m, F&& f) {
    f(AsBase<runtime::EngineCounters>(m), m.combine_scatter_seconds,
      m.peak_rss_bytes, m.heartbeats_sent, m.clock_synced, m.link_bytes,
      m.clock_offset_us, m.clock_uncertainty_us, m.round_link_stats);
  }
};

/// worker -> coordinator at finalize: one partition's final vertex states,
/// stamped with the last iteration whose combine produced them. The
/// coordinator keeps the highest stamp per partition, which is how a replica
/// holder's copy wins over a dead primary's lost one.
struct FinalStateMsg {
  uint32_t partition = 0;
  int32_t version = -1;
  uint32_t begin = 0;
  uint32_t count = 0;
  std::vector<uint8_t> states;
  template <typename M, typename F>
  static void Fields(M& m, F&& f) {
    f(m.partition, m.version, m.begin, m.count, m.states);
  }
};

/// worker -> coordinator at finalize: iteration-stamped virtual-vertex
/// outputs, entries of (u64 id, i32 version, VirtualOutput bytes).
struct FinalVirtualMsg {
  uint32_t entry_bytes = 0;  ///< sizeof(VirtualOutput)
  uint32_t count = 0;
  std::vector<uint8_t> entries;
  template <typename M, typename F>
  static void Fields(M& m, F&& f) { f(m.entry_bytes, m.count, m.entries); }
};

/// Checks a decoded round before a worker acts on it: a known kind, an
/// iteration in [0, iterations), one `alive` entry per machine, one
/// `exec`/`route`/`reexec` entry per partition, every machine id
/// < num_machines or kInvalidMachine, and no transfer round routing any
/// partition to kInvalidMachine. Corruption naming the first violation
/// otherwise.
Status ValidateRound(const RoundMsg& round, uint32_t num_partitions,
                     uint32_t num_machines, int iterations);

/// Checks a task report from process `proc` against the round in flight
/// before the coordinator records it: the partition is < num_partitions,
/// the machine is < num_machines and hosted by `proc` (m % num_processes ==
/// proc), and kind and iteration are the round's. Corruption naming the
/// first violation otherwise.
Status ValidateTaskDone(const TaskDoneMsg& task, const RoundMsg& round,
                        uint32_t proc, uint32_t num_processes,
                        uint32_t num_partitions, uint32_t num_machines);

/// The shape of a received block of vertex states: a replication update
/// (StateUpdateMsg, which also carries virtual outputs) or a final state.
struct StateBlock {
  uint32_t partition = 0;
  uint32_t begin = 0;
  uint32_t count = 0;
  size_t state_bytes = 0;
  uint64_t virtual_count = 0;
  size_t virtual_bytes = 0;
};

/// Checks that a state block covers exactly the partition it names: the
/// partition exists in `graph`, begin/count equal its vertex range,
/// state_bytes is count states of `state_size` bytes, and virtual_bytes is
/// virtual_count entries of `virtual_entry_size` bytes. Run before any byte
/// is applied, so a block can neither overwrite a neighbour's range nor be
/// applied in part. Corruption naming the mismatch otherwise.
Status ValidateStateBlock(const StateBlock& block,
                          const PartitionedGraph& graph, size_t state_size,
                          size_t virtual_entry_size);

namespace codec {

template <typename T>
struct IsVector : std::false_type {};
template <typename E>
struct IsVector<std::vector<E>> : std::true_type {};

template <typename T>
void Put(std::vector<uint8_t>& out, const T& value) {
  if constexpr (HasFieldList<T>) {
    FieldList<T>::Apply(value,
                        [&](const auto&... field) { (Put(out, field), ...); });
  } else if constexpr (IsVector<T>::value) {
    using E = typename T::value_type;
    runtime::AppendPod(out, static_cast<uint32_t>(value.size()));
    if constexpr (HasFieldList<E>) {
      for (const E& element : value) {
        Put(out, element);
      }
    } else {
      static_assert(std::has_unique_object_representations_v<E>,
                    "a padded vector element needs a field list");
      const auto* bytes = reinterpret_cast<const uint8_t*>(value.data());
      out.insert(out.end(), bytes, bytes + value.size() * sizeof(E));
    }
  } else {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T> ||
                      std::has_unique_object_representations_v<T>,
                  "a padded field needs a field list");
    runtime::AppendPod(out, value);
  }
}

template <typename T>
Status Get(PayloadReader& in, T& value) {
  if constexpr (HasFieldList<T>) {
    Status status;
    FieldList<T>::Apply(value, [&](auto&... field) {
      (... && (status = Get(in, field)).ok());
    });
    return status;
  } else if constexpr (IsVector<T>::value) {
    using E = typename T::value_type;
    uint32_t count = 0;
    SURFER_RETURN_IF_ERROR(in.Read(&count));
    // An element takes sizeof(E) bytes raw and at least one field by field,
    // so a count the bytes left cannot hold is refused before allocating;
    // field-by-field elements then grow the vector only as they decode.
    if (count > in.remaining() / (HasFieldList<E> ? 1 : sizeof(E))) {
      return Status::Corruption("control vector length exceeds payload");
    }
    value.clear();
    if constexpr (HasFieldList<E>) {
      for (uint32_t i = 0; i < count; ++i) {
        SURFER_RETURN_IF_ERROR(Get(in, value.emplace_back()));
      }
    } else if (count > 0) {
      value.resize(count);
      return in.ReadBytes(value.data(), value.size() * sizeof(E));
    }
    return Status::OK();
  } else {
    return in.Read(&value);
  }
}

}  // namespace codec

/// The payload of one control message.
template <HasFieldList Msg>
std::vector<uint8_t> Encode(const Msg& msg) {
  std::vector<uint8_t> out;
  codec::Put(out, msg);
  return out;
}

/// Decodes a payload written by Encode<Msg>. Corruption when it is short,
/// when a vector count exceeds the bytes left, or when bytes are left over.
template <HasFieldList Msg>
Result<Msg> Decode(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  Msg msg;
  SURFER_RETURN_IF_ERROR(codec::Get(reader, msg));
  if (reader.remaining() != 0) {
    return Status::Corruption("control payload has " +
                              std::to_string(reader.remaining()) +
                              " trailing bytes");
  }
  return msg;
}

}  // namespace net
}  // namespace surfer

#endif  // SURFER_NET_CONTROL_H_
