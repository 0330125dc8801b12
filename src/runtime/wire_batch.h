#ifndef SURFER_RUNTIME_WIRE_BATCH_H_
#define SURFER_RUNTIME_WIRE_BATCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "graph/types.h"
#include "propagation/app_traits.h"
#include "propagation/partition_kernel.h"

namespace surfer {
namespace runtime {

/// Apps whose messages can go on the wire: serialization is a raw memcpy of
/// the message value, so the type must be trivially copyable. Every paper
/// app with O(1)-sized messages (NR, VDD, the recommender, ...) qualifies;
/// list-valued messages (RLG, TC, TFL) stay on the analytic engine.
template <typename App>
concept WireSerializableApp =
    std::is_trivially_copyable_v<typename App::Message>;

/// Tuning knobs of the wire plane. Batches seal when they reach
/// `max_batch_bytes` (size flush), when they have been open longer than
/// `flush_deadline_seconds` (deadline flush, checked between tasks), or at
/// the end of a machine's stage work (stage-end flush). `wire_combine`
/// gates the seal-time local combination for MergeableApps; the combination
/// still only runs when the job's PropagationConfig enables it.
struct WireBatchOptions {
  size_t max_batch_bytes = 64 << 10;
  double flush_deadline_seconds = 0.002;
  bool wire_combine = true;
};

/// A sealed chunk of wire traffic between two machines: the unit of channel
/// transfer. The payload is a pooled byte buffer holding one or more
/// *segments*, each a contiguous run of one (src partition -> dst partition)
/// message stream. Channel capacity weighs batches by wire_size(), so a
/// link's bounded channel models bytes-in-flight rather than item count.
struct WireBatch {
  MachineId src_machine = kInvalidMachine;
  MachineId dst_machine = kInvalidMachine;
  uint32_t num_segments = 0;
  uint64_t num_messages = 0;
  /// Post-combine cost-model bytes (sum of app MessageBytes), the quantity
  /// the analytic runner prices; distinct from wire_size(), which includes
  /// framing and fixed-width record encoding.
  uint64_t priced_bytes = 0;
  std::vector<uint8_t> payload;

  size_t wire_size() const { return payload.size(); }
};

inline constexpr uint32_t kWireSegmentReal = 0;
inline constexpr uint32_t kWireSegmentVirtual = 1;

/// Frames one segment inside a batch payload. `count` records follow the
/// header: a real record is (VertexId, Message), a virtual record is
/// (uint64_t id, Message), both raw little-endian pods. A stream split
/// across batches by a size/deadline flush appears as several segments with
/// the same (src_partition, dst_partition); per-segment priced_bytes sum to
/// the stream's post-combine cost, which keeps recovery refetch accounting
/// exact at chunk granularity.
struct WireSegmentHeader {
  uint32_t src_partition = 0;
  uint32_t dst_partition = 0;
  uint32_t kind = kWireSegmentReal;
  uint32_t count = 0;
  uint64_t priced_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<WireSegmentHeader>);
static_assert(sizeof(WireSegmentHeader) == 24);

template <typename T>
inline void AppendPod(std::vector<uint8_t>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
inline T ReadPod(const uint8_t* data) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

/// Freelist of payload buffers shared by all staging machines of one run.
/// Released buffers are poisoned with 0xDD (the whole stored size) so a
/// reader holding a stale view of a recycled buffer fails loudly in tests
/// rather than silently seeing the next batch's bytes; Acquire clears the
/// buffer (keeping its capacity) before handing it out, so steady state
/// performs no per-message — and after warm-up no per-batch — allocation.
class WireBufferPool {
 public:
  struct Stats {
    uint64_t acquires = 0;
    uint64_t reuses = 0;
  };

  std::vector<uint8_t> Acquire();
  void Release(std::vector<uint8_t> buffer);
  Stats stats() const;

  /// Lock-free occupancy mirrors for the telemetry sampler. Outstanding is
  /// acquires minus releases: buffers currently filling or in flight.
  /// Sustained zero free with nonzero outstanding means every acquire
  /// allocates fresh — pool exhaustion.
  uint64_t ApproxFreeBuffers() const {
    return approx_free_.load(std::memory_order_relaxed);
  }
  uint64_t ApproxOutstandingBuffers() const {
    return approx_outstanding_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<uint8_t>> free_;
  Stats stats_;
  std::atomic<uint64_t> approx_free_{0};
  std::atomic<uint64_t> approx_outstanding_{0};
};

/// Decodes a batch payload segment by segment. The reader copies records out
/// into typed vectors (the executor moves them straight into inbox chunks).
template <typename Message>
class WireBatchReader {
  static_assert(std::is_trivially_copyable_v<Message>);

 public:
  struct Segment {
    WireSegmentHeader header;
    std::vector<std::pair<VertexId, Message>> real;
    std::vector<std::pair<uint64_t, Message>> virtuals;
  };

  explicit WireBatchReader(const WireBatch& batch) : batch_(batch) {}

  /// Next segment, or nullopt once the payload is exhausted or corrupt.
  std::optional<Segment> Next() {
    Segment segment;
    Result<bool> decoded = NextInto(segment);
    if (!decoded.ok() || !*decoded) {
      return std::nullopt;
    }
    return segment;
  }

  /// Decode-into variant that reuses the segment's record-vector capacity:
  /// engines feed recycled inbox-chunk buffers through this, so after
  /// warm-up deserialization performs no per-segment allocation. Returns
  /// false (with both vectors cleared) once the payload is exhausted, and
  /// Corruption when a header or its `count` records overrun the payload —
  /// the bytes may come from a peer process, so nothing past the end is
  /// ever read.
  Result<bool> NextInto(Segment& segment) {
    segment.real.clear();
    segment.virtuals.clear();
    const size_t size = batch_.payload.size();
    if (offset_ >= size) {
      return false;
    }
    if (size - offset_ < sizeof(WireSegmentHeader)) {
      return Status::Corruption("wire segment header truncated at byte " +
                                std::to_string(offset_));
    }
    const uint8_t* base = batch_.payload.data();
    segment.header = ReadPod<WireSegmentHeader>(base + offset_);
    offset_ += sizeof(WireSegmentHeader);
    if (segment.header.kind != kWireSegmentReal &&
        segment.header.kind != kWireSegmentVirtual) {
      return Status::Corruption("wire segment of unknown kind " +
                                std::to_string(segment.header.kind));
    }
    const bool real = segment.header.kind == kWireSegmentReal;
    const size_t record_bytes =
        (real ? sizeof(VertexId) : sizeof(uint64_t)) + sizeof(Message);
    if (segment.header.count > (size - offset_) / record_bytes) {
      return Status::Corruption(
          "wire segment claims " + std::to_string(segment.header.count) +
          " records but " + std::to_string(size - offset_) +
          " payload bytes remain");
    }
    if (real) {
      segment.real.reserve(segment.header.count);
      for (uint32_t i = 0; i < segment.header.count; ++i) {
        const VertexId target = ReadPod<VertexId>(base + offset_);
        offset_ += sizeof(VertexId);
        segment.real.emplace_back(target,
                                  ReadPod<Message>(base + offset_));
        offset_ += sizeof(Message);
      }
    } else {
      segment.virtuals.reserve(segment.header.count);
      for (uint32_t i = 0; i < segment.header.count; ++i) {
        const uint64_t target = ReadPod<uint64_t>(base + offset_);
        offset_ += sizeof(uint64_t);
        segment.virtuals.emplace_back(target,
                                      ReadPod<Message>(base + offset_));
        offset_ += sizeof(Message);
      }
    }
    return true;
  }

 private:
  const WireBatch& batch_;
  size_t offset_ = 0;
};

/// Wire-plane counters of one staging machine, merged into RuntimeStats
/// after the workers join.
struct WireStagerStats {
  uint64_t batches_sealed = 0;
  uint64_t segments_sealed = 0;
  uint64_t payload_bytes = 0;       ///< wire bytes across sealed batches
  uint64_t messages_staged = 0;     ///< records serialized (post-combine)
  uint64_t messages_combined = 0;   ///< duplicates folded at seal time
  uint64_t flush_size = 0;
  uint64_t flush_deadline = 0;
  uint64_t flush_stage_end = 0;
  Histogram batch_fill;             ///< payload/max_batch_bytes at each seal
};

/// Adds a stager's counters into an engine's stats record (RuntimeStats or
/// the distributed WorkerStatsMsg): the wire_* fields, plus the fill
/// histogram where the record keeps one.
template <typename Stats>
void AccumulateStagerStats(const WireStagerStats& ws, Stats& out) {
  out.wire_batches_sent += ws.batches_sealed;
  out.wire_segments_sent += ws.segments_sealed;
  out.wire_payload_bytes += ws.payload_bytes;
  out.wire_messages_combined += ws.messages_combined;
  out.wire_flush_size += ws.flush_size;
  out.wire_flush_deadline += ws.flush_deadline;
  out.wire_flush_stage_end += ws.flush_stage_end;
  if constexpr (requires { out.batch_fill.Merge(ws.batch_fill); }) {
    out.batch_fill.Merge(ws.batch_fill);
  }
}

/// Serializes one machine's outbound message streams into pooled WireBatch
/// payloads, one open batch per destination machine. Accessed only by the
/// machine's owner worker, so it needs no locking of its own.
///
/// Wire-level local combination happens here, at staging time: a task hands
/// over its complete (src -> dst) stream, duplicates merge through the same
/// MergeDuplicates fold the analytic runner uses (propagation/
/// partition_kernel.h), and only the post-merge records are serialized and
/// priced. Because the whole stream is combined before any of it is
/// written, a mid-stream size flush can split the stream across batches
/// without changing the priced byte count — the invariant that keeps the
/// runtime's per-link bytes reconciling exactly with
/// PropagationRunner::link_network_bytes().
template <typename App>
  requires PropagationApp<App> && WireSerializableApp<App>
class WireStager {
 public:
  using Message = typename App::Message;
  using Clock = std::chrono::steady_clock;

  WireStager(const App* app, const WireBatchOptions& options,
             WireBufferPool* pool, MachineId src_machine,
             uint32_t num_machines, bool combine)
      : app_(app),
        options_(options),
        pool_(pool),
        src_machine_(src_machine),
        combine_(combine),
        open_(num_machines) {}

  /// Stages one task's complete (src -> dst) stream: merges duplicates (when
  /// combination is on), prices the post-merge records, and serializes them
  /// into the destination machine's open batch, sealing and shipping batches
  /// that hit the size cap along the way. `send` takes a sealed WireBatch
  /// and returns the seconds it spent blocked on channel backpressure; the
  /// summed blocked time is returned to the caller for phase attribution.
  /// Both record vectors are consumed.
  template <typename SendFn>
  double StageTask(PartitionId src, PartitionId dst, MachineId dst_machine,
                   std::vector<std::pair<VertexId, Message>>& real,
                   std::vector<std::pair<uint64_t, Message>>& virtuals,
                   SendFn&& send) {
    if (combine_) {
      if constexpr (MergeableApp<App>) {
        stats_.messages_combined += MergeDuplicates(*app_, real);
        stats_.messages_combined += MergeDuplicates(*app_, virtuals);
      }
    }
    double blocked_s = 0.0;
    if (!real.empty()) {
      blocked_s +=
          WriteSegment(src, dst, dst_machine, kWireSegmentReal, real, send);
      real.clear();
    }
    if (!virtuals.empty()) {
      blocked_s += WriteSegment(src, dst, dst_machine, kWireSegmentVirtual,
                                virtuals, send);
      virtuals.clear();
    }
    return blocked_s;
  }

  /// Stages every non-empty stream of one Transfer task in ascending
  /// destination order (deterministic wire traffic); `route(dst)` names the
  /// machine holding dst's inbox. Returns the summed blocked seconds.
  template <typename RouteFn, typename SendFn>
  double StageStreams(PartitionId src,
                      typename PartitionKernel<App>::Streams& streams,
                      RouteFn&& route, SendFn&& send) {
    double blocked_s = 0.0;
    for (PartitionId dst = 0; dst < streams.real.size(); ++dst) {
      if (!streams.real[dst].empty() || !streams.virtuals[dst].empty()) {
        blocked_s += StageTask(src, dst, route(dst), streams.real[dst],
                               streams.virtuals[dst], send);
      }
    }
    return blocked_s;
  }

  /// Seals and ships open batches older than the flush deadline. Called
  /// between tasks so a trickle of traffic to a quiet destination is not
  /// held hostage to the stage end.
  template <typename SendFn>
  double FlushExpired(SendFn&& send) {
    double blocked_s = 0.0;
    const auto now = Clock::now();
    for (OpenBatch& open : open_) {
      if (open.active &&
          std::chrono::duration<double>(now - open.opened).count() >=
              options_.flush_deadline_seconds) {
        ++stats_.flush_deadline;
        blocked_s += Seal(open, send);
      }
    }
    return blocked_s;
  }

  /// Seals and ships every open batch (stage end, or a machine kill whose
  /// completed tasks' output must still reach its destinations).
  template <typename SendFn>
  double FlushAll(SendFn&& send) {
    double blocked_s = 0.0;
    for (OpenBatch& open : open_) {
      if (open.active) {
        ++stats_.flush_stage_end;
        blocked_s += Seal(open, send);
      }
    }
    return blocked_s;
  }

  const WireStagerStats& stats() const { return stats_; }

  /// Payload bytes sitting in open (unsealed) batches right now — the
  /// staging backlog a worker heartbeat reports as staged_wire_bytes.
  size_t OpenBytes() const {
    size_t total = 0;
    for (const OpenBatch& open : open_) {
      if (open.active) {
        total += open.batch.payload.size();
      }
    }
    return total;
  }

 private:
  struct OpenBatch {
    WireBatch batch;
    Clock::time_point opened;
    bool active = false;
  };

  template <typename K, typename SendFn>
  double WriteSegment(PartitionId src, PartitionId dst, MachineId dst_machine,
                      uint32_t kind,
                      std::vector<std::pair<K, Message>>& records,
                      SendFn&& send) {
    constexpr size_t kRecordBytes = sizeof(K) + sizeof(Message);
    double blocked_s = 0.0;
    OpenBatch& open = open_[dst_machine];
    // A batch close to the cap seals before the segment starts, so a fresh
    // segment header is never immediately orphaned by a size flush.
    if (open.active && !open.batch.payload.empty() &&
        open.batch.payload.size() + sizeof(WireSegmentHeader) + kRecordBytes >
            options_.max_batch_bytes) {
      ++stats_.flush_size;
      blocked_s += Seal(open, send);
    }
    if (!open.active) {
      Open(open, dst_machine);
    }
    size_t header_at = BeginSegment(open.batch, src, dst, kind);
    uint32_t count = 0;
    uint64_t priced = 0;
    for (auto& [key, message] : records) {
      if (count > 0 &&
          open.batch.payload.size() + kRecordBytes >
              options_.max_batch_bytes) {
        // Chunk the stream: close this segment, ship the batch, continue the
        // same (src, dst) stream in a fresh segment. Records were combined
        // and priced for the whole task above, so chunking cannot change the
        // cost model's byte count.
        CloseSegment(open.batch, header_at, count, priced);
        ++stats_.flush_size;
        blocked_s += Seal(open, send);
        Open(open, dst_machine);
        header_at = BeginSegment(open.batch, src, dst, kind);
        count = 0;
        priced = 0;
      }
      AppendPod(open.batch.payload, key);
      AppendPod(open.batch.payload, message);
      priced += app_->MessageBytes(message);
      ++count;
    }
    CloseSegment(open.batch, header_at, count, priced);
    return blocked_s;
  }

  static size_t BeginSegment(WireBatch& batch, PartitionId src,
                             PartitionId dst, uint32_t kind) {
    const size_t at = batch.payload.size();
    WireSegmentHeader header;
    header.src_partition = src;
    header.dst_partition = dst;
    header.kind = kind;
    AppendPod(batch.payload, header);
    return at;
  }

  void CloseSegment(WireBatch& batch, size_t header_at, uint32_t count,
                    uint64_t priced) {
    WireSegmentHeader header =
        ReadPod<WireSegmentHeader>(batch.payload.data() + header_at);
    header.count = count;
    header.priced_bytes = priced;
    std::memcpy(batch.payload.data() + header_at, &header, sizeof(header));
    batch.num_segments += 1;
    batch.num_messages += count;
    batch.priced_bytes += priced;
    ++stats_.segments_sealed;
    stats_.messages_staged += count;
  }

  void Open(OpenBatch& open, MachineId dst_machine) {
    open.batch = WireBatch{};
    open.batch.src_machine = src_machine_;
    open.batch.dst_machine = dst_machine;
    open.batch.payload = pool_->Acquire();
    open.opened = Clock::now();
    open.active = true;
  }

  template <typename SendFn>
  double Seal(OpenBatch& open, SendFn&& send) {
    ++stats_.batches_sealed;
    stats_.payload_bytes += open.batch.payload.size();
    stats_.batch_fill.Add(static_cast<double>(open.batch.payload.size()) /
                          static_cast<double>(options_.max_batch_bytes));
    open.active = false;
    return send(std::move(open.batch));
  }

  const App* app_;
  WireBatchOptions options_;
  WireBufferPool* pool_;
  MachineId src_machine_;
  bool combine_;
  std::vector<OpenBatch> open_;
  WireStagerStats stats_;
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_WIRE_BATCH_H_
