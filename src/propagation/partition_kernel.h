#ifndef SURFER_PROPAGATION_PARTITION_KERNEL_H_
#define SURFER_PROPAGATION_PARTITION_KERNEL_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/result.h"
#include "propagation/app_traits.h"
#include "propagation/config.h"
#include "runtime/combine_plan.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {

/// Folds duplicate keys of one (src -> dst) stream with the app's Merge, in
/// emission order per key (first record, then Merge(acc, next) for each
/// later one), so the merged values are the same whichever engine merges.
/// The stream keeps one record per key, at its first occurrence's position
/// in emission order. Returns the number of records merged away.
template <typename App, typename K>
  requires MergeableApp<App>
uint64_t MergeDuplicates(const App& app,
                         std::vector<std::pair<K, typename App::Message>>&
                             records) {
  if (records.size() < 2) {
    return 0;
  }
  std::unordered_map<K, size_t> kept_at;  // key -> index of its kept record
  kept_at.reserve(records.size());
  size_t kept = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const auto [it, first] = kept_at.try_emplace(records[i].first, kept);
    if (first) {
      if (kept != i) {
        records[kept] = std::move(records[i]);
      }
      ++kept;
    } else {
      auto& acc = records[it->second].second;
      acc = app.Merge(acc, records[i].second);
    }
  }
  const uint64_t combined = records.size() - kept;
  records.erase(records.begin() + static_cast<std::ptrdiff_t>(kept),
                records.end());
  return combined;
}

/// The per-partition work of every engine, written once: the paper's fixed
/// pair of steps (Algorithm 5), Transfer over a partition's vertices, then
/// Combine over the messages its vertices received. The sequential runner
/// and the real engines' machine host (runtime/machine_host.h) call this
/// kernel over scratch they own; what stays outside is how streams travel
/// between the two steps (in-memory hand-off, bounded channels of
/// WireBatches, TCP frames) and what is priced or timed around them.
///
/// Why every engine is bit-identical to the sequential runner
/// ----------------------------------------------------------
/// Combine need not be commutative (NR sums doubles), so each vertex must
/// see its messages in one canonical order: ascending source partition,
/// and emission order within a source. Four facts produce that order over
/// any transport:
///   1. One producer per (src, dst) stream. A Transfer task is atomic and
///      emits its partition's whole stream; exactly one machine runs it per
///      stage (recovery re-runs the whole task), so no two producers
///      interleave the records of one stream.
///   2. FIFO links. Size and deadline flushes may cut a stream into several
///      chunks, but channels, TCP connections and mailboxes are FIFO, so a
///      stream's chunks arrive in emission order.
///   3. A stable sort of the inbox chunks by src (Regroup). Stability
///      keeps the chunks of one stream in arrival, hence emission, order,
///      so the sorted concatenation is the canonical inbox.
///   4. A stable counting scatter by target (Regroup, over
///      runtime::CombineScratch). Equal targets keep their concatenation
///      order: the permutation a stable_sort by target would produce.
/// Local combination keeps the argument intact: MergeDuplicates folds a
/// whole stream before any of it is priced or sent, so a merged stream
/// holds one record per target and its internal order drops out at step 4.
template <typename App>
  requires PropagationApp<App>
class PartitionKernel {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;
  using RealStream = std::vector<std::pair<VertexId, Message>>;
  using VirtualStream = std::vector<std::pair<uint64_t, Message>>;

  /// A Transfer task's output: one real and one virtual stream per
  /// destination partition, in emission order. Caller-owned; RunTransfer
  /// clears the streams and keeps their capacity.
  struct Streams {
    std::vector<RealStream> real;
    std::vector<VirtualStream> virtuals;
  };

  /// A contiguous piece of one (src -> dst) stream waiting in dst's inbox:
  /// a whole stream in the sequential runner, one decoded wire segment in
  /// the real engines. src_machine and priced_bytes feed Appendix-B refetch
  /// pricing.
  struct InboxChunk {
    PartitionId src = kInvalidPartition;
    MachineId src_machine = kInvalidMachine;
    uint64_t priced_bytes = 0;
    RealStream real;
    VirtualStream virtuals;
  };

  /// Freelist of consumed chunks with their record capacity kept, so
  /// steady-state decoding allocates nothing. Bounded: chunks beyond the
  /// cap simply deallocate. Single-owner (one per worker).
  class ChunkPool {
   public:
    InboxChunk Acquire() {
      if (free_.empty()) {
        return InboxChunk{};
      }
      InboxChunk chunk = std::move(free_.back());
      free_.pop_back();
      return chunk;
    }

    void Park(InboxChunk chunk) {
      if (free_.size() < kCap) {
        chunk.real.clear();
        chunk.virtuals.clear();
        free_.push_back(std::move(chunk));
      }
    }

    /// Parks every chunk and empties the inbox (whose capacity is kept).
    void Recycle(std::vector<InboxChunk>& chunks) {
      for (InboxChunk& chunk : chunks) {
        Park(std::move(chunk));
      }
      chunks.clear();
    }

   private:
    static constexpr size_t kCap = 256;
    std::vector<InboxChunk> free_;
  };

  /// Combine-side scratch, reused across one owner's tasks.
  struct CombineBuffers {
    std::vector<Message> grouped;          ///< regrouped real messages
    std::vector<Message> vertex_messages;  ///< one vertex's message list
    VirtualStream virtuals;                ///< the inbox's virtual records
    std::vector<Message> virtual_grouped;
    std::vector<Message> virtual_group;
    runtime::VirtualGroupScratch vgroups;
  };

  PartitionKernel(const App& app, const PartitionedGraph& graph)
      : app_(app), graph_(graph) {}

  /// Checks the inputs every engine runs on.
  static Status Validate(const PartitionedGraph* graph,
                         const ReplicatedPlacement* placement,
                         const Topology* topology,
                         const PropagationConfig& config) {
    if (graph == nullptr || placement == nullptr || topology == nullptr) {
      return Status::InvalidArgument("engine inputs must be non-null");
    }
    if (placement->num_partitions() != graph->num_partitions()) {
      return Status::InvalidArgument(
          "placement partition count does not match graph");
    }
    if (config.iterations < 1) {
      return Status::InvalidArgument("iterations must be >= 1");
    }
    for (PartitionId p = 0; p < placement->num_partitions(); ++p) {
      if (placement->primary(p) >= topology->num_machines()) {
        return Status::InvalidArgument("placement machine out of range");
      }
    }
    return Status::OK();
  }

  /// True when Combine may skip silent vertices: the app promises an empty
  /// Combine is the identity (SilentVertexSkippableApp) and the job enables
  /// frontier gating.
  static bool Gated(const PropagationConfig& config) {
    if constexpr (SilentVertexSkippableApp<App>) {
      return config.frontier_gating;
    }
    return false;
  }

  /// InitState of every vertex, in encoded-ID order.
  std::vector<VertexState> InitStates() const {
    const Graph& g = graph_.encoded_graph();
    std::vector<VertexState> states;
    states.reserve(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      states.push_back(app_.InitState(v, g.OutNeighbors(v)));
    }
    return states;
  }

  /// Transfer of partition p against `states`: every emission is routed to
  /// its destination partition's stream (a real target to the partition
  /// owning it, a virtual ID to id % num_partitions), in emission order.
  void RunTransfer(PartitionId p, const std::vector<VertexState>& states,
                   Streams& out) const {
    const uint32_t num_partitions = graph_.num_partitions();
    out.real.resize(num_partitions);
    out.virtuals.resize(num_partitions);
    for (RealStream& stream : out.real) {
      stream.clear();
    }
    for (VirtualStream& stream : out.virtuals) {
      stream.clear();
    }
    const Graph& g = graph_.encoded_graph();
    const PartitionMeta& meta = graph_.partition(p);
    PropagationEmitter<Message> emitter;
    for (VertexId v = meta.begin; v < meta.end; ++v) {
      app_.Transfer(v, states[v], g.OutNeighbors(v), emitter);
      emitter.Drain(
          [&](VertexId target, Message message) {
            out.real[graph_.PartitionOf(target)].emplace_back(
                target, std::move(message));
          },
          [&](uint64_t target, Message message) {
            out.virtuals[target % num_partitions].emplace_back(
                target, std::move(message));
          });
    }
  }

  /// Merges duplicates in every stream of `out` (MergeableApps; a no-op
  /// otherwise). Returns the number of records merged away.
  uint64_t MergeStreams(Streams& out) const {
    uint64_t combined = 0;
    if constexpr (MergeableApp<App>) {
      for (RealStream& stream : out.real) {
        combined += MergeDuplicates(app_, stream);
      }
      for (VirtualStream& stream : out.virtuals) {
        combined += MergeDuplicates(app_, stream);
      }
    }
    return combined;
  }

  /// Decodes every segment of a wire batch (`reader` is a
  /// runtime::WireBatchReader<Message>) into chunks recycled from `pool`
  /// and hands each to `sink(dst_partition, InboxChunk&&)`. A segment that
  /// overruns the payload, names a partition out of range, or carries a
  /// real target outside its destination partition is Corruption; the
  /// chunks handed over before it stay with the sink.
  template <typename Reader, typename Sink>
  Status Decode(Reader& reader, MachineId src_machine, ChunkPool& pool,
                Sink&& sink) const {
    const uint32_t num_partitions = graph_.num_partitions();
    for (;;) {
      InboxChunk chunk = pool.Acquire();
      typename Reader::Segment segment;
      segment.real = std::move(chunk.real);
      segment.virtuals = std::move(chunk.virtuals);
      Result<bool> decoded = reader.NextInto(segment);
      chunk.real = std::move(segment.real);
      chunk.virtuals = std::move(segment.virtuals);
      if (!decoded.ok() || !*decoded) {
        pool.Park(std::move(chunk));
        return decoded.ok() ? Status::OK() : decoded.status();
      }
      const PartitionId dst = segment.header.dst_partition;
      chunk.src = segment.header.src_partition;
      if (dst >= num_partitions || chunk.src >= num_partitions) {
        pool.Park(std::move(chunk));
        return Status::Corruption(
            "wire segment names partition " + std::to_string(chunk.src) +
            " -> " + std::to_string(dst) + " of " +
            std::to_string(num_partitions));
      }
      const PartitionMeta& meta = graph_.partition(dst);
      for (const auto& record : chunk.real) {
        if (record.first < meta.begin || record.first >= meta.end) {
          pool.Park(std::move(chunk));
          return Status::Corruption(
              "wire record targets vertex " + std::to_string(record.first) +
              " outside partition " + std::to_string(dst));
        }
      }
      chunk.src_machine = src_machine;
      chunk.priced_bytes = segment.header.priced_bytes;
      sink(dst, std::move(chunk));
    }
  }

  /// What Regroup reports for an engine's stats.
  struct RegroupStats {
    uint64_t refetch_bytes = 0;   ///< Appendix-B recovery re-fetch
    uint64_t scattered = 0;       ///< real messages placed
    double scatter_seconds = 0.0;
  };

  /// Turns partition p's inbox into Combine input. Stable-sorts the chunks
  /// by src (ordering step 3) and prices the Appendix-B refetch: a Combine
  /// running off the partition's primary re-fetches every chunk another
  /// machine produced. Then regroups (step 4): real messages land in
  /// buffers.grouped as per-vertex runs bounded by `plan`, virtual records
  /// move to buffers.virtuals. An engine that counts chunks as they arrive
  /// passes that armed plan; an idle plan is counted here. The consumed
  /// chunks go back to `pool`.
  RegroupStats Regroup(PartitionId p, MachineId exec_machine,
                       MachineId primary, runtime::CombineScratch& plan,
                       std::vector<InboxChunk>& chunks, ChunkPool& pool,
                       CombineBuffers& buffers) const {
    std::stable_sort(chunks.begin(), chunks.end(),
                     [](const InboxChunk& a, const InboxChunk& b) {
                       return a.src < b.src;
                     });
    RegroupStats stats;
    if (exec_machine != primary) {
      for (const InboxChunk& chunk : chunks) {
        if (chunk.src_machine != exec_machine) {
          stats.refetch_bytes += chunk.priced_bytes;
        }
      }
    }
    const auto start = std::chrono::steady_clock::now();
    const PartitionMeta& meta = graph_.partition(p);
    stats.scattered = runtime::GroupChunkedMessages(
        plan, meta.begin, meta.end, chunks, buffers.grouped);
    buffers.virtuals.clear();
    for (InboxChunk& chunk : chunks) {
      std::move(chunk.virtuals.begin(), chunk.virtuals.end(),
                std::back_inserter(buffers.virtuals));
    }
    stats.scatter_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    pool.Recycle(chunks);
    return stats;
  }

  /// Combine of partition p over the regrouped inbox, in place on `states`:
  /// every vertex, or with `gated` only the vertices that received messages
  /// (word-skipping the frontier bitmap). Disarms `plan`; returns the
  /// vertices skipped.
  uint64_t RunCombine(PartitionId p, bool gated, runtime::CombineScratch& plan,
                      CombineBuffers& buffers,
                      std::vector<VertexState>& states) const {
    const Graph& g = graph_.encoded_graph();
    const VertexId begin = graph_.partition(p).begin;
    const size_t range = plan.range_size();
    std::vector<Message>& vertex_messages = buffers.vertex_messages;
    auto combine_vertex = [&](size_t i) {
      const VertexId v = begin + static_cast<VertexId>(i);
      vertex_messages.clear();
      for (size_t j = plan.RunBegin(i), end = plan.RunEnd(i); j < end; ++j) {
        vertex_messages.push_back(std::move(buffers.grouped[j]));
      }
      app_.Combine(v, states[v], g.OutNeighbors(v), vertex_messages);
    };
    uint64_t visited = 0;
    if (gated) {
      for (size_t i = plan.NextReceived(0); i < range;
           i = plan.NextReceived(i + 1)) {
        combine_vertex(i);
        ++visited;
      }
    } else {
      for (size_t i = 0; i < range; ++i) {
        combine_vertex(i);
      }
      visited = range;
    }
    plan.Reset();
    return static_cast<uint64_t>(range) - visited;
  }

  /// CombineVirtual over buffers.virtuals, one call per distinct ID in
  /// ascending order, appending (id, output) to `out`. A no-op for apps
  /// without virtual vertices.
  void FoldVirtuals(CombineBuffers& buffers,
                    std::vector<std::pair<uint64_t, VirtualOutput>>& out)
      const {
    if constexpr (VirtualVertexApp<App>) {
      runtime::GroupVirtualMessages(buffers.vgroups, buffers.virtuals,
                                    buffers.virtual_grouped);
      std::vector<Message>& group = buffers.virtual_group;
      for (size_t i = 0; i < buffers.vgroups.ids.size(); ++i) {
        const uint64_t id = buffers.vgroups.ids[i];
        group.clear();
        for (size_t j = buffers.vgroups.offsets[i],
                    end = buffers.vgroups.offsets[i + 1];
             j < end; ++j) {
          group.push_back(std::move(buffers.virtual_grouped[j]));
        }
        out.emplace_back(id, app_.CombineVirtual(id, group));
      }
    }
    buffers.virtuals.clear();
  }

 private:
  const App& app_;
  const PartitionedGraph& graph_;
};

}  // namespace surfer

#endif  // SURFER_PROPAGATION_PARTITION_KERNEL_H_
