#ifndef SURFER_PROPAGATION_RUNNER_H_
#define SURFER_PROPAGATION_RUNNER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/metrics.h"
#include "cluster/topology.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/job_simulation.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "propagation/app_traits.h"
#include "propagation/cascade.h"
#include "propagation/config.h"
#include "propagation/partition_kernel.h"
#include "storage/partitioned_graph.h"
#include "storage/replication.h"

namespace surfer {

namespace internal {

/// Simulated size of one virtual-vertex output record.
inline constexpr size_t kVirtualOutputBytes = 16;

}  // namespace internal

/// Executes a propagation application on a partitioned graph over a
/// simulated cluster (Algorithm 5 plus the Section 5 optimizations).
///
/// The computation itself always runs exactly — every message is delivered
/// and every combine executes, so results are identical across optimization
/// levels (tests assert this). What the flags change is the *accounted
/// cost*:
///   - local propagation: messages to inner vertices are applied in memory
///     during the partition scan and never materialized to disk;
///   - local combination: messages to the same remote vertex are merged
///     before being priced as network bytes (requires Merge on the app;
///     semantics-preserving because Merge is associative);
///   - storage layout: cross-partition messages between partitions placed on
///     the same machine bypass the network entirely;
///   - cascaded propagation: across iterations, vertices in V_k skip
///     intermediate state round-trips (Section 5.2).
template <typename App>
  requires PropagationApp<App>
class PropagationRunner {
 public:
  using VertexState = typename App::VertexState;
  using Message = typename App::Message;
  using VirtualOutput = typename internal::VirtualOutputOf<App>::type;

  PropagationRunner(const PartitionedGraph* graph,
                    const ReplicatedPlacement* placement,
                    const Topology* topology, App app,
                    PropagationConfig config)
      : graph_(graph),
        placement_(placement),
        topology_(topology),
        app_(std::move(app)),
        config_(config) {}

  /// Runs `config.iterations` iterations on a fresh simulation and returns
  /// its metrics.
  Result<RunMetrics> Run(JobSimulationOptions sim_options = {}) {
    JobSimulation sim(topology_, sim_options);
    SURFER_RETURN_IF_ERROR(RunWith(&sim));
    return sim.metrics();
  }

  /// Runs on an externally owned simulation (fault-injection experiments,
  /// job composition); metrics accumulate into `sim`.
  Status RunWith(JobSimulation* sim) {
    SURFER_RETURN_IF_ERROR(
        Kernel::Validate(graph_, placement_, topology_, config_));
    states_ = kernel().InitStates();
    virtual_outputs_.clear();
    counters_ = PropagationCounters{};
    const uint32_t num_machines = topology_->num_machines();
    link_network_bytes_.assign(
        static_cast<size_t>(num_machines) * num_machines, 0.0);
    if (config_.cascaded && config_.iterations > 1) {
      cascade_ = ComputeCascadeInfo(*graph_);
    } else {
      cascade_ = CascadeInfo{};
    }
    for (int iteration = 0; iteration < config_.iterations; ++iteration) {
      SURFER_TRACE_SCOPE(config_.tracer,
                         "iteration[" + std::to_string(iteration) + "]",
                         "propagation");
      if constexpr (IterationAwareApp<App>) {
        app_.OnIterationStart(iteration);
      }
      SURFER_RETURN_IF_ERROR(RunIteration(sim, iteration));
    }
    PublishCounters();
    return Status::OK();
  }

  const std::vector<VertexState>& states() const { return states_; }

  /// Message-routing counters of the last Run/RunWith (see
  /// PropagationCounters for the invariants they satisfy).
  const PropagationCounters& counters() const { return counters_; }

  /// State of a vertex addressed by its *original* (pre-encoding) ID.
  const VertexState& StateOfOriginal(VertexId original) const {
    return states_[graph_->encoding().ToEncoded(original)];
  }

  /// Virtual-vertex results (empty unless the app aggregates on virtual
  /// vertices).
  const std::map<uint64_t, VirtualOutput>& virtual_outputs() const {
    return virtual_outputs_;
  }

  const CascadeInfo& cascade_info() const { return cascade_; }

  /// Analytic per-link network bytes of the last Run/RunWith: a row-major
  /// M x M matrix where entry [src * M + dst] sums the Transfer-stage bytes
  /// priced from src's primary machine to dst (the diagonal is zero — local
  /// traffic never touches the network). The concurrent runtime's measured
  /// RuntimeStats::link_bytes must reconcile with this matrix exactly, which
  /// cross-checks the cost model against real execution.
  const std::vector<double>& link_network_bytes() const {
    return link_network_bytes_;
  }

 private:
  using Kernel = PartitionKernel<App>;
  using InboxChunk = typename Kernel::InboxChunk;

  Kernel kernel() const { return Kernel(app_, *graph_); }

  /// True when this vertex's work in `iteration` is elided from disk
  /// accounting by cascaded propagation (its value for this iteration was
  /// already computed during an earlier scan of the phase). The phase length
  /// is the paper's d_min, or the vertex's own partition diameter with the
  /// per-partition-depth extension.
  bool CascadeSkips(VertexId v, int iteration) const {
    if (cascade_.level.empty() || iteration == 0) {
      return false;
    }
    const uint32_t level = cascade_.level[v];
    if (level == kCascadeInf) {
      return true;  // V_inf: all iterations ran in the first scan
    }
    const uint32_t c = std::max<uint32_t>(
        1, config_.cascade_per_partition_depth
               ? cascade_.partition_diameter[graph_->PartitionOf(v)]
               : cascade_.d_min);
    if (c < 2) {
      return false;
    }
    const uint32_t phase_pos = static_cast<uint32_t>(iteration) % c;
    return phase_pos >= 1 && std::min(level, c) > phase_pos;
  }

  /// What one Transfer task hands to the Combine stage: its (src -> dst)
  /// streams as inbox chunks indexed by destination partition (merged under
  /// local combination, priced_bytes set), plus the bytes the task spills
  /// into its own partition's inbox.
  struct TransferOut {
    std::vector<InboxChunk> chunks;
    double self_spill_bytes = 0.0;
    PropagationCounters counters;
  };

  /// A simulated task of partition p, runnable on any of its replicas.
  SimTask MakeTask(SimTaskKind kind, PartitionId p) const {
    SimTask task;
    task.kind = kind;
    task.partition = p;
    for (MachineId m : placement_->replicas[p]) {
      if (m != kInvalidMachine) {
        task.candidate_machines.push_back(m);
      }
    }
    return task;
  }

  double RecordBytes(const auto& records) const {
    double bytes = 0.0;
    for (const auto& record : records) {
      bytes += static_cast<double>(app_.MessageBytes(record.second));
    }
    return bytes;
  }

  Status RunIteration(JobSimulation* sim, int iteration) {
    const uint32_t num_partitions = graph_->num_partitions();
    const Graph& g = graph_->encoded_graph();
    const Kernel kernel = this->kernel();

    // ---------------- Transfer stage ----------------
    std::vector<TransferOut> outs(num_partitions);
    std::vector<SimTask> transfer_tasks(num_partitions);

    // std::optional so the wall-clock span can close right after the
    // parallel compute, before the simulated stage runs.
    std::optional<obs::ScopedSpan> transfer_span(
        std::in_place, config_.tracer,
        "transfer_compute[" + std::to_string(iteration) + "]", "propagation");
    GlobalThreadPool().ParallelFor(num_partitions, [&](size_t pi) {
      const PartitionId p = static_cast<PartitionId>(pi);
      const PartitionMeta& meta = graph_->partition(p);
      TransferOut& out = outs[p];
      typename Kernel::Streams streams;
      kernel.RunTransfer(p, states_, streams);

      double emitted_bytes = 0.0;
      for (PartitionId dst = 0; dst < num_partitions; ++dst) {
        emitted_bytes +=
            RecordBytes(streams.real[dst]) + RecordBytes(streams.virtuals[dst]);
        out.counters.messages_emitted +=
            streams.real[dst].size() + streams.virtuals[dst].size();
      }
      // Local combination merges every stream per target before anything
      // is counted or priced — local ones too: inner messages are applied
      // in memory anyway, boundary ones spill in merged form (the same
      // associativity argument as for remote merging).
      if (config_.local_combination) {
        out.counters.messages_locally_combined = kernel.MergeStreams(streams);
      }

      double state_read_bytes = 0.0;
      double skipped_state_bytes = 0.0;   // cascaded elision: states
      double skipped_record_bytes = 0.0;  // cascaded elision: records
      uint64_t skipped_vertices = 0;
      for (VertexId v = meta.begin; v < meta.end; ++v) {
        const double state_bytes =
            static_cast<double>(app_.StateBytes(states_[v]));
        if (CascadeSkips(v, iteration)) {
          // This vertex's value for the current iteration was computed in a
          // batch during an earlier scan of the phase (Section 5.2): the
          // scan skips its adjacency record and state round-trip.
          skipped_state_bytes += state_bytes;
          skipped_record_bytes += static_cast<double>(
              StoredVertexRecordBytes(g.OutDegree(v)));
          ++skipped_vertices;
        }
        state_read_bytes += state_bytes;
      }

      double inner_local_bytes = 0.0;
      double boundary_local_bytes = 0.0;
      for (const auto& [target, message] : streams.real[p]) {
        const double bytes = static_cast<double>(app_.MessageBytes(message));
        if (meta.boundary[target - meta.begin] == 0) {
          inner_local_bytes += bytes;
          if (config_.local_propagation) {
            ++out.counters.messages_locally_propagated;
          } else {
            ++out.counters.messages_materialized;
          }
        } else {
          boundary_local_bytes += bytes;
          ++out.counters.messages_materialized;
        }
      }
      out.self_spill_bytes =
          boundary_local_bytes +
          (config_.local_propagation ? 0.0 : inner_local_bytes);

      // Price the task.
      SimTask& task = transfer_tasks[p] = MakeTask(SimTaskKind::kTransfer, p);
      TaskCost& cost = task.cost;
      const double effective_state_read =
          state_read_bytes - skipped_state_bytes;
      const double effective_record_read = std::max(
          0.0, static_cast<double>(meta.stored_bytes) - skipped_record_bytes);
      cost.disk_read_bytes = effective_record_read + effective_state_read;
      cost.cpu_bytes = static_cast<double>(meta.stored_bytes) + emitted_bytes;
      // Intermediate materialization: boundary-target local messages always
      // spill; inner-target ones only without local propagation; cascaded
      // elision removes the skipped vertices' share of the inner spill.
      double inner_spill =
          config_.local_propagation ? 0.0 : inner_local_bytes;
      const VertexId part_vertices = meta.num_vertices();
      if (part_vertices > 0 && skipped_vertices > 0) {
        const double skip_fraction = static_cast<double>(skipped_vertices) /
                                     static_cast<double>(part_vertices);
        inner_spill *= (1.0 - skip_fraction);
      }
      cost.disk_write_bytes = boundary_local_bytes + inner_spill;

      // Hand every stream to the Combine stage as one inbox chunk, pricing
      // what the local-stream walk above did not: cross-partition records
      // and virtual records, merged or raw. Either way the bytes spill once
      // on this machine: as the final intermediate for a co-located
      // destination, or as the send buffer for a remote one (which
      // additionally pays the wire and a receive spill on the destination).
      const MachineId my_machine = placement_->primary(p);
      out.chunks.resize(num_partitions);
      for (PartitionId dst = 0; dst < num_partitions; ++dst) {
        InboxChunk& chunk = out.chunks[dst];
        chunk.src = p;
        chunk.src_machine = my_machine;
        chunk.real = std::move(streams.real[dst]);
        chunk.virtuals = std::move(streams.virtuals[dst]);
        const bool remote = dst != p;
        const double bytes = (remote ? RecordBytes(chunk.real) : 0.0) +
                             RecordBytes(chunk.virtuals);
        const uint64_t num_messages =
            (remote ? chunk.real.size() : 0) + chunk.virtuals.size();
        chunk.priced_bytes = static_cast<uint64_t>(bytes);
        cost.disk_write_bytes += bytes;
        out.counters.messages_materialized += num_messages;
        const MachineId dst_machine = placement_->primary(dst);
        if (!remote) {
          out.self_spill_bytes += bytes;
        } else if (dst_machine != my_machine) {
          cost.AddNetwork(dst_machine, bytes);
          out.counters.messages_network += num_messages;
        }
      }
      if (config_.memory_limit_bytes > 0) {
        const double working_set = static_cast<double>(meta.stored_bytes) +
                                   state_read_bytes + cost.disk_write_bytes;
        cost.random_io =
            working_set > static_cast<double>(config_.memory_limit_bytes);
      }
    });

    transfer_span.reset();
    for (const TransferOut& out : outs) {
      counters_.MergeFrom(out.counters);
    }
    // Fold each task's priced sends into the per-link byte matrix before the
    // simulation consumes the tasks. Sources are the partitions' primaries:
    // the matrix describes the no-fault execution the runtime reproduces.
    const uint32_t nm = topology_->num_machines();
    for (PartitionId p = 0; p < num_partitions; ++p) {
      const MachineId src = placement_->primary(p);
      for (const auto& [dst, bytes] : transfer_tasks[p].cost.network_out) {
        link_network_bytes_[static_cast<size_t>(src) * nm + dst] += bytes;
      }
    }

    SURFER_RETURN_IF_ERROR(
        sim->RunStage("transfer[" + std::to_string(iteration) + "]",
                      std::move(transfer_tasks))
            .status());

    // ---------------- Combine stage ----------------
    std::vector<SimTask> combine_tasks(num_partitions);
    std::vector<std::vector<std::pair<uint64_t, VirtualOutput>>>
        virtual_results(num_partitions);

    std::optional<obs::ScopedSpan> combine_span(
        std::in_place, config_.tracer,
        "combine_compute[" + std::to_string(iteration) + "]", "propagation");
    std::vector<uint64_t> skipped_per_partition(num_partitions, 0);
    const bool gated = Kernel::Gated(config_);
    GlobalThreadPool().ParallelFor(num_partitions, [&](size_t pi) {
      const PartitionId p = static_cast<PartitionId>(pi);
      const PartitionMeta& meta = graph_->partition(p);
      const MachineId my_machine = placement_->primary(p);
      // The inbox: every stream addressed to p, in ascending source order
      // (the canonical order, see PartitionKernel). Bytes from a co-located
      // partition were already spilled to this machine's disk by the
      // Transfer task; the Combine task only re-reads them. Truly remote
      // bytes additionally pay the receive spill, and are what a recovering
      // Combine task must re-transfer.
      double local_bytes = outs[p].self_spill_bytes;
      double incoming = 0.0;
      std::vector<InboxChunk> chunks;
      for (PartitionId src = 0; src < num_partitions; ++src) {
        InboxChunk& chunk = outs[src].chunks[p];
        if (chunk.real.empty() && chunk.virtuals.empty()) {
          continue;
        }
        if (src != p) {
          const double bytes = static_cast<double>(chunk.priced_bytes);
          if (chunk.src_machine == my_machine) {
            local_bytes += bytes;
          } else {
            incoming += bytes;
          }
        }
        chunks.push_back(std::move(chunk));
      }
      runtime::CombineScratch plan;
      typename Kernel::ChunkPool pool;
      typename Kernel::CombineBuffers buffers;
      kernel.Regroup(p, my_machine, my_machine, plan, chunks, pool, buffers);
      // Frontier gating skips only the Combine *call* for silent vertices
      // (legal by the app's kSkipSilentVertices contract); the simulated
      // cost model still walks and prices every vertex state, so accounted
      // costs are independent of the gate.
      skipped_per_partition[p] =
          kernel.RunCombine(p, gated, plan, buffers, states_);
      double new_state_bytes = 0.0;
      double skipped_state_bytes = 0.0;
      for (VertexId v = meta.begin; v < meta.end; ++v) {
        const double state_bytes =
            static_cast<double>(app_.StateBytes(states_[v]));
        new_state_bytes += state_bytes;
        if (CascadeSkips(v, iteration)) {
          skipped_state_bytes += state_bytes;
        }
      }
      kernel.FoldVirtuals(buffers, virtual_results[p]);
      const double virtual_output_bytes =
          static_cast<double>(virtual_results[p].size() *
                              internal::kVirtualOutputBytes);

      SimTask& task = combine_tasks[p] = MakeTask(SimTaskKind::kCombine, p);
      TaskCost& cost = task.cost;
      cost.network_in_bytes = incoming;  // pulled from remote transfers
      cost.disk_read_bytes = local_bytes + incoming;
      // Receive spill + the updated states (cascade skips intermediate
      // state round-trips for qualifying vertices).
      cost.disk_write_bytes =
          incoming + (new_state_bytes - skipped_state_bytes) +
          virtual_output_bytes;
      cost.cpu_bytes = incoming + local_bytes + new_state_bytes;
      task.recovery_refetch_bytes = incoming;
      if (config_.memory_limit_bytes > 0) {
        const double working_set = incoming + local_bytes + new_state_bytes;
        cost.random_io =
            working_set > static_cast<double>(config_.memory_limit_bytes);
      }
    });

    combine_span.reset();

    for (uint64_t skipped : skipped_per_partition) {
      counters_.frontier_vertices_skipped += skipped;
    }

    // Merge virtual outputs deterministically.
    if constexpr (VirtualVertexApp<App>) {
      for (auto& per_partition : virtual_results) {
        for (auto& [id, output] : per_partition) {
          virtual_outputs_[id] = std::move(output);
        }
      }
    }

    SURFER_RETURN_IF_ERROR(
        sim->RunStage("combine[" + std::to_string(iteration) + "]",
                      std::move(combine_tasks))
            .status());
    return Status::OK();
  }

  /// Publishes the run's message-routing counters to the configured
  /// registry (no-op without one). Counters accumulate across runs; the
  /// per-run values stay available via counters().
  void PublishCounters() {
    obs::MetricsRegistry* metrics = config_.metrics;
    if (metrics == nullptr) {
      return;
    }
    metrics->CounterRef("propagation_runs_total").Increment();
    metrics->CounterRef("propagation_iterations_total")
        .Increment(static_cast<uint64_t>(config_.iterations));
    metrics->CounterRef("propagation_messages_emitted")
        .Increment(counters_.messages_emitted);
    metrics->CounterRef("propagation_messages_locally_propagated")
        .Increment(counters_.messages_locally_propagated);
    metrics->CounterRef("propagation_messages_locally_combined")
        .Increment(counters_.messages_locally_combined);
    metrics->CounterRef("propagation_messages_materialized")
        .Increment(counters_.messages_materialized);
    metrics->CounterRef("propagation_messages_network")
        .Increment(counters_.messages_network);
    metrics->CounterRef("propagation_frontier_vertices_skipped")
        .Increment(counters_.frontier_vertices_skipped);
  }

  const PartitionedGraph* graph_;
  const ReplicatedPlacement* placement_;
  const Topology* topology_;
  App app_;
  PropagationConfig config_;

  std::vector<VertexState> states_;
  std::map<uint64_t, VirtualOutput> virtual_outputs_;
  CascadeInfo cascade_;
  PropagationCounters counters_;
  std::vector<double> link_network_bytes_;
};

}  // namespace surfer

#endif  // SURFER_PROPAGATION_RUNNER_H_
