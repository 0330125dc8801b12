#include "net/control.h"

namespace surfer {
namespace net {

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

Status ValidateTaskDone(const TaskDoneMsg& task, const RoundMsg& round,
                        uint32_t proc, uint32_t num_processes,
                        uint32_t num_partitions, uint32_t num_machines) {
  const std::string what = "task-done from process " + std::to_string(proc) +
                           " in round " + std::to_string(round.seq) + ": ";
  if (task.partition >= num_partitions) {
    return Status::Corruption(what + "partition " +
                              std::to_string(task.partition) +
                              " is out of range");
  }
  if (task.machine >= num_machines ||
      task.machine % num_processes != proc) {
    return Status::Corruption(what + "machine " +
                              std::to_string(task.machine) +
                              " is not hosted by the sender");
  }
  if (task.kind != static_cast<uint8_t>(round.kind) ||
      task.iteration != round.iteration) {
    return Status::Corruption(what + "kind or iteration is not the round's");
  }
  return Status::OK();
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
