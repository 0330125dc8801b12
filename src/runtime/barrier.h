#ifndef SURFER_RUNTIME_BARRIER_H_
#define SURFER_RUNTIME_BARRIER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

namespace surfer {
namespace runtime {

/// Reusable BSP barrier with dynamic membership.
///
/// Workers call ArriveAndWait between superstep stages; the last arriver
/// flips the generation and releases everyone. Two extensions over a plain
/// std::barrier drive the runtime's needs:
///   - ArriveAndWait accepts a `poll` callback invoked periodically while
///     waiting, so a blocked worker keeps draining its inbound channels
///     (without this, a full channel could deadlock against the barrier).
class BspBarrier {
 public:
  explicit BspBarrier(uint32_t participants);

  BspBarrier(const BspBarrier&) = delete;
  BspBarrier& operator=(const BspBarrier&) = delete;

  /// Blocks until all current participants have arrived. Returns the wall
  /// seconds spent waiting. `poll`, when set, is invoked outside the barrier
  /// lock roughly once per millisecond while waiting.
  double ArriveAndWait(const std::function<void()>& poll = {});

  uint64_t generation() const;

  /// Participants currently parked inside ArriveAndWait. Lock-free mirror
  /// for the telemetry sampler: a sustained value near participants - 1
  /// means everyone is idling behind one straggler.
  uint32_t ApproxWaiting() const {
    return waiting_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable released_;
  const uint32_t participants_;
  uint32_t arrived_ = 0;
  uint64_t generation_ = 0;
  std::atomic<uint32_t> waiting_{0};
};

}  // namespace runtime
}  // namespace surfer

#endif  // SURFER_RUNTIME_BARRIER_H_
