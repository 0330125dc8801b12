#include "runtime/barrier.h"

#include <chrono>

namespace surfer {
namespace runtime {

BspBarrier::BspBarrier(uint32_t participants) : participants_(participants) {}

double BspBarrier::ArriveAndWait(const std::function<void()>& poll) {
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t my_generation = generation_;
  if (++arrived_ >= participants_) {
    arrived_ = 0;
    ++generation_;
    lock.unlock();
    released_.notify_all();
    return 0.0;
  }
  waiting_.fetch_add(1, std::memory_order_relaxed);
  while (generation_ == my_generation) {
    if (poll) {
      // Drop the lock so the poll callback can touch channels freely; the
      // generation check re-reads under the lock afterwards.
      lock.unlock();
      poll();
      lock.lock();
      if (generation_ != my_generation) {
        break;
      }
      // Short timeout: the poll callback is typically a channel drain, and
      // its cadence bounds the service rate of narrow (low-capacity) links
      // whose consumers are already parked here.
      released_.wait_for(lock, std::chrono::microseconds(100));
    } else {
      released_.wait(lock, [&] { return generation_ != my_generation; });
    }
  }
  waiting_.fetch_sub(1, std::memory_order_relaxed);
  lock.unlock();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

uint64_t BspBarrier::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

}  // namespace runtime
}  // namespace surfer
