#include "runtime/combine_plan.h"

namespace surfer {
namespace runtime {

void CombineScratch::BeginRange(VertexId begin, VertexId end) {
  begin_ = begin;
  end_ = end;
  total_ = 0;
  active_ = true;
  const size_t range = static_cast<size_t>(end - begin);
  counts_.assign(range, 0);
  frontier_.assign((range + 63) / 64, 0);
}

void CombineScratch::FinishCounts() {
  const size_t range = range_size();
  offsets_.resize(range + 1);
  cursor_.resize(range);
  size_t running = 0;
  for (size_t i = 0; i < range; ++i) {
    offsets_[i] = running;
    cursor_[i] = running;
    running += counts_[i];
  }
  offsets_[range] = running;
}

size_t CombineScratch::NextReceived(size_t from) const {
  const size_t range = range_size();
  if (from >= range) {
    return range;
  }
  size_t word = from >> 6;
  // Mask off bits below `from` in the first word, then skip empty words.
  uint64_t bits = frontier_[word] & (~uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++word >= frontier_.size()) {
      return range;
    }
    bits = frontier_[word];
  }
  const size_t i = (word << 6) + static_cast<size_t>(std::countr_zero(bits));
  return i < range ? i : range;
}

uint64_t CombineScratch::ReceivedCount() const {
  uint64_t received = 0;
  for (uint64_t word : frontier_) {
    received += static_cast<uint64_t>(std::popcount(word));
  }
  return received;
}

void VirtualGroupScratch::Clear() {
  ids.clear();
  counts.clear();
  offsets.clear();
  cursor.clear();
  rank.clear();
}

}  // namespace runtime
}  // namespace surfer
