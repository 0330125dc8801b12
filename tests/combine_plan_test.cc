// Property tests of the sort-free combine regroup (runtime/combine_plan.h):
// the stable counting scatter must reproduce, byte for byte, the permutation
// of the legacy `std::stable_sort` on any input — in particular on
// duplicate-heavy streams where ties exercise the stability requirement.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/combine_plan.h"

namespace surfer {
namespace runtime {
namespace {

// Payload carrying a unique serial number so permutation differences are
// visible even between records with equal targets.
struct Tagged {
  uint64_t serial = 0;
  double value = 0.0;
  bool operator==(const Tagged& other) const {
    return serial == other.serial && value == other.value;
  }
};

std::vector<std::pair<VertexId, Tagged>> RandomRecords(std::mt19937& rng,
                                                       VertexId begin,
                                                       VertexId end,
                                                       size_t count) {
  // Duplicate-heavy by construction: targets are drawn from a range far
  // smaller than the record count, so most vertices get long runs.
  std::uniform_int_distribution<VertexId> target(begin, end - 1);
  std::vector<std::pair<VertexId, Tagged>> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    records.emplace_back(target(rng),
                         Tagged{i, static_cast<double>(target(rng))});
  }
  return records;
}

std::vector<Tagged> ReferenceGroup(
    std::vector<std::pair<VertexId, Tagged>> records) {
  std::stable_sort(
      records.begin(), records.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Tagged> grouped;
  grouped.reserve(records.size());
  for (auto& [target, payload] : records) {
    grouped.push_back(payload);
  }
  return grouped;
}

TEST(CombinePlanTest, ChunkedScatterMatchesConcatenatedReference) {
  struct Chunk {
    std::vector<std::pair<VertexId, Tagged>> real;
  };
  // One scratch serves every input, the way engines reuse theirs: Reset
  // must hand it back disarmed and clean for the next range.
  CombineScratch scratch;
  auto check = [&](VertexId begin, VertexId end, std::vector<Chunk>& chunks) {
    std::vector<std::pair<VertexId, Tagged>> flat;
    for (const Chunk& chunk : chunks) {
      flat.insert(flat.end(), chunk.real.begin(), chunk.real.end());
    }
    const std::vector<Tagged> expected = ReferenceGroup(flat);

    EXPECT_FALSE(scratch.active());
    EXPECT_EQ(scratch.total(), 0u);
    std::vector<Tagged> grouped;
    const uint64_t scattered =
        GroupChunkedMessages(scratch, begin, end, chunks, grouped);
    EXPECT_EQ(scattered, flat.size());
    ASSERT_EQ(grouped.size(), expected.size());
    for (size_t i = 0; i < grouped.size(); ++i) {
      ASSERT_EQ(grouped[i], expected[i]) << "pos " << i;
    }

    // Run offsets partition the grouped vector into per-vertex runs whose
    // keys are homogeneous and ascending.
    ASSERT_EQ(scratch.total(), flat.size());
    size_t total_run = 0;
    for (size_t i = 0; i < scratch.range_size(); ++i) {
      total_run += scratch.RunEnd(i) - scratch.RunBegin(i);
      EXPECT_EQ(scratch.RunEnd(i) - scratch.RunBegin(i) > 0,
                scratch.Received(i));
    }
    EXPECT_EQ(total_run, flat.size());
    scratch.Reset();
    EXPECT_FALSE(scratch.active());
  };

  // Duplicate-heavy streams in one chunk, over shifting ranges.
  std::mt19937 rng(7);
  for (int round = 0; round < 20; ++round) {
    const VertexId begin = 100 + round * 13;
    const VertexId end = begin + 1 + (round * 37) % 257;
    const size_t count = static_cast<size_t>(1) << (4 + round % 10);
    std::vector<Chunk> chunks(1);
    chunks[0].real = RandomRecords(rng, begin, end, count);
    SCOPED_TRACE("single-chunk round " + std::to_string(round));
    check(begin, end, chunks);
  }

  // Streams split across several chunks.
  std::mt19937 chunk_rng(11);
  for (int round = 0; round < 10; ++round) {
    const VertexId begin = 5;
    const VertexId end = begin + 64 + round;
    std::vector<Chunk> chunks(3 + round % 4);
    uint64_t serial = 0;
    for (Chunk& chunk : chunks) {
      std::uniform_int_distribution<VertexId> target(begin, end - 1);
      const size_t n = 1 + (chunk_rng() % 300);
      for (size_t i = 0; i < n; ++i) {
        chunk.real.emplace_back(target(chunk_rng), Tagged{serial++, 0.0});
      }
    }
    SCOPED_TRACE("multi-chunk round " + std::to_string(round));
    check(begin, end, chunks);
  }
}

TEST(CombinePlanTest, IncrementalCountingMatchesOneShotGrouping) {
  // The concurrent executor counts chunk-by-chunk at arrival (any order) and
  // places in sorted-chunk order afterwards; counting order must not matter.
  const VertexId begin = 0;
  const VertexId end = 32;
  std::mt19937 rng(23);
  auto records = RandomRecords(rng, begin, end, 4096);

  CombineScratch scratch;
  scratch.BeginRange(begin, end);
  // Count in reverse order — the frontier and counts are order-independent.
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    scratch.Count(it->first);
  }
  scratch.FinishCounts();
  std::vector<Tagged> grouped(records.size());
  for (auto& [target, payload] : records) {
    grouped[scratch.PlaceIndex(target)] = payload;
  }
  const std::vector<Tagged> expected = ReferenceGroup(records);
  ASSERT_EQ(grouped.size(), expected.size());
  for (size_t i = 0; i < grouped.size(); ++i) {
    ASSERT_EQ(grouped[i], expected[i]);
  }
}

TEST(CombinePlanTest, FrontierBitmapTracksReceivingVertices) {
  CombineScratch scratch;
  scratch.BeginRange(10, 300);  // spans several 64-bit frontier words
  const std::vector<VertexId> hit = {10, 11, 75, 76, 77, 200, 299};
  for (VertexId v : hit) {
    scratch.Count(v);
  }
  scratch.FinishCounts();
  EXPECT_EQ(scratch.ReceivedCount(), hit.size());
  std::vector<VertexId> seen;
  for (size_t i = scratch.NextReceived(0); i < scratch.range_size();
       i = scratch.NextReceived(i + 1)) {
    seen.push_back(static_cast<VertexId>(10 + i));
  }
  EXPECT_EQ(seen, hit);
  EXPECT_EQ(scratch.NextReceived(scratch.range_size()), scratch.range_size());
  EXPECT_EQ(scratch.NextReceived(scratch.range_size() + 100),
            scratch.range_size());
  EXPECT_TRUE(scratch.Received(0));   // vertex 10
  EXPECT_TRUE(scratch.Received(1));   // vertex 11
  EXPECT_FALSE(scratch.Received(2));  // vertex 12 got nothing
}

TEST(CombinePlanTest, EmptyRangeAndEmptyInputAreSafe) {
  CombineScratch scratch;
  scratch.BeginRange(42, 42);
  scratch.FinishCounts();
  EXPECT_EQ(scratch.total(), 0u);
  EXPECT_EQ(scratch.range_size(), 0u);
  EXPECT_EQ(scratch.NextReceived(0), 0u);
  EXPECT_EQ(scratch.ReceivedCount(), 0u);

  scratch.BeginRange(0, 17);
  scratch.FinishCounts();
  EXPECT_EQ(scratch.NextReceived(0), scratch.range_size());
  for (size_t i = 0; i < scratch.range_size(); ++i) {
    EXPECT_EQ(scratch.RunBegin(i), scratch.RunEnd(i));
  }
}

TEST(CombinePlanTest, VirtualGroupingMatchesStableSortById) {
  std::mt19937 rng(31);
  for (int round = 0; round < 10; ++round) {
    // IDs are arbitrary, non-dense 64-bit values (VDD uses raw degrees).
    std::vector<uint64_t> id_pool;
    for (int i = 0; i < 20; ++i) {
      id_pool.push_back((static_cast<uint64_t>(rng()) << 32) | rng());
    }
    std::vector<std::pair<uint64_t, Tagged>> records;
    for (size_t i = 0; i < 2000; ++i) {
      records.emplace_back(id_pool[rng() % id_pool.size()], Tagged{i, 0.0});
    }
    auto reference = records;
    std::stable_sort(
        reference.begin(), reference.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });

    VirtualGroupScratch scratch;
    std::vector<Tagged> grouped;
    GroupVirtualMessages(scratch, records, grouped);
    ASSERT_EQ(grouped.size(), reference.size());
    ASSERT_EQ(scratch.offsets.size(), scratch.ids.size() + 1);
    // ids ascending, groups contiguous, contents in stable order.
    size_t flat = 0;
    for (size_t i = 0; i < scratch.ids.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(scratch.ids[i - 1], scratch.ids[i]);
      }
      for (size_t j = scratch.offsets[i]; j < scratch.offsets[i + 1]; ++j) {
        ASSERT_EQ(reference[flat].first, scratch.ids[i]);
        ASSERT_EQ(grouped[j], reference[flat].second);
        ++flat;
      }
    }
    EXPECT_EQ(flat, reference.size());
  }
}

}  // namespace
}  // namespace runtime
}  // namespace surfer
