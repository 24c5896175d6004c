// SeqDedup, the UDP receiver's per-source at-most-once state, against a
// reference model: the std::unordered_set with a prune floor that the
// transport kept before (seen set, max_seen, floor), replayed over
// random streams with reordering, duplicates and stale replays.
#include "net/seq_dedup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

namespace aqua::net {
namespace {

/// The reference: a hash set of seen seqs and the prune floor.
struct ReferenceDedup {
  std::size_t capacity;
  std::uint64_t window;
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t max_seen = 0;
  std::uint64_t floor = 0;

  SeqDedup::Verdict admit(std::uint64_t seq) {
    if (seq < floor) return SeqDedup::Verdict::kBelowFloor;
    if (!seen.insert(seq).second) return SeqDedup::Verdict::kDuplicate;
    max_seen = std::max(max_seen, seq);
    if (seen.size() > capacity && max_seen > window) {
      floor = std::max(floor, max_seen - window);
      std::erase_if(seen, [this](std::uint64_t s) { return s < floor; });
    }
    return SeqDedup::Verdict::kFresh;
  }
};

TEST(SeqDedupTest, PrunedSeqsAreRefusedBelowTheFloor) {
  SeqDedup dedup{4, 4};
  for (std::uint64_t seq = 1; seq <= 9; ++seq) {
    EXPECT_EQ(dedup.admit(seq), SeqDedup::Verdict::kFresh);
  }
  EXPECT_EQ(dedup.floor(), 5u);
  EXPECT_EQ(dedup.size(), 5u);
  EXPECT_EQ(dedup.admit(3), SeqDedup::Verdict::kBelowFloor);
  EXPECT_EQ(dedup.admit(9), SeqDedup::Verdict::kDuplicate);
  EXPECT_EQ(dedup.admit(10), SeqDedup::Verdict::kFresh);
  EXPECT_TRUE(dedup.admitted(3));  // below the floor: no longer known
  EXPECT_TRUE(dedup.admitted(7));
  EXPECT_FALSE(dedup.admitted(11));
}

TEST(SeqDedupTest, OutOfOrderArrivalsAreKeptSorted) {
  SeqDedup dedup{100, 100};
  for (std::uint64_t seq : {10u, 5u, 7u, 6u, 12u, 11u, 1u}) {
    EXPECT_EQ(dedup.admit(seq), SeqDedup::Verdict::kFresh) << seq;
  }
  for (std::uint64_t seq : {10u, 5u, 7u, 6u, 12u, 11u, 1u}) {
    EXPECT_EQ(dedup.admit(seq), SeqDedup::Verdict::kDuplicate) << seq;
    EXPECT_TRUE(dedup.admitted(seq));
  }
  EXPECT_FALSE(dedup.admitted(8));
  EXPECT_EQ(dedup.size(), 7u);
}

TEST(SeqDedupTest, StorageStopsGrowingAtCapacityPlusOne) {
  // The transport's defaults, over a stream ten times the window.
  SeqDedup dedup{8192, 4096};
  for (std::uint64_t seq = 1; seq <= 81920; ++seq) dedup.admit(seq);
  EXPECT_LE(dedup.size(), 8193u);
  EXPECT_EQ(dedup.slots(), 8193u);
}

TEST(SeqDedupProperty, MatchesTheHashSetReferenceOverRandomStreams) {
  struct Shape {
    std::size_t capacity;
    std::uint64_t window;
  };
  for (const Shape shape : {Shape{1, 1}, Shape{4, 4}, Shape{8, 3}, Shape{3, 20}, Shape{64, 32}}) {
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
      std::mt19937_64 rng{seed};
      SeqDedup dedup{shape.capacity, shape.window};
      ReferenceDedup reference{shape.capacity, shape.window, {}, 0, 0};
      std::uint64_t next = 1;
      std::vector<std::uint64_t> sent;
      for (int step = 0; step < 2000; ++step) {
        std::uint64_t seq = 0;
        const auto roll = rng() % 10;
        if (roll < 6 || sent.empty()) {
          next += 1 + rng() % 4;  // the source's seqs are sparse in the shared space
          seq = next;
          sent.push_back(seq);
        } else if (roll < 8) {
          seq = sent[sent.size() - 1 - rng() % std::min<std::size_t>(sent.size(), 6)];
        } else {
          seq = sent[rng() % sent.size()];  // a stale replay
        }
        ASSERT_EQ(dedup.admit(seq), reference.admit(seq))
            << "capacity " << shape.capacity << " window " << shape.window << " seed " << seed
            << " step " << step << " seq " << seq;
        ASSERT_EQ(dedup.size(), reference.seen.size());
        ASSERT_EQ(dedup.floor(), reference.floor);
      }
      for (std::uint64_t seq = 1; seq <= next + 1; ++seq) {
        ASSERT_EQ(dedup.admitted(seq), seq < reference.floor || reference.seen.contains(seq));
      }
      EXPECT_LE(dedup.slots(), std::max<std::size_t>(shape.capacity, shape.window + 1) + 1);
    }
  }
}

}  // namespace
}  // namespace aqua::net
