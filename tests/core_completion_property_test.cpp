// Property tests for the completion predicates behind coded dispatch and
// the voting handler.
//
// The contract under test: an armed ReplyCollector fires exactly once, at
// the k-th DISTINCT chunk (or, voting, the majority-th distinct replica
// agreeing on one value), under every interleaving of replies —
// duplicates, stale code ids, crash-truncated streams, cancel-truncated
// streams — and never again after. The threaded hammer at the bottom runs
// this file's sharing discipline (record() under an external mutex, as the
// threaded client does) under ThreadSanitizer via the fault tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/completion.h"

namespace aqua::core {
namespace {

TEST(CompletionSpecTest, DefaultIsFirstOfN) {
  CompletionSpec spec;
  EXPECT_TRUE(spec.is_default());
  EXPECT_EQ(spec.kind, CompletionKind::kFirstOfN);
  EXPECT_EQ(spec.required(), 1u);
  EXPECT_EQ(spec, CompletionSpec::first_of_n());
}

TEST(CompletionSpecTest, KOfNAndQuorumAreNotDefault) {
  EXPECT_FALSE(CompletionSpec::k_of_n(2).is_default());
  EXPECT_FALSE(CompletionSpec::quorum(2).is_default());
  EXPECT_FALSE(CompletionSpec::majority_value().is_default());
  EXPECT_EQ(CompletionSpec::k_of_n(3).required(), 3u);
  EXPECT_EQ(CompletionSpec::quorum(2).required(), 2u);
  // k = 0 is normalised: a predicate that can never fire is not a thing.
  EXPECT_EQ(CompletionSpec::k_of_n(0).required(), 1u);
}

TEST(ReplyCollectorTest, UnarmedCollectorIsFirstReplyWins) {
  ReplyCollector collector;
  EXPECT_FALSE(collector.armed());
  EXPECT_TRUE(collector.record(ReplicaId{1}, 0, 0, 0));
  EXPECT_TRUE(collector.complete());
  EXPECT_FALSE(collector.record(ReplicaId{2}, 0, 0, 0));
  EXPECT_EQ(collector.duplicates(), 1u);
}

TEST(ReplyCollectorTest, KOfNFiresAtKthDistinctChunk) {
  ReplyCollector collector;
  collector.arm(CompletionSpec::k_of_n(3), 42);
  EXPECT_FALSE(collector.record(ReplicaId{1}, 0, 42, 0));
  EXPECT_FALSE(collector.record(ReplicaId{2}, 1, 42, 0));
  EXPECT_EQ(collector.distinct(), 2u);
  EXPECT_TRUE(collector.record(ReplicaId{3}, 2, 42, 0));
  EXPECT_TRUE(collector.complete());
}

TEST(ReplyCollectorTest, DuplicateChunksDoNotAdvanceKOfN) {
  ReplyCollector collector;
  collector.arm(CompletionSpec::k_of_n(2), 7);
  EXPECT_FALSE(collector.record(ReplicaId{1}, 0, 7, 0));
  // Retransmits of chunk 0 — from the same or another replica — add no
  // information: an MDS code needs distinct symbols.
  EXPECT_FALSE(collector.record(ReplicaId{1}, 0, 7, 0));
  EXPECT_FALSE(collector.record(ReplicaId{2}, 0, 7, 0));
  EXPECT_EQ(collector.distinct(), 1u);
  EXPECT_TRUE(collector.record(ReplicaId{2}, 1, 7, 0));
}

TEST(ReplyCollectorTest, SameReplicaCanCompleteKOfNWithTwoChunks) {
  // Rateless view: chunk identity is what counts, not replica identity.
  // One replica answering both its chunks legitimately completes k=2.
  ReplyCollector collector;
  collector.arm(CompletionSpec::k_of_n(2), 9);
  EXPECT_FALSE(collector.record(ReplicaId{5}, 3, 9, 0));
  EXPECT_TRUE(collector.record(ReplicaId{5}, 4, 9, 0));
}

TEST(ReplyCollectorTest, QuorumCountsDistinctReplicasNotChunks) {
  ReplyCollector collector;
  collector.arm(CompletionSpec::quorum(2), 0);
  EXPECT_FALSE(collector.record(ReplicaId{5}, 0, 0, 0));
  EXPECT_FALSE(collector.record(ReplicaId{5}, 0, 0, 0));  // same voter twice
  EXPECT_EQ(collector.distinct(), 1u);
  EXPECT_TRUE(collector.record(ReplicaId{6}, 0, 0, 0));
}

TEST(ReplyCollectorTest, StaleCodeIdIsRejected) {
  ReplyCollector collector;
  collector.arm(CompletionSpec::k_of_n(2), 100);
  EXPECT_FALSE(collector.record(ReplicaId{1}, 0, 99, 0));  // stale generation
  EXPECT_EQ(collector.stale(), 1u);
  EXPECT_EQ(collector.distinct(), 0u);
  EXPECT_FALSE(collector.record(ReplicaId{1}, 0, 100, 0));
  EXPECT_TRUE(collector.record(ReplicaId{2}, 1, 100, 0));
}

TEST(ReplyCollectorTest, ArmIsFirstWriterWins) {
  ReplyCollector collector;
  collector.arm(CompletionSpec::k_of_n(3), 1);
  // A redispatch re-planning the request must not reset collected chunks
  // or swap the predicate out from under them.
  collector.arm(CompletionSpec::first_of_n(), 2);
  EXPECT_EQ(collector.spec().kind, CompletionKind::kKOfN);
  EXPECT_EQ(collector.code_id(), 1u);
  EXPECT_EQ(collector.required(), 3u);
}

// The core property: for random (n, k) and ANY interleaving of replies —
// duplicates interleaved, stale generations mixed in, stream truncated as
// a crash or cancel would — record() returns true exactly once, at the
// moment the k-th distinct chunk lands, and never after. A vote is one
// more input: each of n replicas answers a value from a three-letter
// alphabet, so ties and splits are common, and some answer again (a
// duplicate or a redispatched copy, maybe with another value). It fires
// once one value has floor(n/2)+1 distinct repliers, and a replica's
// repeat never counts. With nothing left to come, an undecided predicate
// — a tie, a split, a short chunk count — is reported as impossible.
TEST(ReplyCollectorPropertyTest, FiresExactlyOnceAtKthDistinctChunkUnderAnyInterleaving) {
  for (const CompletionKind kind : {CompletionKind::kKOfN, CompletionKind::kMajorityValue}) {
    const bool vote = kind == CompletionKind::kMajorityValue;
    Rng rng{20260808};
    for (int trial = 0; trial < 500; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
      const auto k = vote ? n / 2 + 1
                          : static_cast<std::size_t>(
                                rng.uniform_int(1, static_cast<std::int64_t>(n)));
      const std::uint64_t code_id = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));

      // Build the reply stream: every chunk (vote: every replica) once,
      // plus random duplicates and stale-generation replies, then shuffle
      // into an arbitrary arrival order. A random truncation models a
      // crash/cancel cutting it short.
      struct Arrival {
        ReplicaId replica;
        std::uint32_t chunk;
        std::uint64_t code_id;
        std::int64_t value;
      };
      const std::int64_t replicas = vote ? static_cast<std::int64_t>(n) : 4;
      auto any_replica = [&] {
        return ReplicaId{static_cast<std::uint64_t>(rng.uniform_int(1, replicas))};
      };
      std::vector<Arrival> stream;
      for (std::uint32_t c = 0; c < n; ++c) {
        const ReplicaId replica = vote ? ReplicaId{c + 1u} : any_replica();
        stream.push_back({replica, c, code_id, rng.uniform_int(0, 2)});
      }
      const auto duplicates = static_cast<std::size_t>(rng.uniform_int(0, 5));
      for (std::size_t d = 0; d < duplicates; ++d) {
        const ReplicaId replica = any_replica();
        const auto chunk = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        stream.push_back({replica, chunk, code_id, rng.uniform_int(0, 2)});
      }
      const auto stale = static_cast<std::size_t>(rng.uniform_int(0, 3));
      for (std::size_t d = 0; d < stale; ++d) {
        const ReplicaId replica = any_replica();
        const auto chunk = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
        stream.push_back({replica, chunk, code_id + 1, rng.uniform_int(0, 2)});
      }
      std::shuffle(stream.begin(), stream.end(), rng);
      if (rng.bernoulli(0.3)) {
        stream.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(stream.size()))));
      }

      CompletionSpec spec = vote ? CompletionSpec::majority_value() : CompletionSpec::k_of_n(k);
      spec.k = k;  // a vote's k is what plan_dispatch sets for |K| = n
      ReplyCollector collector;
      collector.arm(spec, code_id);

      // The model: a chunk (vote: a replica) counts once; its value's
      // tally decides a vote, the count of distinct chunks k-of-n.
      std::size_t fired = 0;
      bool decided = false;
      std::vector<std::uint64_t> seen;
      std::map<std::int64_t, std::size_t> tally;
      for (const Arrival& a : stream) {
        const std::uint64_t key = vote ? a.replica.value() : a.chunk;
        const bool fresh = a.code_id == code_id && !decided &&
                           std::find(seen.begin(), seen.end(), key) == seen.end();
        const bool completed = collector.record(a.replica, a.chunk, a.code_id, a.value);
        if (fresh) {
          seen.push_back(key);
          decided = ++tally[vote ? a.value : 0] >= k;
        }
        if (completed) {
          ++fired;
          // Fired on the reply that decided it, not before or after.
          EXPECT_TRUE(fresh && decided) << "trial " << trial;
        }
        EXPECT_EQ(collector.complete(), decided) << "trial " << trial;
      }
      EXPECT_LE(fired, 1u) << "trial " << trial;
      EXPECT_EQ(fired == 1, decided) << "trial " << trial;
      EXPECT_EQ(collector.distinct(), seen.size()) << "trial " << trial;
      EXPECT_EQ(collector.can_complete(0), decided) << "trial " << trial;
      if (vote) {
        // Replicas not yet heard from may still tip the vote.
        std::size_t top = 0;
        for (const auto& [value, repliers] : tally) top = std::max(top, repliers);
        const std::size_t silent = n - seen.size();
        EXPECT_EQ(collector.can_complete(silent), decided || top + silent >= k)
            << "trial " << trial;
      }
      // Replaying the whole stream after completion (late stragglers,
      // post-cancel races) never re-fires.
      for (const Arrival& a : stream) {
        EXPECT_FALSE(collector.record(a.replica, a.chunk, a.code_id, a.value))
            << "trial " << trial;
      }
    }
  }
}

// Threaded hammer for the sharing discipline the runtimes use: many
// threads deliver chunk replies under one external mutex (the threaded
// client records under RequestState::mutex). Exactly one thread may
// observe completion. TSan runs this via the fault tier.
TEST(ReplyCollectorThreadedTest, ExactlyOneThreadObservesCompletion) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 200;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t k = 1 + round % 4;
    ReplyCollector collector;
    collector.arm(CompletionSpec::k_of_n(k), 1);
    std::mutex mutex;
    std::atomic<int> completions{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread delivers two chunk replies; chunk ids collide across
        // threads so duplicates race with fresh chunks.
        for (std::uint32_t c = 0; c < 2; ++c) {
          const auto chunk = static_cast<std::uint32_t>((t + c * 3) % (k + 2));
          bool completed = false;
          {
            std::lock_guard<std::mutex> lock{mutex};
            completed = collector.record(ReplicaId{t + 1}, chunk, 1, 0);
          }
          if (completed) completions.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    EXPECT_EQ(completions.load(), 1) << "round " << round;
    EXPECT_TRUE(collector.complete());
    EXPECT_EQ(collector.distinct(), k);
  }
}

}  // namespace
}  // namespace aqua::core
