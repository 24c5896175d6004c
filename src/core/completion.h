// Completion predicates for the reply path.
//
// The paper's Algorithm 1 hardwires "first reply wins": the handler
// delivers reply #1 and discards the rest. Generalizing the decision of
// *when a request is done* into a CompletionSpec unlocks two families the
// ROADMAP names:
//
//   k-of-n chunks — a divisible job is split into k chunks and MDS-coded
//   into n chunk-requests; ANY k distinct chunk-replies reconstruct the
//   result (Duffy & Shneer, PAPERS.md). We take the rateless view: the
//   chunk index space is unbounded, every freshly assigned index is
//   useful, so a redispatch after a crash simply hands out new indices
//   and the k-distinct invariant still holds.
//
//   quorum — k distinct *replicas* must answer (whole requests, no
//   coding); the read-quorum building block for future consistency work.
//
//   majority value — one value must come back from a strict majority of
//   the dispatched replicas: AQuA's active handler (§2, [16]), which
//   masks value faults as well as crashes by voting.
//
// The default spec (first-of-n) is the paper's semantics exactly, and the
// collector below is pure bookkeeping — no randomness, no scheduled
// events — so the default dispatch path stays bit-identical to the paper
// policy (fig4/fig5 golden tests pin this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace aqua::core {

enum class CompletionKind : std::uint8_t {
  /// The paper's semantics: any one reply completes the request.
  kFirstOfN = 0,
  /// MDS-coded divisible job: k distinct chunk indices complete it.
  kKOfN = 1,
  /// k distinct replicas must answer (whole requests, no chunking).
  kQuorum = 2,
  /// k distinct replicas must answer with one value, k = floor(n/2) + 1
  /// of the n replicas in K at the first plan.
  kMajorityValue = 3,
};

/// When is a request complete? Carried inside DispatchConfig; the
/// default value reproduces the paper's first-reply-wins behaviour.
struct CompletionSpec {
  CompletionKind kind = CompletionKind::kFirstOfN;
  /// Distinct chunks (kKOfN) or distinct replicas (kQuorum) required.
  /// Ignored for kFirstOfN. Clamped to the dispatched set size when a
  /// plan is built, so an over-ambitious k can never stall a request
  /// that received every possible reply; kMajorityValue's is set there
  /// from the dispatched set size.
  std::size_t k = 1;

  [[nodiscard]] static CompletionSpec first_of_n() { return {}; }
  [[nodiscard]] static CompletionSpec k_of_n(std::size_t k) {
    return {CompletionKind::kKOfN, k};
  }
  [[nodiscard]] static CompletionSpec quorum(std::size_t k) {
    return {CompletionKind::kQuorum, k};
  }
  [[nodiscard]] static CompletionSpec majority_value() {
    return {CompletionKind::kMajorityValue, 1};
  }

  /// True for the paper's first-reply semantics — the identity branch of
  /// every dispatch path keys off this.
  [[nodiscard]] bool is_default() const { return kind == CompletionKind::kFirstOfN; }

  /// Replies needed to complete (>= 1).
  [[nodiscard]] std::size_t required() const {
    if (kind == CompletionKind::kFirstOfN) return 1;
    return k > 0 ? k : 1;
  }

  [[nodiscard]] bool operator==(const CompletionSpec&) const = default;
};

/// Tracks the replies of one pending request and decides completion.
///
/// record() returns true exactly once — on the reply that satisfies the
/// spec (the k-th *distinct* chunk or replica, the k-th distinct replica
/// agreeing on one value, or the first reply for the default spec) — and
/// false forever after; duplicate and stale replies are counted, never
/// double-counted. The collector is deliberately not internally locked:
/// it lives in a core::RequestEngine, which the simulator drives from one
/// thread and ThreadedClient under its mutex.
class ReplyCollector {
 public:
  /// Replace the default first-of-n spec. Must be called before the
  /// first record(); `code_id` tags the dispatch generation — replies
  /// carrying a different id are counted stale and never complete.
  /// Arming twice is ignored (a redispatch keeps the original predicate
  /// and its progress).
  void arm(CompletionSpec spec, std::uint64_t code_id);

  /// Account one reply carrying `value`. Returns true iff this reply
  /// completes the request (the transition to complete happens exactly
  /// once).
  bool record(ReplicaId replica, std::uint32_t chunk, std::uint64_t code_id,
              std::int64_t value);

  /// Whether `more` further distinct replies could still complete the
  /// request (true once complete). With none left to come, a split vote
  /// or a short chunk count is impossible.
  [[nodiscard]] bool can_complete(std::size_t more) const;

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] const CompletionSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t code_id() const { return code_id_; }
  [[nodiscard]] std::size_t required() const { return spec_.required(); }

  /// Distinct useful replies so far (chunk indices for kKOfN, replicas
  /// for kQuorum and kMajorityValue, answered-or-not for kFirstOfN).
  [[nodiscard]] std::size_t distinct() const;
  /// kMajorityValue: replicas behind the most common value (0 otherwise).
  [[nodiscard]] std::size_t votes() const;

  /// Replies that repeated an already-counted chunk/replica or arrived
  /// after completion.
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  /// Replies whose code id did not match the armed dispatch generation.
  [[nodiscard]] std::uint64_t stale() const { return stale_; }

 private:
  CompletionSpec spec_{};
  std::uint64_t code_id_ = 0;
  bool armed_ = false;
  bool complete_ = false;
  std::uint64_t duplicates_ = 0;
  std::uint64_t stale_ = 0;
  std::vector<std::uint32_t> chunks_;    // distinct chunk indices seen
  std::vector<ReplicaId> replicas_;      // distinct repliers seen
  std::vector<std::pair<std::int64_t, std::size_t>> tally_;  // value -> repliers
};

}  // namespace aqua::core
