// At-most-once admission of one source's DATA sequence numbers at one
// receiving endpoint (net::UdpTransport).
//
// Keeps the seqs already delivered, plus a prune floor: once more than
// `capacity` seqs are held, everything below max_seen - window is
// forgotten and refused outright from then on, so a straggler
// retransmit of a pruned seq is never delivered a second time. A first
// arrival below the floor is refused too (it cannot be told from a
// replay); admit() reports it apart from a plain duplicate so the
// transport can count it.
//
// The seqs sit sorted in a ring of plain integers that grows to
// max(capacity, window + 1) + 1 entries at most, so a receiver pays 8
// bytes per remembered seq and, once grown, allocates nothing per frame.
// Arrivals are mostly in order: a seq above max_seen appends, an
// out-of-order one is placed by binary search.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace aqua::net {

class SeqDedup {
 public:
  enum class Verdict { kFresh, kDuplicate, kBelowFloor };

  SeqDedup(std::size_t capacity, std::uint64_t window) : capacity_(capacity), window_(window) {
    const std::uint64_t span =
        std::max<std::uint64_t>(capacity, window == std::numeric_limits<std::uint64_t>::max()
                                              ? window
                                              : window + 1);
    max_entries_ = static_cast<std::size_t>(
        std::min<std::uint64_t>(span, std::numeric_limits<std::size_t>::max() - 1) + 1);
  }

  /// Records `seq` as delivered if it is fresh.
  Verdict admit(std::uint64_t seq) {
    if (seq < floor_) return Verdict::kBelowFloor;
    if (size_ == 0 || seq > at(size_ - 1)) {
      grow_if_full();
      slot(size_) = seq;
      ++size_;
    } else {
      const std::size_t pos = lower_bound(seq);
      if (at(pos) == seq) return Verdict::kDuplicate;
      grow_if_full();
      for (std::size_t i = size_; i > pos; --i) slot(i) = at(i - 1);
      slot(pos) = seq;
      ++size_;
    }
    max_seen_ = std::max(max_seen_, seq);
    if (size_ > capacity_ && max_seen_ > window_) {
      floor_ = std::max(floor_, max_seen_ - window_);
      while (size_ > 0 && at(0) < floor_) {
        head_ = wrap(head_ + 1);
        --size_;
      }
    }
    return Verdict::kFresh;
  }

  /// Whether `seq` was delivered, or lies below the floor where that is
  /// no longer known.
  [[nodiscard]] bool admitted(std::uint64_t seq) const {
    if (seq < floor_) return true;
    return size_ > 0 && seq <= at(size_ - 1) && at(lower_bound(seq)) == seq;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t floor() const { return floor_; }
  /// Seqs the ring can hold before it grows again.
  [[nodiscard]] std::size_t slots() const { return ring_.size(); }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= ring_.size() ? i - ring_.size() : i;
  }
  [[nodiscard]] std::uint64_t at(std::size_t i) const { return ring_[wrap(head_ + i)]; }
  std::uint64_t& slot(std::size_t i) { return ring_[wrap(head_ + i)]; }

  /// First logical index whose seq is >= `seq` (size_ if none).
  [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const {
    std::size_t lo = 0;
    std::size_t hi = size_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (at(mid) < seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Makes room for one more seq, unrolling the ring into a larger one.
  void grow_if_full() {
    if (size_ < ring_.size()) return;
    const std::size_t grown = std::min(std::max<std::size_t>(16, 2 * ring_.size()), max_entries_);
    std::vector<std::uint64_t> next(grown);
    for (std::size_t i = 0; i < size_; ++i) next[i] = at(i);
    ring_.swap(next);
    head_ = 0;
  }

  std::size_t capacity_;
  std::uint64_t window_;
  std::size_t max_entries_ = 0;
  std::vector<std::uint64_t> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t max_seen_ = 0;
  std::uint64_t floor_ = 0;
};

}  // namespace aqua::net
