#include "core/completion.h"

#include <algorithm>

namespace aqua::core {

void ReplyCollector::arm(CompletionSpec spec, std::uint64_t code_id) {
  if (armed_) return;
  spec_ = spec;
  code_id_ = code_id;
  armed_ = true;
}

std::size_t ReplyCollector::distinct() const {
  switch (spec_.kind) {
    case CompletionKind::kKOfN:
      return chunks_.size();
    case CompletionKind::kQuorum:
    case CompletionKind::kMajorityValue:
      return replicas_.size();
    case CompletionKind::kFirstOfN:
      break;
  }
  return complete_ ? 1 : 0;
}

std::size_t ReplyCollector::votes() const {
  std::size_t most = 0;
  for (const auto& [value, repliers] : tally_) most = std::max(most, repliers);
  return most;
}

bool ReplyCollector::can_complete(std::size_t more) const {
  if (complete_) return true;
  const std::size_t have = spec_.kind == CompletionKind::kMajorityValue ? votes() : distinct();
  return have + more >= spec_.required();
}

bool ReplyCollector::record(ReplicaId replica, std::uint32_t chunk,
                            std::uint64_t code_id, std::int64_t value) {
  if (code_id != code_id_) {
    ++stale_;
    return false;
  }
  if (complete_) {
    ++duplicates_;
    return false;
  }
  switch (spec_.kind) {
    case CompletionKind::kFirstOfN:
      complete_ = true;
      return true;
    case CompletionKind::kKOfN:
      if (std::find(chunks_.begin(), chunks_.end(), chunk) != chunks_.end()) {
        ++duplicates_;
        return false;
      }
      chunks_.push_back(chunk);
      complete_ = chunks_.size() >= spec_.required();
      return complete_;
    case CompletionKind::kQuorum:
    case CompletionKind::kMajorityValue: {
      // One replica, one vote: a repeat or redispatched copy never counts.
      if (std::find(replicas_.begin(), replicas_.end(), replica) !=
          replicas_.end()) {
        ++duplicates_;
        return false;
      }
      replicas_.push_back(replica);
      std::size_t count = replicas_.size();
      if (spec_.kind == CompletionKind::kMajorityValue) {
        auto it = std::find_if(tally_.begin(), tally_.end(),
                               [value](const auto& entry) { return entry.first == value; });
        if (it == tally_.end()) it = tally_.insert(tally_.end(), {value, 0});
        count = ++it->second;
      }
      complete_ = count >= spec_.required();
      return complete_;
    }
  }
  return false;
}

}  // namespace aqua::core
