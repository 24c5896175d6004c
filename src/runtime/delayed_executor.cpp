#include "runtime/delayed_executor.h"

#include "common/assert.h"
#include "runtime/timer_slack.h"

namespace aqua::runtime {

DelayedExecutor::DelayedExecutor() : thread_([this] { worker(); }) {}

DelayedExecutor::~DelayedExecutor() { shutdown(); }

bool DelayedExecutor::run_at(TimePoint at, Task task) {
  AQUA_REQUIRE(task != nullptr, "task must be callable");
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return false;
    tasks_.push(Entry{to_steady(at), next_seq_++, std::move(task)});
  }
  cv_.notify_one();
  return true;
}

void DelayedExecutor::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    while (!tasks_.empty()) tasks_.pop();
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DelayedExecutor::worker() {
  use_precise_timers();
  std::unique_lock lock(mutex_);
  while (true) {
    if (stopping_) return;
    if (tasks_.empty()) {
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      continue;
    }
    const auto next_at = tasks_.top().at;
    if (Clock::now() < next_at) {
      cv_.wait_until(lock, next_at);
      continue;
    }
    Task task = std::move(const_cast<Entry&>(tasks_.top()).task);
    tasks_.pop();
    lock.unlock();
    task();
    lock.lock();
  }
}

}  // namespace aqua::runtime
