// Regression test for the Log data race: worker threads log while other
// threads swap the level and the sink. Run under ThreadSanitizer by the
// obs tier (`ctest -L obs` in the TSan config); before the level became
// atomic and the sink a mutex-guarded shared_ptr this raced.
#include "common/log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

namespace aqua {
namespace {

class LogRaceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Log::set_sink({});  // restore stderr
    Log::set_level(LogLevel::kWarn);
  }
};

TEST_F(LogRaceTest, ConcurrentLoggingLevelAndSinkSwaps) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kIters = 2'000;
  std::atomic<std::uint64_t> delivered{0};
  Log::set_level(LogLevel::kInfo);
  Log::set_sink([&delivered](LogLevel, const std::string&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kIters; ++i) {
        AQUA_LOG_INFO << "writer message " << i;
        if (Log::enabled(LogLevel::kDebug)) {
          AQUA_LOG_DEBUG << "debug detail " << i;
        }
      }
    });
  }
  // One thread toggles the level filter, another swaps sinks. The toggler
  // ends on kInfo: if it finishes before the writers are scheduled, their
  // messages must still get through.
  threads.emplace_back([] {
    for (std::size_t i = 0; i < kIters; ++i) {
      Log::set_level(i % 2 == 0 ? LogLevel::kError : LogLevel::kInfo);
    }
  });
  threads.emplace_back([&delivered] {
    for (std::size_t i = 0; i < kIters / 10; ++i) {
      Log::set_sink([&delivered](LogLevel, const std::string&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (std::thread& thread : threads) thread.join();

  // Sanity only — the real assertion is a clean TSan report. Some
  // messages were filtered while the level sat at kError.
  EXPECT_GT(delivered.load(), 0u);
  EXPECT_LE(delivered.load(), kWriters * kIters);
}

TEST_F(LogRaceTest, WriteRacesWithSinkReplacement) {
  // Each set_sink() destroys the previous sink; write() must have copied
  // the shared_ptr under the lock so the sink it invokes stays alive.
  Log::set_level(LogLevel::kError);
  Log::set_sink([](LogLevel, const std::string&) {});
  std::vector<std::thread> threads;
  threads.emplace_back([] {
    for (std::size_t i = 0; i < 2'000; ++i) Log::write(LogLevel::kError, "direct");
  });
  threads.emplace_back([] {
    for (std::size_t i = 0; i < 500; ++i) {
      Log::set_sink([payload = std::string(64, 'x')](LogLevel, const std::string&) {
        (void)payload;  // give the sink state worth destroying
      });
    }
  });
  for (std::thread& thread : threads) thread.join();
  SUCCEED();  // clean under TSan is the contract
}

}  // namespace
}  // namespace aqua
