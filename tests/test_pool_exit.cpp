/// \file test_pool_exit.cpp
/// \brief Process exit with metrics on when the forest pool, not an obs
/// call, is the first user of the metrics registry. Static destruction
/// must not free the registry while the pool's workers can still record
/// into it (they add par.pool.idle_wait_ns when the pool's destructor
/// wakes them). This binary makes no other obs call, so the ordering
/// under test is the one a fresh process gets; the sanitizer CI legs turn
/// a use-after-free at exit into a failure.

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "obs/metrics.hpp"

namespace qforest {
namespace {

TEST(PoolExit, PoolStartedBeforeRegistryExitsCleanly) {
  // Flips the recording gate only; the registry stays unconstructed.
  obs::set_metrics(true);
  par::ThreadPool& pool = detail::forest_pool();
  std::atomic<std::size_t> ran{0};
  pool.parallel_for_grain(64, 1, [&](std::size_t b, std::size_t e) {
    ran.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 64u);
  // Let every worker return to its timed idle wait, so the destructor's
  // wake-up records into the registry during static destruction.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

}  // namespace
}  // namespace qforest
