#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace blowfish {
namespace {

TEST(ThreadPoolTest, SubmitDeliversResultsThroughFutures) {
  ThreadPool pool(4);
  std::vector<std::future<int>> results;
  results.reserve(100);
  for (int i = 0; i < 100; ++i) {
    results.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(results[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, StressManySmallTasks) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  constexpr int kTasks = 5000;
  std::vector<std::future<void>> done;
  done.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    done.push_back(pool.Submit([&counter]() {
      counter.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.load(), kTasks);
  // tasks_executed() is bumped after a task's future resolves, so only a
  // drained pool is guaranteed to have counted the final task.
  pool.Shutdown();
  EXPECT_EQ(pool.tasks_executed(), static_cast<uint64_t>(kTasks));
}

TEST(ThreadPoolTest, ShutdownDrainsWorkInFlight) {
  std::atomic<int> counter{0};
  constexpr int kTasks = 500;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Post([&counter]() {
        // Slow enough that most tasks are still queued when Shutdown
        // begins.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.Shutdown();  // must drain every queued task, not drop them
    EXPECT_EQ(counter.load(), kTasks);
    EXPECT_EQ(pool.queue_depth(), 0u);
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  const std::thread::id caller = std::this_thread::get_id();
  auto ran_on = pool.Submit([]() { return std::this_thread::get_id(); });
  EXPECT_EQ(ran_on.get(), caller);
}

TEST(ThreadPoolTest, ZeroThreadsIsAnInlineExecutor) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  auto ran_on = pool.Submit([]() { return std::this_thread::get_id(); });
  EXPECT_EQ(ran_on.get(), caller);
  EXPECT_EQ(pool.tasks_executed(), 1u);
}

TEST(ThreadPoolTest, TryPostQueuesOnlyForAWorker) {
  // Where Post would run a task inline, TryPost refuses it unrun.
  bool ran = false;
  ThreadPool inline_pool(0);
  EXPECT_FALSE(inline_pool.TryPost([&ran]() { ran = true; }));
  ThreadPool stopped(1);
  stopped.Shutdown();
  EXPECT_FALSE(stopped.TryPost([&ran]() { ran = true; }));
  EXPECT_FALSE(ran);

  ThreadPool pool(1);
  std::promise<std::thread::id> ran_on;
  ASSERT_TRUE(pool.TryPost([&ran_on]() {
    ran_on.set_value(std::this_thread::get_id());
  }));
  EXPECT_NE(ran_on.get_future().get(), std::this_thread::get_id());
}

TEST(ThreadPoolTest, ConcurrentSubmittersShareThePool) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter]() {
      std::vector<std::future<void>> done;
      done.reserve(kTasksEach);
      for (int i = 0; i < kTasksEach; ++i) {
        done.push_back(pool.Submit([&counter]() {
          counter.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& f : done) f.get();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  auto result = pool.Submit([]() { return 7; });
  EXPECT_EQ(result.get(), 7);
  pool.Shutdown();
  pool.Shutdown();  // second call must be a no-op, not a crash or hang
}

}  // namespace
}  // namespace blowfish
