// parallel_for_chunked, the per-call fork/join every sweep runs on: the
// sweep harness's correctness rests on visiting every index exactly once,
// keeping results in slot order, and propagating the lowest-index exception
// instead of terminating — under contention, nesting, oversubscription,
// back-to-back calls, concurrent clients, and while another loop's every
// lane is blocked. A loop never holds more than hardware-concurrency lanes,
// and a nested loop runs on its caller's lane.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"

namespace dmsched {
namespace {

/// Also the most lanes one top-level loop may hold.
unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

class ParallelForTest : public ::testing::TestWithParam<unsigned> {
 protected:
  SweepOptions one_at_a_time() const {
    return {.threads = GetParam(), .chunk = 1};
  }
};

TEST_P(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;  // prime: never divides evenly
  std::vector<std::atomic<int>> visits(kCount);
  parallel_for_chunked(kCount, one_at_a_time(),
                       [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, ResultsLandInInputOrder) {
  // Each task writes to its own slot; the output must line up with input
  // order no matter which lane ran which index or in what order.
  constexpr std::size_t kCount = 100;
  std::vector<std::size_t> out(kCount, SIZE_MAX);
  parallel_for_chunked(kCount, one_at_a_time(), [&](std::size_t i) {
    // Stagger finish times so late indices often complete first.
    if (i % 7 == 0) std::this_thread::yield();
    out[i] = i * i;
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(out[i], i * i) << "slot " << i;
  }
}

TEST_P(ParallelForTest, PropagatesWorkerExceptions) {
  constexpr std::size_t kCount = 64;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      parallel_for_chunked(kCount, one_at_a_time(),
                           [&](std::size_t i) {
                             ran.fetch_add(1);
                             if (i == 13) {
                               throw std::runtime_error("boom at 13");
                             }
                           }),
      std::runtime_error);
  // The failing index ran; the lanes wound down without visiting everything
  // or deadlocking. (With 1 thread the loop stops exactly at the throw.)
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), static_cast<int>(kCount));
}

TEST_P(ParallelForTest, FirstExceptionWinsWhenAllWorkersThrow) {
  EXPECT_THROW(parallel_for_chunked(32, one_at_a_time(),
                                    [](std::size_t) {
                                      throw std::invalid_argument(
                                          "everybody");
                                    }),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, ParallelForTest,
    ::testing::Values(1u, 2u, hardware_threads(),
                      // more lanes than items at count 32/64 and a count+7
                      // analogue at 257: oversubscription must be harmless
                      264u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
      // Index-prefixed so names stay unique even if hardware_concurrency()
      // happens to equal one of the fixed counts. (Built with += to dodge
      // GCC 12's -Wrestrict false positive on chained string operator+.)
      std::string name = "p";
      name += std::to_string(info.index);
      name += "_threads_";
      name += std::to_string(info.param);
      return name;
    });

TEST(ParallelFor, ZeroCountIsANoOp) {
  bool called = false;
  parallel_for_chunked(0, {.threads = 8, .chunk = 1},
                       [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ZeroThreadsMeansHardwareConcurrency) {
  constexpr std::size_t kCount = 50;
  std::vector<std::atomic<int>> visits(kCount);
  parallel_for_chunked(kCount, {.threads = 0, .chunk = 1},
                       [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1);
  }
}

TEST(ParallelFor, HeavyContentionOnASharedCounter) {
  // All lanes hammer one atomic: the sum must still be exact.
  constexpr std::size_t kCount = 10'000;
  std::atomic<std::int64_t> sum{0};
  parallel_for_chunked(kCount, {.threads = hardware_threads(), .chunk = 1},
                       [&](std::size_t i) {
                         sum.fetch_add(static_cast<std::int64_t>(i) + 1,
                                       std::memory_order_relaxed);
                       });
  const auto expected =
      static_cast<std::int64_t>(kCount) * (kCount + 1) / 2;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelForPool, RecursiveParallelForCompletes) {
  // Loops inside loops inside loops: each inner loop runs serially on the
  // lane that called it, so the nesting never waits on a free thread.
  const SweepOptions options{.threads = 4};
  std::atomic<int> leaf{0};
  parallel_for_chunked(4, options, [&](std::size_t) {
    parallel_for_chunked(4, options, [&](std::size_t) {
      parallel_for_chunked(4, options,
                           [&](std::size_t) { leaf.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaf.load(), 64);
}

TEST(ParallelForPool, ReuseAcrossHundredsOfSequentialLoops) {
  // Back-to-back small loops each start and join their own threads. 150
  // sequential "sweeps" must each produce exact results.
  for (int sweep = 0; sweep < 150; ++sweep) {
    constexpr std::size_t kCount = 64;
    std::vector<std::size_t> out(kCount, SIZE_MAX);
    parallel_for_chunked(kCount, SweepOptions{},
                         [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(out[i], i * i) << "sweep " << sweep << " slot " << i;
    }
  }
}

/// Distinct threads that run the body of one loop asked for `threads` lanes.
/// Each index sleeps briefly so that every lane the loop starts gets work.
std::size_t lanes_used(unsigned threads) {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for_chunked(8 * std::size_t{hardware_threads()},
                       {.threads = threads, .chunk = 1}, [&](std::size_t) {
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(1));
                         const std::lock_guard<std::mutex> lock(mutex);
                         ids.insert(std::this_thread::get_id());
                       });
  return ids.size();
}

TEST(ParallelForPool, LanesNeverExceedHardwareConcurrency) {
  // A small multiple, so that a broken bound starts tens of threads, not
  // hundreds.
  EXPECT_LE(lanes_used(4 * hardware_threads()), hardware_threads());
}

TEST(ParallelForPool, NestedLoopRunsOnItsCallersThread) {
  // A loop called from a body runs serially on that body's lane, in index
  // order, whatever lane count it asks for.
  std::atomic<int> mismatches{0};
  parallel_for_chunked(
      8, {.threads = 4, .chunk = 1}, [&](std::size_t) {
        const std::thread::id outer = std::this_thread::get_id();
        std::vector<std::size_t> order;
        parallel_for_chunked(16, {.threads = 4, .chunk = 1},
                             [&](std::size_t i) {
                               if (std::this_thread::get_id() != outer) {
                                 mismatches.fetch_add(1);
                               }
                               order.push_back(i);
                             });
        std::vector<std::size_t> expected(16);
        std::iota(expected.begin(), expected.end(), std::size_t{0});
        if (order != expected) mismatches.fetch_add(1);
      });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ParallelForPool, OversubscriptionBeyondPoolWorkersIsHarmless) {
  // Far more lanes than hardware threads: the surplus never starts. The
  // bound is checked at a small multiple first, so that a broken bound
  // fails here before it can start hundreds of threads.
  ASSERT_LE(lanes_used(4 * hardware_threads()), hardware_threads());
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> visits(kCount);
  parallel_for_chunked(kCount, {.threads = 64 * hardware_threads(), .chunk = 1},
                       [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForPool, CallerMakesProgressWhileAllWorkersAreBusy) {
  // A blocker loop with one lane per hardware thread parks every lane (its
  // own caller included) on one index each. A loop issued meanwhile must
  // still complete, because its calling thread is itself a lane.
  const unsigned lanes = hardware_threads();
  std::mutex mutex;
  std::condition_variable cv;
  unsigned parked = 0;
  bool release = false;
  std::jthread blocker([&] {
    parallel_for_chunked(lanes, {.threads = lanes, .chunk = 1},
                         [&](std::size_t) {
                           std::unique_lock<std::mutex> lock(mutex);
                           ++parked;
                           cv.notify_all();
                           cv.wait(lock, [&] { return release; });
                         });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return parked == lanes; });
  }

  std::atomic<int> visited{0};
  parallel_for_chunked(100, {.threads = 4},
                       [&](std::size_t) { visited.fetch_add(1); });
  EXPECT_EQ(visited.load(), 100);

  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
}

TEST(ParallelForPool, LowestIndexExceptionWinsDeterministically) {
  // All indices throw: chunk 0 is always claimed before any wind-down, so
  // index 0's exception must win on every repeat, on any thread timing.
  for (int repeat = 0; repeat < 50; ++repeat) {
    try {
      parallel_for_chunked(64, {.threads = 4, .chunk = 4}, [](std::size_t i) {
        throw std::runtime_error("index " + std::to_string(i));
      });
      FAIL() << "parallel_for_chunked must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 0") << "repeat " << repeat;
    }
  }
}

TEST(ParallelForPool, LowerIndexWinsWithinOneChunk) {
  // Two throwers in the same chunk: the lane scans the chunk in index order
  // and abandons it at the first throw, so the lower index always surfaces
  // even though both are "first" in their own right.
  for (int repeat = 0; repeat < 25; ++repeat) {
    try {
      // Indices 10 and 30 share chunk 0.
      parallel_for_chunked(100, {.threads = 4, .chunk = 50},
                           [](std::size_t i) {
                             if (i == 10 || i == 30) {
                               throw std::runtime_error(
                                   "index " + std::to_string(i));
                             }
                           });
      FAIL() << "parallel_for_chunked must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 10") << "repeat " << repeat;
    }
  }
}

TEST(ParallelForPool, SerialPathMatchesSerialSemantics) {
  // One thread starts no thread and stops at the first throwing index,
  // exactly like a plain for loop.
  std::vector<std::size_t> visited;
  try {
    parallel_for_chunked(10, {.threads = 1}, [&](std::size_t i) {
      visited.push_back(i);
      if (i == 3) throw std::runtime_error("stop");
    });
    FAIL() << "must rethrow";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ParallelForPool, ManySmallLoopsFromConcurrentThreads) {
  // Several client threads each issue loops at once, each loop with its own
  // threads — the cross-session shape benches create. Results must stay
  // exact per client.
  constexpr int kClients = 4;
  std::vector<std::jthread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&failures] {
      for (int sweep = 0; sweep < 25; ++sweep) {
        constexpr std::size_t kCount = 97;
        std::vector<std::size_t> out(kCount, 0);
        parallel_for_chunked(kCount, SweepOptions{},
                             [&](std::size_t i) { out[i] = i + 1; });
        for (std::size_t i = 0; i < kCount; ++i) {
          if (out[i] != i + 1) failures.fetch_add(1);
        }
      }
    });
  }
  clients.clear();  // join
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace dmsched
