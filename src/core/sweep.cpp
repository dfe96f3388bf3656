#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace dmsched {

namespace {

unsigned resolve_threads(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return std::max(threads, 1u);
}

/// One parallel_for_chunked call: its index range, the chunk counter every
/// lane claims from, and the exceptions lanes caught. It lives on the
/// caller's stack; the pool refers to it only while the caller is inside
/// LanePool::run.
struct Loop {
  Loop(std::size_t count, std::size_t chunk, std::size_t num_chunks,
       const std::function<void(std::size_t)>& fn)
      : count(count), chunk(chunk), num_chunks(num_chunks), fn(fn) {}

  const std::size_t count;
  const std::size_t chunk;
  const std::size_t num_chunks;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next_chunk{0};

  std::mutex error_mutex;
  /// (index, error) pairs, unordered; the caller rethrows the lowest index.
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;

  /// Pool lanes draining this loop right now, and the condition the caller
  /// waits on until there are none. Both are guarded by the pool's mutex.
  std::size_t running = 0;
  std::condition_variable idle;

  void drain() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t end = std::min(count, (c + 1) * chunk);
      for (std::size_t i = c * chunk; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            errors.emplace_back(i, std::current_exception());
          }
          // Claim every remaining chunk so all lanes wind down promptly
          // (chunks already claimed still finish or throw, and are recorded).
          next_chunk.store(num_chunks, std::memory_order_relaxed);
          return;
        }
      }
    }
  }
};

/// A fixed set of worker threads behind one queue of lane tickets. A ticket
/// asks one worker to drain one loop; a loop's caller drains it too, then
/// withdraws the tickets no worker took and waits only for the lanes that
/// started. So no caller ever waits on queued work, which keeps nested and
/// concurrent loops deadlock-free: every wait is on a lane that is running.
class LanePool {
 public:
  explicit LanePool(unsigned workers) {
    workers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      workers_.emplace_back([this] { work(); });
    }
  }

  ~LanePool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    // workers_ joins in its destructor; no loop is running by now, so the
    // queue is empty and every worker exits its wait.
  }

  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  /// The process-lifetime pool, started on first use with one worker per
  /// hardware thread and joined at process exit.
  static LanePool& shared() {
    static LanePool pool(resolve_threads(0));
    return pool;
  }

  /// Drain `loop` on the caller plus up to `helpers` workers, then join.
  void run(Loop& loop, std::size_t helpers) {
    helpers = std::min(helpers, workers_.size());
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      tickets_.insert(tickets_.end(), helpers, &loop);
    }
    for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();
    loop.drain();
    std::unique_lock<std::mutex> lock(mutex_);
    std::erase(tickets_, &loop);
    loop.idle.wait(lock, [&loop] { return loop.running == 0; });
  }

 private:
  void work() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stopping_ || !tickets_.empty(); });
      if (tickets_.empty()) return;
      Loop* loop = tickets_.front();
      tickets_.pop_front();
      ++loop->running;
      lock.unlock();
      loop->drain();
      lock.lock();
      // Notified under the lock: the caller cannot see running == 0, return
      // and destroy the loop until this worker releases the mutex.
      if (--loop->running == 0) loop->idle.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Loop*> tickets_;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;  // last member: joins before the rest
};

}  // namespace

std::size_t auto_chunk_size(std::size_t count, unsigned threads) {
  // Aim for ~8 chunks per lane: grabs stay rare (one atomic RMW per chunk
  // instead of per index) while stragglers can still be rebalanced.
  const std::size_t chunk =
      count / (std::size_t{8} * resolve_threads(threads));
  return std::clamp<std::size_t>(chunk, 1, 64);
}

void parallel_for_chunked(std::size_t count, const SweepOptions& options,
                          const std::function<void(std::size_t)>& fn) {
  const unsigned threads = resolve_threads(options.threads);
  // Clamp to count so oversized chunk requests cannot overflow the
  // num_chunks arithmetic (one chunk is all they can mean anyway).
  const std::size_t chunk = std::min(
      count, options.chunk == 0 ? auto_chunk_size(count, threads)
                                : options.chunk);
  const std::size_t num_chunks = chunk == 0 ? 0 : (count + chunk - 1) / chunk;
  const std::size_t lanes = std::min<std::size_t>(threads, num_chunks);
  if (lanes <= 1) {
    // Serial path: on the caller, without starting the pool. An exception
    // propagates from the first throwing index, the contract the parallel
    // path reproduces.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Loop loop(count, chunk, num_chunks, fn);
  LanePool::shared().run(loop, lanes - 1);
  if (!loop.errors.empty()) {
    const auto lowest = std::min_element(
        loop.errors.begin(), loop.errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(lowest->second);
  }
}

std::vector<RunMetrics> run_sweep_on_trace(
    const std::vector<ExperimentConfig>& configs, const Trace& trace,
    const SweepOptions& options) {
  std::vector<RunMetrics> results(configs.size());
  parallel_for_chunked(configs.size(), options, [&](std::size_t i) {
    results[i] = run_experiment(configs[i], trace);
  });
  return results;
}

}  // namespace dmsched
