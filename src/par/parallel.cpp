#include "par/parallel.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

namespace psdp::par {

namespace {

int default_threads() {
  // The `threads` tunable wins when set (> 0); otherwise the hardware
  // width. Resolved lazily on the first num_threads() call rather than at
  // static-init time, so PSDP_TUNE_THREADS and CLI/manifest overrides
  // applied before the first parallel loop take effect.
  const int tuned = static_cast<int>(util::tunable_threads());
  if (tuned > 0) return tuned;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

// First use may come from several OS threads at once (serve lanes, plan
// builders), so both lazily resolved globals are published atomically:
// g_threads by compare-exchange from 0 (= unresolved), the pool under
// g_pool_mutex with g_pool_ptr as the lock-free fast path.
std::atomic<int> g_threads{0};
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mutex
std::atomic<ThreadPool*> g_pool_ptr{nullptr};

}  // namespace

int num_threads() {
  const int threads = g_threads.load(std::memory_order_acquire);
  if (threads != 0) return threads;
  int expected = 0;
  const int resolved = default_threads();
  // A racing resolver may win; either way every caller sees one value.
  return g_threads.compare_exchange_strong(expected, resolved,
                                           std::memory_order_acq_rel)
             ? resolved
             : expected;
}

void set_num_threads(int threads) {
  PSDP_CHECK(threads >= 1, "thread count must be at least 1");
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_threads.store(threads, std::memory_order_release);
  g_pool_ptr.store(nullptr, std::memory_order_release);
  g_pool.reset();  // lazily recreated with the new size
}

ThreadPool& global_pool() {
  if (ThreadPool* pool = g_pool_ptr.load(std::memory_order_acquire)) {
    return *pool;
  }
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(num_threads() - 1);
    g_pool_ptr.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

}  // namespace psdp::par
