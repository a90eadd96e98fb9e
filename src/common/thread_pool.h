// Fixed-size worker pool for the offline planner's candidate fan-out.
//
// Deliberately work-stealing-free: one shared FIFO queue behind a mutex is
// plenty for the planner's coarse tasks (each task builds a PlanContext
// and runs a heuristic or an ILP solve — milliseconds to seconds), and it
// keeps the scheduling order easy to reason about.  Determinism of the
// *results* never depends on scheduling: parallel_for writes each task's
// output into its own index slot and the callers reduce in index order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sq::common {

/// Resolve a user-facing thread-count knob: 0 = hardware concurrency,
/// a negative count = 1, otherwise the requested value.
int resolve_threads(int requested);

/// True when the calling thread is a ThreadPool worker (any pool).  Nested
/// parallel constructs use this to degrade to inline execution instead of
/// blocking on a pool whose workers may all be waiting on them.
bool on_pool_worker();

/// A plain fixed-size thread pool.  Tasks run in FIFO submission order;
/// exceptions thrown by a task are captured in its future.
class ThreadPool {
 public:
  explicit ThreadPool(int n_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue `fn` and return a future for its result.  The future rethrows
  /// anything `fn` throws.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      const std::lock_guard<std::mutex> lk(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Run `fn(i)` for every i in [0, n).  With a null `pool` (or n <= 1) the
/// calls run inline on the caller's thread — the legacy sequential path —
/// so sequential and parallel execution share one code path.  Blocks until
/// every index finished; if any call threw, rethrows the exception of the
/// lowest-indexed failing chunk (deterministic error reporting).
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace sq::common
