#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

namespace sq::common {

int resolve_threads(int requested) {
  if (requested < 0) return 1;
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {
thread_local bool t_on_pool_worker = false;
}  // namespace

bool on_pool_worker() { return t_on_pool_worker; }

ThreadPool::ThreadPool(int n_threads) {
  const int n = std::max(1, n_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->size() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Static chunking bounds per-task overhead while keeping enough tasks in
  // flight that uneven chunk costs still balance across workers.
  const std::size_t n_chunks = std::min(
      n, static_cast<std::size_t>(pool->size()) * 8);
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(n_chunks);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    futs.push_back(pool->submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  // Wait on every chunk; surface the lowest-indexed failure.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sq::common
