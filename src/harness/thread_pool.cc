#include "harness/thread_pool.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/check.h"

namespace catdb::harness {

namespace {
// Identifies the pool (and worker slot) the current thread belongs to, so
// Submit can route nested submissions to the submitting worker's own deque.
thread_local ThreadPool* tls_pool = nullptr;
thread_local unsigned tls_worker = 0;
}  // namespace

unsigned ThreadPool::DefaultJobs() {
  if (const char* env = std::getenv("CATDB_JOBS")) {
    // A malformed or out-of-range value (strtol saturates at LONG_MAX, and
    // a value past UINT_MAX would wrap in the cast) falls back to the host
    // count instead of aborting or silently running narrower.
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && v > 0 &&
        static_cast<unsigned long>(v) <=
            std::numeric_limits<unsigned>::max()) {
      return static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned num_threads)
    : workers_(num_threads == 0 ? DefaultJobs() : num_threads) {
  threads_.reserve(workers_.size());
  for (unsigned i = 0; i < workers_.size(); ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Drain outstanding work first so tasks never run against a destroyed
    // pool; exceptions not collected via Wait() are dropped here.
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  CATDB_CHECK(fn != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CATDB_CHECK(!stop_);
    ++pending_;
    if (tls_pool == this) {
      workers_[tls_worker].deque.push_back(std::move(fn));
    } else {
      injector_.push_back(std::move(fn));
    }
  }
  work_cv_.notify_one();
}

bool ThreadPool::TakeLocked(unsigned self, std::function<void()>* out) {
  Worker& me = workers_[self];
  if (!me.deque.empty()) {
    *out = std::move(me.deque.back());
    me.deque.pop_back();
    return true;
  }
  if (!injector_.empty()) {
    *out = std::move(injector_.front());
    injector_.pop_front();
    return true;
  }
  for (unsigned k = 1; k < workers_.size(); ++k) {
    Worker& victim = workers_[(self + k) % workers_.size()];
    if (!victim.deque.empty()) {
      *out = std::move(victim.deque.front());
      victim.deque.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned index) {
  tls_pool = this;
  tls_worker = index;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::function<void()> task;
    if (TakeLocked(index, &task)) {
      lock.unlock();
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> elock(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      task = nullptr;  // release captures before touching pending_
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_all();
      continue;
    }
    if (stop_) return;
    work_cv_.wait(lock);
  }
}

void ThreadPool::Wait() {
  CATDB_CHECK(tls_pool != this);  // deadlock guard: not from a pool worker
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> elock(error_mu_);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace catdb::harness
