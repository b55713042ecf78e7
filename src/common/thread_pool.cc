#include "common/thread_pool.h"

#include <algorithm>

namespace approxhadoop {

ThreadPool::ThreadPool(unsigned num_threads)
{
    num_threads = std::max(1u, num_threads);
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) {
        w.join();
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            return;  // stop_ set and queue drained
        }
        runFront(lock);
    }
}

void
ThreadPool::runFront(std::unique_lock<std::mutex>& lock)
{
    std::shared_ptr<detail::PoolEntry> entry = std::move(queue_.front());
    queue_.pop_front();
    if (!entry->claim()) {
        return;  // get() took it, or it was cancelled
    }
    lock.unlock();
    entry->run();
    entry.reset();
    lock.lock();
    if (helpers_waiting_ > 0) {
        done_cv_.notify_all();
    }
}

void
ThreadPool::helpUntilReady(const detail::PoolEntry& awaited)
{
    // Another thread took the awaited entry. Until it is ready, run the
    // oldest queued entries here: the caller then computes instead of
    // idling, and overshoots the awaited result by at most one entry.
    // The entry's runner sets ready before taking mu_ to report it, so
    // a check made under mu_ cannot miss the wakeup.
    std::unique_lock<std::mutex> lock(mu_);
    while (!awaited.ready()) {
        if (queue_.empty()) {
            ++helpers_waiting_;
            done_cv_.wait(lock, [this, &awaited] {
                return awaited.ready() || !queue_.empty();
            });
            --helpers_waiting_;
        } else {
            runFront(lock);
        }
    }
}

}  // namespace approxhadoop
