#ifndef APPROXHADOOP_COMMON_THREAD_POOL_H_
#define APPROXHADOOP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace approxhadoop {

class ThreadPool;

namespace detail {

/**
 * One submission's shared state: its claim, its work and its result, in
 * the one allocation submit() makes. The queue and the TaskHandle share
 * it. Exactly one thread wins claim() and runs the work, unless
 * cancel() wins first; the claim belongs to this submission only, so an
 * entry left queued after its handle was read or cancelled can never
 * take the claim of a later submission.
 */
class PoolEntry
{
  public:
    virtual ~PoolEntry() = default;

    /** Takes the entry for the calling thread, which must then run().
     *  False once another thread took it or it was cancelled. */
    bool
    claim()
    {
        uint8_t queued = kQueued;
        return state_.compare_exchange_strong(queued, kTaken,
                                              std::memory_order_acq_rel);
    }

    /** Marks a queued entry so no thread will run it; no effect once
     *  some thread took it. */
    void
    cancel()
    {
        uint8_t queued = kQueued;
        state_.compare_exchange_strong(queued, kCancelled,
                                       std::memory_order_acq_rel);
    }

    /** Runs the work (after a successful claim) and publishes the
     *  result; never throws, the work's exception is stored. */
    void
    run()
    {
        execute();
        ready_.store(true, std::memory_order_release);
    }

    bool ready() const { return ready_.load(std::memory_order_acquire); }

  protected:
    virtual void execute() noexcept = 0;

  private:
    static constexpr uint8_t kQueued = 0;
    static constexpr uint8_t kTaken = 1;
    static constexpr uint8_t kCancelled = 2;

    std::atomic<uint8_t> state_{kQueued};
    std::atomic<bool> ready_{false};
};

/** The result half of an entry: a value (none for void) or an error. */
template <typename R>
class PoolResult : public PoolEntry
{
  public:
    /** The result; rethrows the work's exception. Call once, after
     *  ready(). */
    R
    take()
    {
        if (error_) {
            std::rethrow_exception(error_);
        }
        if constexpr (!std::is_void_v<R>) {
            return std::move(*value_);
        }
    }

  protected:
    struct Nothing
    {
    };
    std::optional<std::conditional_t<std::is_void_v<R>, Nothing, R>> value_;
    std::exception_ptr error_;
};

template <typename R, typename F>
class PoolTask final : public PoolResult<R>
{
  public:
    template <typename G>
    explicit PoolTask(G&& fn) : fn_(std::forward<G>(fn))
    {
    }

  private:
    void
    execute() noexcept override
    {
        try {
            if constexpr (std::is_void_v<R>) {
                fn_();
            } else {
                this->value_.emplace(fn_());
            }
        } catch (...) {
            this->error_ = std::current_exception();
        }
    }

    F fn_;
};

}  // namespace detail

/**
 * The caller's side of one submission, returned by ThreadPool::submit().
 * Move-only. get() and cancel() each end a valid handle and leave it
 * invalid; a handle dropped while valid leaves its work to run.
 */
template <typename R>
class TaskHandle
{
  public:
    TaskHandle() = default;
    TaskHandle(TaskHandle&&) noexcept = default;
    TaskHandle& operator=(TaskHandle&&) noexcept = default;
    TaskHandle(const TaskHandle&) = delete;
    TaskHandle& operator=(const TaskHandle&) = delete;

    bool valid() const { return entry_ != nullptr; }

    /**
     * Returns the result, rethrowing the work's exception on the
     * caller's thread. Work no thread has taken yet runs right here.
     * Work another thread is running is waited for by running the
     * pool's oldest queued entries on the caller's thread, readiness
     * checked between them, so the caller overshoots by at most one
     * entry; it blocks only while the queue is empty. A handle may be
     * read after its pool is destroyed: the destructor ran the work.
     * @pre valid()
     */
    R get();

    /**
     * Gives the submission up: if no thread has taken it yet, whichever
     * thread reaches its queue entry skips it. Work already running
     * finishes and its result is dropped. @pre valid()
     */
    void
    cancel()
    {
        entry_->cancel();
        entry_.reset();
    }

  private:
    friend class ThreadPool;

    TaskHandle(ThreadPool* pool, std::shared_ptr<detail::PoolResult<R>> entry)
        : pool_(pool), entry_(std::move(entry))
    {
    }

    ThreadPool* pool_ = nullptr;
    std::shared_ptr<detail::PoolResult<R>> entry_;
};

/**
 * Fixed-size worker pool executing submitted entries FIFO.
 *
 * submit() returns a TaskHandle. Its get() returns the entry's result
 * and rethrows the entry's exception on the caller's thread, so error
 * handling looks exactly like a synchronous call. A caller that would
 * wait in get() does pool work instead (see TaskHandle::get), so a pool
 * of N workers plus a waiting caller computes on N + 1 threads.
 *
 * The destructor runs every entry that no thread has taken or cancelled,
 * then joins the workers, so entries may safely reference state that
 * outlives the pool object itself — e.g. the Job that owns it.
 *
 * The pool makes no fairness or ordering promise beyond FIFO dequeue;
 * callers that need deterministic *results* must make each entry a pure
 * function of its inputs and impose ordering when reading the handles
 * (see mr::Job, which merges map output in simulated-completion order).
 */
class ThreadPool
{
  public:
    /** Spawns @p num_threads workers (clamped to at least one). */
    explicit ThreadPool(unsigned num_threads);

    /** Runs every entry no thread has taken or cancelled, then joins
     *  the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    unsigned numThreads() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Enqueues @p fn for execution and returns its handle.
     * @p fn may be move-only (it is invoked at most once).
     */
    template <typename F>
    TaskHandle<std::invoke_result_t<F>>
    submit(F&& fn)
    {
        using R = std::invoke_result_t<F>;
        std::shared_ptr<detail::PoolResult<R>> entry =
            std::make_shared<detail::PoolTask<R, std::decay_t<F>>>(
                std::forward<F>(fn));
        {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.push_back(entry);
            if (helpers_waiting_ > 0) {
                done_cv_.notify_all();
            }
        }
        cv_.notify_one();
        return TaskHandle<R>(this, std::move(entry));
    }

  private:
    template <typename R>
    friend class TaskHandle;

    void workerLoop();
    /** Pops the oldest entry and runs it unless it was taken or
     *  cancelled; called and returns with @p lock held. */
    void runFront(std::unique_lock<std::mutex>& lock);
    /** Runs queued entries until @p awaited is ready (see get()). */
    void helpUntilReady(const detail::PoolEntry& awaited);

    std::vector<std::thread> workers_;
    std::deque<std::shared_ptr<detail::PoolEntry>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;       ///< signals workers: work or stop
    std::condition_variable done_cv_;  ///< signals helpers: entry done or work
    unsigned helpers_waiting_ = 0;
    bool stop_ = false;
};

template <typename R>
R
TaskHandle<R>::get()
{
    std::shared_ptr<detail::PoolResult<R>> entry = std::move(entry_);
    if (!entry->ready()) {
        if (entry->claim()) {
            entry->run();
        } else {
            pool_->helpUntilReady(*entry);
        }
    }
    return entry->take();
}

}  // namespace approxhadoop

#endif  // APPROXHADOOP_COMMON_THREAD_POOL_H_
