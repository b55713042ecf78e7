#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace approxhadoop {
namespace {

TEST(ThreadPoolTest, ReturnsResultsForEverySubmittedTask)
{
    ThreadPool pool(4);
    std::vector<TaskHandle<int>> handles;
    for (int i = 0; i < 100; ++i) {
        handles.push_back(pool.submit([i] { return i * i; }));
    }
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(handles[static_cast<size_t>(i)].get(), i * i);
    }
}

TEST(ThreadPoolTest, ClampsZeroThreadsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 1u);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures)
{
    ThreadPool pool(2);
    TaskHandle<int> bad = pool.submit(
        []() -> int { throw std::runtime_error("mapper exploded"); });
    TaskHandle<int> good = pool.submit([] { return 1; });
    EXPECT_EQ(good.get(), 1);
    try {
        bad.get();
        FAIL() << "expected the task's exception to be rethrown";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "mapper exploded");
    }
}

TEST(ThreadPoolTest, SupportsMoveOnlyTasks)
{
    ThreadPool pool(2);
    auto data = std::make_unique<std::string>("payload");
    TaskHandle<std::string> f =
        pool.submit([data = std::move(data)]() mutable {
            return *data + "!";
        });
    EXPECT_EQ(f.get(), "payload!");
}

TEST(ThreadPoolTest, TasksRunConcurrentlyAcrossWorkers)
{
    // One task blocks until another task (necessarily on a different
    // worker) runs: passes only if the pool truly executes in parallel.
    // The destructor does no pool work, so only the two workers run them.
    std::promise<void> unblock;
    std::shared_future<void> gate = unblock.get_future().share();
    TaskHandle<int> waiter;
    TaskHandle<int> opener;
    {
        ThreadPool pool(2);
        waiter = pool.submit([gate] {
            gate.wait();
            return 1;
        });
        opener = pool.submit([&unblock] {
            unblock.set_value();
            return 2;
        });
    }
    EXPECT_EQ(waiter.get(), 1);
    EXPECT_EQ(opener.get(), 2);
}

TEST(ThreadPoolTest, StressManySmallTasksSumCorrectly)
{
    ThreadPool pool(8);
    std::atomic<int64_t> sum{0};
    std::vector<TaskHandle<void>> handles;
    constexpr int kTasks = 2000;
    handles.reserve(kTasks);
    for (int i = 1; i <= kTasks; ++i) {
        handles.push_back(pool.submit([i, &sum] { sum += i; }));
    }
    for (auto& f : handles) {
        f.get();
    }
    EXPECT_EQ(sum.load(), int64_t{kTasks} * (kTasks + 1) / 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks)
{
    std::atomic<int> executed{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            pool.submit([&executed] { ++executed; });
        }
        // Destructor must run everything that was accepted.
    }
    EXPECT_EQ(executed.load(), 64);
}

/**
 * Parks the pool's worker inside one entry until open(), so the rest of
 * the queue moves only when a caller's get() runs it. The park is
 * bounded, so a get() that waits instead of running the queue fails the
 * test instead of hanging it.
 */
class ParkedWorker
{
  public:
    explicit ParkedWorker(ThreadPool& pool)
    {
        handle_ = pool.submit([this, open = open_.get_future()] {
            started_.set_value();
            open.wait_for(std::chrono::seconds(60));
            return std::this_thread::get_id();
        });
        started_.get_future().wait();
    }

    void open() { open_.set_value(); }

    TaskHandle<std::thread::id>& handle() { return handle_; }

  private:
    std::promise<void> started_;
    std::promise<void> open_;
    TaskHandle<std::thread::id> handle_;
};

TEST(ThreadPoolTest, GetRunsAnUntakenEntryOnTheCallersThread)
{
    // get() runs its own entry only, not the older one queued ahead.
    ThreadPool pool(1);
    ParkedWorker parked(pool);
    std::atomic<int> older_runs{0};
    TaskHandle<void> older = pool.submit([&older_runs] { ++older_runs; });
    TaskHandle<std::thread::id> queued =
        pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_EQ(queued.get(), std::this_thread::get_id());
    EXPECT_FALSE(queued.valid());
    EXPECT_EQ(older_runs.load(), 0);
    parked.open();
    EXPECT_NE(parked.handle().get(), std::this_thread::get_id());
    older.get();
    EXPECT_EQ(older_runs.load(), 1);
}

TEST(ThreadPoolTest, GetRunsOtherEntriesWhileTheAwaitedOneIsHeld)
{
    // The worker holds the awaited entry. get() runs the two queued
    // entries on the caller's thread, then blocks on the empty queue
    // until the awaited entry is released.
    ThreadPool pool(1);
    ParkedWorker parked(pool);
    std::promise<void> both_ran;
    TaskHandle<std::thread::id> first =
        pool.submit([] { return std::this_thread::get_id(); });
    TaskHandle<std::thread::id> second = pool.submit([&both_ran] {
        both_ran.set_value();
        return std::this_thread::get_id();
    });
    std::thread releaser([&parked, ran = both_ran.get_future()] {
        ran.wait_for(std::chrono::seconds(60));
        parked.open();
    });
    std::thread::id worker = parked.handle().get();
    releaser.join();
    EXPECT_NE(worker, std::this_thread::get_id());
    EXPECT_EQ(first.get(), std::this_thread::get_id());
    EXPECT_EQ(second.get(), std::this_thread::get_id());
}

TEST(ThreadPoolTest, CancelledEntriesNeverRun)
{
    std::atomic<int> cancelled_runs{0};
    TaskHandle<void> opener;
    {
        ThreadPool pool(1);
        // Skipped by a helping caller...
        ParkedWorker parked(pool);
        TaskHandle<void> skipped_by_helper =
            pool.submit([&cancelled_runs] { ++cancelled_runs; });
        skipped_by_helper.cancel();
        EXPECT_FALSE(skipped_by_helper.valid());
        opener = pool.submit([&parked] { parked.open(); });
        parked.handle().get();
        // ...and by a worker, before the destructor joins it.
        ParkedWorker parked_again(pool);
        TaskHandle<void> skipped_by_worker =
            pool.submit([&cancelled_runs] { ++cancelled_runs; });
        skipped_by_worker.cancel();
        parked_again.open();
    }
    opener.get();
    EXPECT_EQ(cancelled_runs.load(), 0);
}

TEST(ThreadPoolTest, GetRethrowsTheExceptionOfAnEntryRunInline)
{
    ThreadPool pool(1);
    ParkedWorker parked(pool);
    std::thread::id ran_on;
    TaskHandle<int> bad = pool.submit([&ran_on]() -> int {
        ran_on = std::this_thread::get_id();
        throw std::runtime_error("inline mapper exploded");
    });
    try {
        bad.get();
        FAIL() << "expected the entry's exception to be rethrown";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "inline mapper exploded");
    }
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    parked.open();
}

TEST(ThreadPoolTest, DestructorDrainsTakenAndCancelledEntries)
{
    std::atomic<int> taken_runs{0};
    std::atomic<int> cancelled_runs{0};
    std::atomic<int> queued_runs{0};
    auto pool = std::make_unique<ThreadPool>(1);
    ParkedWorker parked(*pool);
    TaskHandle<void> cancelled =
        pool->submit([&cancelled_runs] { ++cancelled_runs; });
    TaskHandle<void> taken = pool->submit([&taken_runs] { ++taken_runs; });
    pool->submit([&queued_runs] { ++queued_runs; });
    cancelled.cancel();
    taken.get();
    std::thread releaser([&parked] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        parked.open();
    });
    // The destructor most likely finds all three entries still queued.
    pool.reset();
    releaser.join();
    EXPECT_EQ(taken_runs.load(), 1);
    EXPECT_EQ(cancelled_runs.load(), 0);
    EXPECT_EQ(queued_runs.load(), 1);
}

TEST(ThreadPoolTest, StaleEntryCannotClaimALaterSubmission)
{
    // One task's work submitted three times, as a map task whose output
    // was lost is: the first submission is read inline, the second
    // cancelled. Their entries stay queued ahead of the third, and the
    // worker that skips them must still run the third exactly once.
    std::atomic<int> runs[3] = {0, 0, 0};
    auto work = [&runs](int submission) {
        return [&runs, submission] {
            ++runs[submission];
            return submission;
        };
    };
    TaskHandle<int> latest;
    {
        ThreadPool pool(1);
        ParkedWorker parked(pool);
        TaskHandle<int> read_inline = pool.submit(work(0));
        EXPECT_EQ(read_inline.get(), 0);
        TaskHandle<int> cancelled = pool.submit(work(1));
        cancelled.cancel();
        latest = pool.submit(work(2));
        parked.open();
    }
    EXPECT_EQ(latest.get(), 2);
    EXPECT_EQ(runs[0].load(), 1);
    EXPECT_EQ(runs[1].load(), 0);
    EXPECT_EQ(runs[2].load(), 1);
}

}  // namespace
}  // namespace approxhadoop
