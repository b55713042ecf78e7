#include "common/logging.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace approxhadoop {
namespace {

TEST(LoggerTest, LevelFiltering)
{
    Logger& logger = Logger::instance();
    LogLevel original = logger.level();
    logger.setLevel(LogLevel::kError);
    EXPECT_EQ(logger.level(), LogLevel::kError);
    // Suppressed and emitted paths must both be safe to call.
    logger.log(LogLevel::kDebug, "test", "suppressed");
    logger.log(LogLevel::kError, "test", "emitted to stderr");
    logger.setLevel(original);
}

TEST(LoggerTest, StreamHelperBuildsMessages)
{
    Logger& logger = Logger::instance();
    LogLevel original = logger.level();
    logger.setLevel(LogLevel::kError);  // keep test output clean
    {
        AH_DEBUG("test") << "value=" << 42 << " pi=" << 3.14;
    }
    logger.setLevel(original);
}

TEST(LoggerTest, SingletonIdentity)
{
    EXPECT_EQ(&Logger::instance(), &Logger::instance());
}

// Regression: the logger used to document itself as "intentionally not
// thread-safe" while map-side UDF threads logged through it. Lines must
// now come out whole (one fprintf under a mutex) and level flips must be
// safe mid-stream. TSan runs this suite in CI, so an unguarded write to
// the level or interleaved stderr writes fail loudly.
TEST(LoggerConcurrency, ConcurrentLinesStayIntact)
{
    constexpr int kThreads = 8;
    constexpr int kLinesPerThread = 200;
    Logger& logger = Logger::instance();
    LogLevel original = logger.level();
    logger.setLevel(LogLevel::kError);

    testing::internal::CaptureStderr();
    {
        ThreadPool pool(kThreads);
        std::vector<TaskHandle<void>> done;
        for (int t = 0; t < kThreads; ++t) {
            done.push_back(pool.submit([t, &logger] {
                for (int i = 0; i < kLinesPerThread; ++i) {
                    logger.log(LogLevel::kError, "race",
                               "thread-" + std::to_string(t) + "-line-" +
                                   std::to_string(i) + "-end");
                    // Exercise the level path under contention too.
                    (void)logger.level();
                    if (i % 50 == 0) {
                        logger.setLevel(LogLevel::kError);
                    }
                }
            }));
        }
        for (auto& f : done) {
            f.get();
        }
    }
    std::string captured = testing::internal::GetCapturedStderr();
    logger.setLevel(original);

    // Every line must be exactly "[ERROR] race: thread-T-line-I-end" —
    // a torn line would break the prefix/suffix pairing.
    std::istringstream lines(captured);
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        if (line.empty()) {
            continue;
        }
        EXPECT_EQ(line.rfind("[ERROR] race: thread-", 0), 0u) << line;
        EXPECT_EQ(line.substr(line.size() - 4), "-end") << line;
        ++count;
    }
    EXPECT_EQ(count, kThreads * kLinesPerThread);
}

}  // namespace
}  // namespace approxhadoop
