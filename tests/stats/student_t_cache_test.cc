#include "stats/student_t.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace approxhadoop::stats {
namespace {

TEST(StudentTCriticalCachedTest, MatchesUncached)
{
    for (double confidence : {0.90, 0.95, 0.99}) {
        for (double df : {1.0, 2.0, 9.0, 63.0, 743.0}) {
            EXPECT_EQ(std::bit_cast<uint64_t>(
                          studentTCriticalCached(confidence, df)),
                      std::bit_cast<uint64_t>(studentTCritical(confidence, df)))
                << "confidence=" << confidence << " df=" << df;
        }
    }
}

TEST(StudentTCriticalCachedTest, RepeatedLookupsAreStable)
{
    double first = studentTCriticalCached(0.95, 17.0);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_DOUBLE_EQ(studentTCriticalCached(0.95, 17.0), first);
    }
}

TEST(StudentTCriticalCachedTest, SubUnitDfIsInfinite)
{
    EXPECT_TRUE(std::isinf(studentTCriticalCached(0.95, 0.0)));
    EXPECT_TRUE(std::isinf(studentTCriticalCached(0.95, 0.5)));
}

// Regression: the memoization map behind studentTCriticalCached() used
// to be an unsynchronized static, so two threads calling it raced.
// Hammer the same and disjoint keys from a pool; under TSan (CI runs
// this suite with -fsanitize=thread) any reintroduced unguarded access
// is a hard failure, and every thread must observe the exact
// single-threaded values.
TEST(StudentTCacheConcurrency, PoolHammerMatchesSerialValues)
{
    constexpr int kThreads = 8;
    constexpr int kItersPerThread = 400;
    double expect_shared = studentTCritical(0.95, 17.0);

    ThreadPool pool(kThreads);
    std::vector<TaskHandle<bool>> done;
    for (int t = 0; t < kThreads; ++t) {
        done.push_back(pool.submit([t, expect_shared] {
            for (int i = 0; i < kItersPerThread; ++i) {
                // Shared hot key: every thread reads/inserts the same
                // entry.
                if (studentTCriticalCached(0.95, 17.0) != expect_shared) {
                    return false;
                }
                // Per-thread cold keys: concurrent inserts into fresh
                // buckets.
                double df = 2.0 + t * kItersPerThread + i;
                double got = studentTCriticalCached(0.95, df);
                if (got != studentTCritical(0.95, df)) {
                    return false;
                }
            }
            return true;
        }));
    }
    for (auto& f : done) {
        EXPECT_TRUE(f.get());
    }
}

TEST(IncompleteBetaTest, ExtremeParameters)
{
    // Very asymmetric (a, b): still in [0, 1] and monotone in x.
    double prev = 0.0;
    for (double x = 0.05; x < 1.0; x += 0.05) {
        double v = incompleteBeta(50.0, 0.5, x);
        EXPECT_GE(v, prev - 1e-12);
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
        prev = v;
    }
}

TEST(IncompleteBetaTest, ComplementIdentity)
{
    // I_x(a, b) = 1 - I_{1-x}(b, a).
    for (double x : {0.1, 0.37, 0.62, 0.9}) {
        EXPECT_NEAR(incompleteBeta(2.5, 4.0, x),
                    1.0 - incompleteBeta(4.0, 2.5, 1.0 - x), 1e-10);
    }
}

TEST(StudentTCdfTest, LargeDfApproachesNormal)
{
    for (double z : {-2.0, -0.5, 0.7, 1.96}) {
        EXPECT_NEAR(studentTCdf(z, 1e7), normalCdf(z), 1e-4) << z;
    }
}

}  // namespace
}  // namespace approxhadoop::stats
