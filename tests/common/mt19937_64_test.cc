/**
 * @file
 * Mt19937_64 against std::mt19937_64: raw outputs and operator<< text at
 * every boundary of the lazy first block, and every Rng draw against a
 * reference Rng built on std::mt19937_64. Journal epochs hash the
 * operator<< text into rng_digest, so equal text is what lets a journal
 * written by a std::mt19937_64 build resume here.
 */
#include "common/random.h"

#include <algorithm>
#include <iomanip>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace approxhadoop {
namespace {

template <typename Engine>
std::string
text(const Engine& e)
{
    std::ostringstream os;
    os << e;
    return os.str();
}

/** Seeds 0, all-ones, and 998 splitmix64-scattered values. */
std::vector<uint64_t>
testSeeds()
{
    std::vector<uint64_t> seeds = {0, ~uint64_t{0}};
    for (uint64_t i = 0; seeds.size() < 1000; ++i) {
        seeds.push_back(splitmix64(i));
    }
    return seeds;
}

TEST(Mt19937_64Test, RawOutputAndTextMatchStdAcrossTheLazyBlock)
{
    // Each boundary of the lazy first block: fresh (untwisted text, index
    // 312), one draw, the last lazily twisted word (155), the draws on
    // either side of materialization (156, 157), the end of the first
    // block (311, 312, 313), and well into later blocks.
    const std::set<size_t> checkpoints = {0,   1,   155, 156, 157,
                                          311, 312, 313, 1001};
    for (uint64_t seed : testSeeds()) {
        Mt19937_64 lazy(seed);
        std::mt19937_64 ref(seed);
        for (size_t drawn = 0;; ++drawn) {
            if (checkpoints.count(drawn) != 0) {
                ASSERT_EQ(text(lazy), text(ref))
                    << "seed " << seed << " after " << drawn << " draws";
            }
            if (drawn == *checkpoints.rbegin()) {
                break;
            }
            ASSERT_EQ(lazy(), ref())
                << "seed " << seed << " draw " << drawn;
        }
    }
}

TEST(Mt19937_64Test, PrintingIgnoresStreamFormatAndLeavesTheSequence)
{
    // std::mt19937_64 prints decimal whatever the stream's flags, and
    // restores them; printing must not advance the engine either.
    Mt19937_64 printed(42);
    Mt19937_64 quiet(42);
    std::mt19937_64 ref(42);
    for (int i = 0; i < 400; ++i) {
        std::ostringstream got;
        std::ostringstream want;
        got << std::hex << std::showbase << std::setfill('*') << printed
            << ' ' << 255;
        want << std::hex << std::showbase << std::setfill('*') << ref
             << ' ' << 255;
        ASSERT_EQ(got.str(), want.str()) << "after " << i << " draws";
        ASSERT_EQ(got.fill(), '*');
        ASSERT_EQ(printed(), quiet()) << "draw " << i;
        ref();
    }
}

TEST(Mt19937_64Test, CopiesContinueIdentically)
{
    // Copies carry only the computed words, so copy at each stage of the
    // lazy block: fresh, mid-block, and materialized.
    for (int before : {0, 20, 200}) {
        Mt19937_64 a(7);
        for (int i = 0; i < before; ++i) {
            a();
        }
        Mt19937_64 b = a;
        Mt19937_64 c(99);
        c = a;
        for (int i = 0; i < 500; ++i) {
            uint64_t want = a();
            ASSERT_EQ(b(), want) << before << " drawn, draw " << i;
            ASSERT_EQ(c(), want) << before << " drawn, draw " << i;
        }
    }
}

/** The Rng draws as written against std::mt19937_64 (the reference). */
class ReferenceRng
{
  public:
    explicit ReferenceRng(uint64_t seed) : engine_(splitmix64(seed)) {}

    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }
    uint64_t
    uniformInt(uint64_t n)
    {
        return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
    }
    bool
    bernoulli(double p)
    {
        if (p <= 0.0) {
            return false;
        }
        if (p >= 1.0) {
            return true;
        }
        return uniform() < p;
    }
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }
    double
    lognormal(double mu, double sigma)
    {
        return std::lognormal_distribution<double>(mu, sigma)(engine_);
    }
    double
    exponential(double rate)
    {
        return std::exponential_distribution<double>(rate)(engine_);
    }
    ReferenceRng
    derive(uint64_t stream)
    {
        uint64_t base = engine_();
        return ReferenceRng(splitmix64(base ^ splitmix64(stream)));
    }
    std::vector<uint64_t>
    sampleWithoutReplacement(uint64_t n, uint64_t k)
    {
        std::unordered_set<uint64_t> chosen;
        std::vector<uint64_t> result;
        for (uint64_t j = n - k; j < n; ++j) {
            uint64_t t = uniformInt(j + 1);
            if (chosen.count(t)) {
                t = j;
            }
            chosen.insert(t);
            result.push_back(t);
        }
        return result;
    }
    const std::mt19937_64& engine() const { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/**
 * Runs @p draws of every kind on both generators, comparing each value
 * bit for bit, and the engine text before the first and after the last.
 * Real draws are compared with EXPECT_EQ: equal, not merely close.
 */
template <typename Check>
void
drawBoth(Rng& rng, ReferenceRng& ref, int draws, Check check)
{
    check(text(rng.engine()), text(ref.engine()));
    for (int i = 0; i < draws; ++i) {
        switch (i % 9) {
        case 0:
            check(rng.uniform(), ref.uniform());
            break;
        case 1:
            check(rng.uniform(-3.0, 5.0), ref.uniform(-3.0, 5.0));
            break;
        case 2:
            check(rng.uniformInt(1 + i * 977), ref.uniformInt(1 + i * 977));
            break;
        case 3:
            check(rng.bernoulli(0.3), ref.bernoulli(0.3));
            break;
        case 4:
            check(rng.exponential(2.5), ref.exponential(2.5));
            break;
        case 5:
            check(rng.normal(1.0, 4.0), ref.normal(1.0, 4.0));
            break;
        case 6:
            check(rng.lognormal(0.5, 1.2), ref.lognormal(0.5, 1.2));
            break;
        case 7:
            check(rng.sampleWithoutReplacement(200 + i, 1 + i % 40),
                  ref.sampleWithoutReplacement(200 + i, 1 + i % 40));
            break;
        case 8: {
            Rng child = rng.derive(i);
            ReferenceRng ref_child = ref.derive(i);
            check(child.uniformInt(1u << 30), ref_child.uniformInt(1u << 30));
            if (i < 30) {
                check(text(child.engine()), text(ref_child.engine()));
            }
            break;
        }
        }
    }
    check(text(rng.engine()), text(ref.engine()));
}

TEST(Mt19937_64Test, EveryRngDrawMatchesTheStdReference)
{
    // Draw counts straddle the lazy block (a normal deviate may take two
    // engine outputs, a derive() one, a sample many).
    for (int draws : {0, 1, 20, 60, 150, 400}) {
        for (uint64_t seed = 0; seed < 100; ++seed) {
            Rng rng(seed);
            ReferenceRng ref(seed);
            drawBoth(rng, ref, draws, [&](const auto& got, const auto& want) {
                ASSERT_EQ(got, want) << "seed " << seed << ", " << draws
                                     << " draws";
            });
        }
    }
}

/** Each engine's raw outputs, and its text at each checkpoint of the lazy
 *  block, against std::mt19937_64 seeded alike. */
void
expectMatchesStd(Mt19937_64& lazy, uint64_t seed, const std::string& what)
{
    const std::set<size_t> checkpoints = {0,   1,   155, 156, 157,
                                          311, 312, 313, 1001};
    std::mt19937_64 ref(seed);
    for (size_t drawn = 0;; ++drawn) {
        if (checkpoints.count(drawn) != 0) {
            ASSERT_EQ(text(lazy), text(ref)) << what << " after " << drawn
                                             << " draws";
        }
        if (drawn == *checkpoints.rbegin()) {
            break;
        }
        ASSERT_EQ(lazy(), ref()) << what << " draw " << drawn;
    }
}

TEST(Mt19937_64Test, LockstepSeedingMatchesStd)
{
    // Group sizes 0-19 give full lock-step groups of 8 and every
    // remainder (half-group and full-group padding). The priming words
    // are the first draw's, a few draws' worth, and the whole seeding
    // recurrence. The combinations repeat until every test seed has
    // seeded one engine.
    const std::vector<uint64_t> seeds = testSeeds();
    size_t next = 0;
    while (next < seeds.size()) {
        for (size_t last : {156, 160, 311}) {
            for (size_t count = 0; count < 20; ++count) {
                size_t n = std::min(count, seeds.size() - next);
                std::vector<Mt19937_64> engines;
                std::vector<Mt19937_64*> group;
                engines.reserve(n);
                for (size_t i = 0; i < n; ++i) {
                    engines.emplace_back(seeds[next + i]);
                    group.push_back(&engines.back());
                }
                Mt19937_64::seedInLockstep(group.data(), n, last);
                for (size_t i = 0; i < n; ++i) {
                    expectMatchesStd(engines[i], seeds[next + i],
                                     "engine " + std::to_string(i) + " of " +
                                         std::to_string(n) + " through " +
                                         std::to_string(last));
                }
                next += n;
            }
        }
    }

    // Rngs primed in lock step draw what the std reference draws.
    for (size_t last : {156, 160, 311}) {
        for (int draws : {1, 20, 400}) {
            std::vector<Rng> rngs;
            std::vector<Mt19937_64*> group;
            rngs.reserve(19);
            for (uint64_t seed = 0; seed < 19; ++seed) {
                rngs.emplace_back(seed);
                group.push_back(&rngs.back().engine());
            }
            Mt19937_64::seedInLockstep(group.data(), group.size(), last);
            for (uint64_t seed = 0; seed < 19; ++seed) {
                ReferenceRng ref(seed);
                drawBoth(rngs[seed], ref, draws,
                         [&](const auto& got, const auto& want) {
                             ASSERT_EQ(got, want)
                                 << "seed " << seed << " through " << last
                                 << ", " << draws << " draws";
                         });
            }
        }
    }
}

TEST(Mt19937_64Test, SampleWithoutReplacementKeepsOrderAndDistinctness)
{
    for (uint64_t seed = 0; seed < 100; ++seed) {
        Rng rng(seed);
        ReferenceRng ref(seed);
        for (uint64_t n : {1u, 2u, 10u, 1000u}) {
            for (uint64_t k : {uint64_t{0}, uint64_t{1}, n / 2, n}) {
                std::vector<uint64_t> got = rng.sampleWithoutReplacement(n, k);
                ASSERT_EQ(got, ref.sampleWithoutReplacement(n, k));
                EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()).size(),
                          k);
            }
        }
    }
}

TEST(Mt19937_64Test, SortedSampleIsTheSampleInAscendingOrder)
{
    // Same draws as the draw-order sample (the engine ends in the same
    // state), read off the bitmap in order; n straddles word boundaries.
    for (uint64_t seed = 0; seed < 100; ++seed) {
        Rng rng(seed);
        ReferenceRng ref(seed);
        for (uint64_t n : {1u, 63u, 64u, 65u, 1000u}) {
            for (uint64_t k : {uint64_t{0}, uint64_t{1}, n / 2, n}) {
                std::vector<uint64_t> want =
                    ref.sampleWithoutReplacement(n, k);
                std::sort(want.begin(), want.end());
                ASSERT_EQ(rng.sortedSampleWithoutReplacement(n, k), want);
            }
        }
        ASSERT_EQ(text(rng.engine()), text(ref.engine())) << "seed " << seed;
    }
}

}  // namespace
}  // namespace approxhadoop
