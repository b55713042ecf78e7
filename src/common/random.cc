#include "common/random.h"

#include <bit>
#include <cassert>
#include <charconv>
#include <iterator>
#include <ostream>
#include <random>

namespace approxhadoop {

void
Mt19937_64::materialize()
{
    seedThrough(kStateWords - 1);
    if (p_ == 0) {
        p_ = kStateWords;  // nothing drawn: the untwisted seed state
    } else {
        twistFrom(p_);
    }
    lazy_ = false;
}

void
Mt19937_64::twistFrom(size_t from)
{
    // The std::mersenne_twister_engine recurrence, in its order: words
    // below kShift read the old word kShift ahead, the rest read the
    // already-twisted word kShift behind, and the last wraps to word 0.
    size_t k = from;
    for (; k < kShift; ++k) {
        x_[k] = twistWord(x_[k], x_[k + 1], x_[k + kShift]);
    }
    for (; k < kStateWords - 1; ++k) {
        x_[k] = twistWord(x_[k], x_[k + 1], x_[k - kShift]);
    }
    x_[k] = twistWord(x_[k], x_[0], x_[k - kShift]);
}

template <size_t kLanes>
void
Mt19937_64::seedLanes(Mt19937_64* const* group, size_t last)
{
    static_assert(kLanes <= 8, "the lane loop's unroll pragma covers 8");
    Mt19937_64* lanes[kLanes];
    uint64_t word[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
        lanes[l] = group[l];
        word[l] = lanes[l]->x_[0];
    }
    for (size_t i = 1; i <= last; ++i) {
        // Fully unrolled, so each lane stays a scalar register. Left to
        // itself, gcc's -O2 vectorizer emulates the 64-bit multiply on
        // SSE2 lanes, which is slower than seeding one engine at a time.
#pragma GCC unroll 8
        for (size_t l = 0; l < kLanes; ++l) {
            word[l] = seedWord(word[l], i);
            lanes[l]->x_[i] = word[l];
        }
    }
    for (size_t l = 0; l < kLanes; ++l) {
        lanes[l]->seeded_ = last + 1;
    }
}

void
Mt19937_64::seedInLockstep(Mt19937_64* const* engines, size_t count,
                           size_t last)
{
    assert(last < kStateWords);
    for (size_t i = 0; i < count; ++i) {
        assert(engines[i]->seeded_ == 1);
    }
    size_t done = 0;
    for (; done + kLockstepLanes <= count; done += kLockstepLanes) {
        seedLanes<kLockstepLanes>(engines + done, last);
    }
    size_t left = count - done;
    if (left == 0) {
        return;
    }
    // Pad the remainder by repeating its last engine: a repeated lane
    // writes the same words to the same engine. Half a group costs about
    // one lone engine's chain, so a short remainder takes the half group.
    Mt19937_64* group[kLockstepLanes];
    for (size_t l = 0; l < kLockstepLanes; ++l) {
        group[l] = engines[done + std::min(l, left - 1)];
    }
    if (left <= kLockstepLanes / 2) {
        seedLanes<kLockstepLanes / 2>(group, last);
    } else {
        seedLanes<kLockstepLanes>(group, last);
    }
}

size_t
Mt19937_64::writeText(char* out) const
{
    static_assert(kTextBytes == kStateWords * 21 + 20);
    Mt19937_64 full = *this;
    if (full.lazy_) {
        full.materialize();
    }
    // std::mt19937_64's text: every word in decimal followed by a space,
    // then the index.
    char* end = out + kTextBytes;
    char* p = out;
    for (uint64_t word : full.x_) {
        p = std::to_chars(p, end, word).ptr;
        *p++ = ' ';
    }
    p = std::to_chars(p, end, full.p_).ptr;
    return static_cast<size_t>(p - out);
}

std::ostream&
operator<<(std::ostream& os, const Mt19937_64& e)
{
    // Formatted into a buffer rather than word by word through the
    // stream, so printing costs one write.
    char text[Mt19937_64::kTextBytes];
    return os.write(text, static_cast<std::streamsize>(e.writeText(text)));
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) : engine_(splitmix64(seed)) {}

double
Rng::uniform()
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double
Rng::uniform(double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    assert(n > 0);
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
}

bool
Rng::bernoulli(double p)
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
Rng::normal(double mean, double stddev)
{
    return std::normal_distribution<double>(mean, stddev)(engine_);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double
Rng::exponential(double rate)
{
    return std::exponential_distribution<double>(rate)(engine_);
}

Rng
Rng::derive(uint64_t stream)
{
    return derived(engine_(), stream);
}

Rng
Rng::derived(uint64_t base, uint64_t stream)
{
    return Rng(splitmix64(base ^ splitmix64(stream)));
}

std::vector<uint64_t>
Rng::floyd(uint64_t n, uint64_t k, std::vector<uint64_t>* order)
{
    assert(k <= n);
    // Floyd's algorithm: k iterations, each adding exactly one new element.
    std::vector<uint64_t> chosen((n + 63) / 64);
    for (uint64_t j = n - k; j < n; ++j) {
        uint64_t t = uniformInt(j + 1);
        if ((chosen[t / 64] >> (t % 64)) & 1) {
            t = j;
        }
        chosen[t / 64] |= uint64_t{1} << (t % 64);
        if (order != nullptr) {
            order->push_back(t);
        }
    }
    return chosen;
}

std::vector<uint64_t>
Rng::sampleWithoutReplacement(uint64_t n, uint64_t k)
{
    std::vector<uint64_t> result;
    result.reserve(k);
    floyd(n, k, &result);
    return result;
}

std::vector<uint64_t>
Rng::sortedSampleWithoutReplacement(uint64_t n, uint64_t k)
{
    std::vector<uint64_t> chosen = floyd(n, k, nullptr);
    std::vector<uint64_t> result;
    result.reserve(k);
    for (size_t w = 0; w < chosen.size(); ++w) {
        for (uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1) {
            result.push_back(w * 64 + std::countr_zero(bits));
        }
    }
    return result;
}

}  // namespace approxhadoop
