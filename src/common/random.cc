#include "common/random.h"

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

std::ostream&
operator<<(std::ostream& os, const Mt19937_64& e)
{
    Mt19937_64 full = e;
    if (full.lazy_) {
        full.materialize();
    }
    // std::mt19937_64's text: every word in decimal followed by a space,
    // then the index. Formatted here rather than word by word through the
    // stream, so a journal epoch's rng digest costs one write.
    char text[Mt19937_64::kStateWords * 21 + 20];
    char* out = text;
    for (uint64_t word : full.x_) {
        out = std::to_chars(out, std::end(text), word).ptr;
        *out++ = ' ';
    }
    out = std::to_chars(out, std::end(text), full.p_).ptr;
    return os.write(text, out - text);
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
    uint64_t base = engine_();
    return Rng(splitmix64(base ^ splitmix64(stream)));
}

std::vector<uint64_t>
Rng::sampleWithoutReplacement(uint64_t n, uint64_t k)
{
    assert(k <= n);
    // Floyd's algorithm: k iterations, each adding exactly one new element.
    std::vector<bool> chosen(n);
    std::vector<uint64_t> result;
    result.reserve(k);
    for (uint64_t j = n - k; j < n; ++j) {
        uint64_t t = uniformInt(j + 1);
        if (chosen[t]) {
            t = j;
        }
        chosen[t] = true;
        result.push_back(t);
    }
    return result;
}

}  // namespace approxhadoop
