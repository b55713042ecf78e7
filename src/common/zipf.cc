#include "common/zipf.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace approxhadoop {

ZipfDistribution::ZipfDistribution(uint64_t num_elements, double exponent)
    : num_elements_(num_elements), exponent_(exponent)
{
    assert(num_elements >= 1);
    assert(exponent > 0.0);
    h_x1_ = h(1.5) - 1.0;
    h_num_elements_ = h(static_cast<double>(num_elements) + 0.5);
    s_ = 2.0 - hInverse(h(2.5) - std::pow(2.0, -exponent));
}

double
ZipfDistribution::h(double x) const
{
    if (exponent_ == 1.0) {
        return std::log(x);
    }
    return std::pow(x, 1.0 - exponent_) / (1.0 - exponent_);
}

double
ZipfDistribution::hInverse(double x) const
{
    if (exponent_ == 1.0) {
        return std::exp(x);
    }
    return std::pow((1.0 - exponent_) * x, 1.0 / (1.0 - exponent_));
}

uint64_t
ZipfDistribution::sample(Rng& rng) const
{
    if (num_elements_ == 1) {
        return 0;
    }
    while (true) {
        double u = h_num_elements_ +
                   rng.uniform() * (h_x1_ - h_num_elements_);
        double x = hInverse(u);
        uint64_t k = static_cast<uint64_t>(x + 0.5);
        if (k < 1) {
            k = 1;
        } else if (k > num_elements_) {
            k = num_elements_;
        }
        double kd = static_cast<double>(k);
        if (kd - x <= s_ || u >= h(kd + 0.5) - std::pow(kd, -exponent_)) {
            return k - 1;
        }
    }
}

double
ZipfDistribution::pmf(uint64_t r) const
{
    assert(r < num_elements_);
    // The exact sum up to a cap, then the integral tail, which is
    // accurate to ~1e-9 for the sizes the tests use.
    const uint64_t kExactCap = 10'000'000;
    uint64_t exact = std::min(num_elements_, kExactCap);
    double normalizer = 0.0;
    for (uint64_t k = 1; k <= exact; ++k) {
        normalizer += std::pow(static_cast<double>(k), -exponent_);
    }
    if (num_elements_ > exact) {
        // Integral approximation of sum_{k=exact+1}^{N} k^-s.
        if (exponent_ == 1.0) {
            normalizer += std::log(static_cast<double>(num_elements_) /
                                   static_cast<double>(exact));
        } else {
            double a = std::pow(static_cast<double>(exact) + 0.5,
                                1.0 - exponent_);
            double b = std::pow(static_cast<double>(num_elements_) + 0.5,
                                1.0 - exponent_);
            normalizer += (b - a) / (1.0 - exponent_);
        }
    }
    return std::pow(static_cast<double>(r + 1), -exponent_) / normalizer;
}

}  // namespace approxhadoop
