#include "stats/student_t.h"

#include <cassert>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <cmath>
#include <limits>

namespace approxhadoop::stats {

namespace {

/**
 * Thread-safe ln|Gamma(x)|. glibc's lgamma() writes the sign into the
 * process-global `signgam`, which races when two threads evaluate
 * t-distribution tails concurrently; lgamma_r() takes the sign slot as
 * a parameter instead. All call sites here have x > 0, so the sign is
 * always +1 and can be discarded either way.
 */
double
logGamma(double x)
{
#if defined(__GLIBC__) || defined(__APPLE__)
    int sign = 0;
    return lgamma_r(x, &sign);
#else
    return std::lgamma(x);
#endif
}

/** Continued fraction for the incomplete beta function (Lentz). */
double
betaContinuedFraction(double a, double b, double x)
{
    const int kMaxIterations = 300;
    const double kEpsilon = 1e-15;
    const double kTiny = 1e-300;

    double qab = a + b;
    double qap = a + 1.0;
    double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < kTiny) {
        d = kTiny;
    }
    d = 1.0 / d;
    double result = d;
    for (int m = 1; m <= kMaxIterations; ++m) {
        double md = static_cast<double>(m);
        double aa = md * (b - md) * x / ((qam + 2.0 * md) * (a + 2.0 * md));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kTiny) {
            d = kTiny;
        }
        c = 1.0 + aa / c;
        if (std::fabs(c) < kTiny) {
            c = kTiny;
        }
        d = 1.0 / d;
        result *= d * c;
        aa = -(a + md) * (qab + md) * x /
             ((a + 2.0 * md) * (qap + 2.0 * md));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kTiny) {
            d = kTiny;
        }
        c = 1.0 + aa / c;
        if (std::fabs(c) < kTiny) {
            c = kTiny;
        }
        d = 1.0 / d;
        double delta = d * c;
        result *= delta;
        if (std::fabs(delta - 1.0) < kEpsilon) {
            break;
        }
    }
    return result;
}

}  // namespace

double
incompleteBeta(double a, double b, double x)
{
    assert(a > 0.0 && b > 0.0);
    assert(x >= 0.0 && x <= 1.0);
    if (x == 0.0) {
        return 0.0;
    }
    if (x == 1.0) {
        return 1.0;
    }
    double log_beta = logGamma(a + b) - logGamma(a) - logGamma(b) +
                      a * std::log(x) + b * std::log(1.0 - x);
    double front = std::exp(log_beta);
    // Use the symmetry relation for fast convergence.
    if (x < (a + 1.0) / (a + b + 2.0)) {
        return front * betaContinuedFraction(a, b, x) / a;
    }
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double
studentTCdf(double t, double df)
{
    assert(df > 0.0);
    if (std::isinf(t)) {
        return t > 0.0 ? 1.0 : 0.0;
    }
    double x = df / (df + t * t);
    double tail = 0.5 * incompleteBeta(df / 2.0, 0.5, x);
    return t >= 0.0 ? 1.0 - tail : tail;
}

double
studentTQuantile(double p, double df)
{
    assert(p > 0.0 && p < 1.0);
    assert(df > 0.0);
    if (p == 0.5) {
        return 0.0;
    }
    // Exploit symmetry: solve for the upper tail only.
    bool negate = p < 0.5;
    double target = negate ? 1.0 - p : p;

    // Bracket the quantile by doubling, then bisect.
    double lo = 0.0;
    double hi = 1.0;
    while (studentTCdf(hi, df) < target && hi < 1e12) {
        hi *= 2.0;
    }
    for (int i = 0; i < 200; ++i) {
        double mid = 0.5 * (lo + hi);
        if (studentTCdf(mid, df) < target) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-12 * (1.0 + hi)) {
            break;
        }
    }
    double q = 0.5 * (lo + hi);
    return negate ? -q : q;
}

double
studentTCritical(double confidence, double df)
{
    assert(confidence > 0.0 && confidence < 1.0);
    if (df < 1.0) {
        return std::numeric_limits<double>::infinity();
    }
    double alpha = 1.0 - confidence;
    return studentTQuantile(1.0 - alpha / 2.0, df);
}

double
studentTCriticalCached(double confidence, double df)
{
    if (df < 1.0) {
        return std::numeric_limits<double>::infinity();
    }
    struct Key
    {
        double confidence;
        double df;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash
    {
        size_t
        operator()(const Key& k) const
        {
            return std::hash<double>()(k.confidence) ^
                   (std::hash<double>()(k.df) * 1099511628211ULL);
        }
    };
    // Process-wide state: today only the driver thread reaches it (the
    // reducer and the target controller, once per scan or candidate n),
    // but nothing confines it there, so readers take a shared lock (the
    // steady state: a job revisits a few (confidence, df) pairs) and
    // writers an exclusive one.
    static std::shared_mutex cache_mutex;
    static std::unordered_map<Key, double, KeyHash> cache;
    Key key{confidence, df};
    {
        std::shared_lock<std::shared_mutex> lock(cache_mutex);
        auto it = cache.find(key);
        if (it != cache.end()) {
            return it->second;
        }
    }
    // Compute outside the lock: two racing threads may both evaluate,
    // but the function is pure so either insert wins harmlessly.
    double value = studentTCritical(confidence, df);
    std::unique_lock<std::shared_mutex> lock(cache_mutex);
    // Bound the cache; df values are job-size-bounded in practice.
    if (cache.size() > 1'000'000) {
        cache.clear();
    }
    cache.emplace(key, value);
    return value;
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    assert(p > 0.0 && p < 1.0);
    // Acklam's algorithm.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    const double p_low = 0.02425;
    const double p_high = 1.0 - p_low;

    double q;
    double r;
    if (p < p_low) {
        q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
                c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p <= p_high) {
        q = p - 0.5;
        r = q * q;
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
                a[5]) *
               q /
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
                1.0);
    }
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace approxhadoop::stats
