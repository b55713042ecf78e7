#include "stats/gev.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace approxhadoop::stats {

namespace {
// Shape values below this are treated as the Gumbel (xi = 0) case to
// avoid catastrophic cancellation in (1 + xi z)^(-1/xi).
constexpr double kXiEpsilon = 1e-9;
}  // namespace

GevDistribution::GevDistribution(double mu, double sigma, double xi)
    : mu_(mu), sigma_(sigma), xi_(xi)
{
    assert(sigma > 0.0);
}

double
GevDistribution::cdf(double x) const
{
    double z = (x - mu_) / sigma_;
    if (std::fabs(xi_) < kXiEpsilon) {
        return std::exp(-std::exp(-z));
    }
    double arg = 1.0 + xi_ * z;
    if (arg <= 0.0) {
        // Below the lower endpoint for xi > 0, or above the upper endpoint
        // for xi < 0.
        return xi_ > 0.0 ? 0.0 : 1.0;
    }
    return std::exp(-std::pow(arg, -1.0 / xi_));
}

double
GevDistribution::logPdf(double x) const
{
    double z = (x - mu_) / sigma_;
    if (std::fabs(xi_) < kXiEpsilon) {
        return -std::log(sigma_) - z - std::exp(-z);
    }
    double arg = 1.0 + xi_ * z;
    if (arg <= 0.0) {
        return -std::numeric_limits<double>::infinity();
    }
    double t = std::pow(arg, -1.0 / xi_);
    return -std::log(sigma_) + (-1.0 / xi_ - 1.0) * std::log(arg) - t;
}

double
GevDistribution::pdf(double x) const
{
    double lp = logPdf(x);
    return std::isfinite(lp) ? std::exp(lp) : 0.0;
}

double
GevDistribution::quantile(double p) const
{
    assert(p > 0.0 && p < 1.0);
    double y = -std::log(p);
    if (std::fabs(xi_) < kXiEpsilon) {
        return mu_ - sigma_ * std::log(y);
    }
    return mu_ + sigma_ / xi_ * (std::pow(y, -xi_) - 1.0);
}

double
GevDistribution::negLogLikelihood(double mu, double sigma, double xi,
                                  const std::vector<double>& sample)
{
    if (sigma <= 0.0) {
        return std::numeric_limits<double>::infinity();
    }
    GevDistribution dist(mu, sigma, xi);
    double nll = 0.0;
    for (double x : sample) {
        double lp = dist.logPdf(x);
        if (!std::isfinite(lp)) {
            return std::numeric_limits<double>::infinity();
        }
        nll -= lp;
    }
    return nll;
}

}  // namespace approxhadoop::stats
