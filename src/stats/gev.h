#ifndef APPROXHADOOP_STATS_GEV_H_
#define APPROXHADOOP_STATS_GEV_H_

#include <vector>

namespace approxhadoop::stats {

/**
 * Generalized Extreme Value distribution GEV(mu, sigma, xi).
 *
 * By the Fisher-Tippett-Gnedenko theorem this is the limit law of block
 * maxima of IID samples; ApproxHadoop uses it (paper Section 3.2) to
 * estimate min/max reductions and their confidence intervals after
 * dropping map tasks. Minima are handled by negation at the fitting layer
 * (see gev_fit.h).
 */
class GevDistribution
{
  public:
    /**
     * @param mu    location
     * @param sigma scale (must be > 0)
     * @param xi    shape (0 gives the Gumbel case)
     */
    GevDistribution(double mu, double sigma, double xi);

    /** CDF at @p x (0 or 1 outside the support). */
    double cdf(double x) const;

    /** PDF at @p x (0 outside the support). */
    double pdf(double x) const;

    /** Log PDF at @p x (-inf outside the support). */
    double logPdf(double x) const;

    /**
     * Quantile function.
     * @param p probability in (0, 1)
     */
    double quantile(double p) const;

    double mu() const { return mu_; }
    double sigma() const { return sigma_; }
    double xi() const { return xi_; }

    /**
     * Negative log-likelihood of a sample; +inf if any observation falls
     * outside the support (which makes the MLE objective well-defined for
     * derivative-free search).
     */
    static double negLogLikelihood(double mu, double sigma, double xi,
                                   const std::vector<double>& sample);

  private:
    double mu_;
    double sigma_;
    double xi_;
};

}  // namespace approxhadoop::stats

#endif  // APPROXHADOOP_STATS_GEV_H_
