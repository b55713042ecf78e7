#ifndef APPROXHADOOP_COMMON_ZIPF_H_
#define APPROXHADOOP_COMMON_ZIPF_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace approxhadoop {

/**
 * Zipf(s, N) sampler over ranks {0, ..., N-1}.
 *
 * Rank r is drawn with probability proportional to 1 / (r+1)^s. Wikipedia
 * page popularity, project popularity, and word frequencies are all
 * heavy-tailed, so this is the workhorse of the synthetic workload
 * generators (see DESIGN.md section 2).
 *
 * Uses rejection-inversion (Hormann & Derflinger 1996), which is O(1) per
 * sample and supports N in the billions without precomputing a CDF.
 */
class ZipfDistribution
{
  public:
    /**
     * @param num_elements number of ranks N (must be >= 1)
     * @param exponent     skew s (must be > 0; s != 1 handled too)
     */
    ZipfDistribution(uint64_t num_elements, double exponent);

    /** Draws one rank in [0, N). */
    uint64_t sample(Rng& rng) const;

    /**
     * Exact probability of rank @p r. O(N): it sums the normalizer on
     * every call, so it is for tests only; sampling never needs it.
     */
    double pmf(uint64_t r) const;

    uint64_t numElements() const { return num_elements_; }
    double exponent() const { return exponent_; }

  private:
    /** H(x) = integral of x^-s, the rejection-inversion helper. */
    double h(double x) const;
    /** Inverse of h(). */
    double hInverse(double x) const;

    uint64_t num_elements_;
    double exponent_;
    double h_x1_;
    double h_num_elements_;
    double s_;
};

}  // namespace approxhadoop

#endif  // APPROXHADOOP_COMMON_ZIPF_H_
