#ifndef APPROXHADOOP_CORE_KEY_ESTIMATE_H_
#define APPROXHADOOP_CORE_KEY_ESTIMATE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mapreduce/reducer.h"

namespace approxhadoop::core {

/** One intermediate key's current estimate, as seen by controllers. */
struct KeyEstimate
{
    std::string key;
    /** Point estimate. */
    double value = 0.0;
    /** Half-width of the CI (max side when asymmetric). */
    double error_bound = std::numeric_limits<double>::infinity();
    double lower = 0.0;
    double upper = 0.0;
    /** False while too few clusters have reported for a finite bound. */
    bool finite = false;

    double
    relativeError() const
    {
        if (!finite || value == 0.0) {
            return std::numeric_limits<double>::infinity();
        }
        return error_bound / std::fabs(value);
    }
};

/** The estimate @p value +/- @p bound for @p key; a bound of +inf
 *  leaves it not finite. */
inline KeyEstimate
symmetricEstimate(std::string_view key, double value, double bound)
{
    KeyEstimate est;
    est.key = key;
    est.value = value;
    est.error_bound = bound;
    est.lower = value - bound;
    est.upper = value + bound;
    est.finite = std::isfinite(bound);
    return est;
}

/** Writes each of @p estimates as a bounded output record; one that is
 *  not finite gets the interval (-inf, +inf). */
inline void
writeEstimates(mr::ReduceContext& ctx, std::vector<KeyEstimate> estimates)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (KeyEstimate& est : estimates) {
        mr::OutputRecord rec;
        rec.key = std::move(est.key);
        rec.value = est.value;
        rec.has_bound = true;
        rec.lower = est.finite ? est.lower : -kInf;
        rec.upper = est.finite ? est.upper : kInf;
        ctx.write(std::move(rec));
    }
}

/**
 * Interface implemented by every approximation-aware reducer: exposes
 * live error estimates so the JobTracker-side controllers can decide
 * when to drop the remaining map tasks (paper Section 4.3, "Error
 * estimation").
 */
class ErrorBoundedReducer : public mr::Reducer
{
  public:
    /**
     * Current per-key estimates given the cluster population size.
     *
     * @param total_clusters N: map tasks in the job
     */
    virtual std::vector<KeyEstimate>
    currentEstimates(uint64_t total_clusters) const = 0;

    /** Clusters (map outputs) consumed so far. */
    virtual uint64_t clustersConsumed() const = 0;
};

}  // namespace approxhadoop::core

#endif  // APPROXHADOOP_CORE_KEY_ESTIMATE_H_
