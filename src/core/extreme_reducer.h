#ifndef APPROXHADOOP_CORE_EXTREME_REDUCER_H_
#define APPROXHADOOP_CORE_EXTREME_REDUCER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/key_estimate.h"
#include "mapreduce/key_interner.h"
#include "mapreduce/reducer.h"
#include "stats/gev_fit.h"

namespace approxhadoop::core {

/**
 * Extreme-value reducer (the paper's ApproxMinReducer/ApproxMaxReducer,
 * Section 3.2): treats the values received for each key as a sample of
 * IID observations, fits a GEV distribution, and reports the estimated
 * min/max with a confidence interval.
 *
 * When each map task already reduces many internal values to a single
 * min/max (the common optimization-app pattern, e.g., DC Placement), the
 * incoming values are block extremes already and are fitted directly;
 * otherwise the Block Minima/Maxima transform is applied first.
 */
class ApproxExtremeReducer : public ErrorBoundedReducer
{
  public:
    /**
     * @param minimum             true for min, false for max
     * @param percentile          percentile of the fitted GEV at which the
     *                            estimate is read (e.g., 0.01)
     * @param confidence          CI confidence level
     * @param values_are_extremes true when each incoming value is already
     *                            a per-map min/max (skips the Block
     *                            Minima/Maxima transform)
     */
    ApproxExtremeReducer(bool minimum, double percentile, double confidence,
                         bool values_are_extremes = true);

    void consume(const mr::MapOutputChunk& chunk) override;
    void finalize(mr::ReduceContext& ctx) override;

    std::vector<KeyEstimate>
    currentEstimates(uint64_t total_clusters) const override;

    uint64_t clustersConsumed() const override { return clusters_; }

    /** Full extreme estimate for one key (fit + CI + observed value). */
    stats::ExtremeEstimate estimateKey(const std::string& key) const;

  private:
    /** The fit over one key's @p values (failed when null or below
     *  three values). */
    stats::ExtremeEstimate estimate(const std::vector<double>* values) const;

    bool minimum_;
    double percentile_;
    double confidence_;
    bool values_are_extremes_;
    uint64_t clusters_ = 0;
    /** Per key, every value received, in arrival order. */
    mr::KeyedState<std::vector<double>> values_;
};

/** Convenience subclass matching the paper's class name. */
class ApproxMinReducer : public ApproxExtremeReducer
{
  public:
    explicit ApproxMinReducer(double percentile = 0.01,
                              double confidence = 0.95,
                              bool values_are_extremes = true)
        : ApproxExtremeReducer(true, percentile, confidence,
                               values_are_extremes)
    {
    }
};

/** Convenience subclass matching the paper's class name. */
class ApproxMaxReducer : public ApproxExtremeReducer
{
  public:
    explicit ApproxMaxReducer(double percentile = 0.01,
                              double confidence = 0.95,
                              bool values_are_extremes = true)
        : ApproxExtremeReducer(false, percentile, confidence,
                               values_are_extremes)
    {
    }
};

}  // namespace approxhadoop::core

#endif  // APPROXHADOOP_CORE_EXTREME_REDUCER_H_
