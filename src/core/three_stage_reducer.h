#ifndef APPROXHADOOP_CORE_THREE_STAGE_REDUCER_H_
#define APPROXHADOOP_CORE_THREE_STAGE_REDUCER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/key_estimate.h"
#include "mapreduce/key_interner.h"
#include "mapreduce/mapper.h"
#include "mapreduce/reducer.h"
#include "stats/three_stage.h"

namespace approxhadoop::core {

/**
 * Map-side helper for three-stage sampling (paper Section 3.1,
 * "Three-stage sampling"). The programmer explicitly opts in: instead of
 * emitting one record per <key, value> pair, the mapper pre-aggregates
 * the pairs of each *unit* (input data item) and emits one unit record
 * carrying the sufficient statistics of the sampled subunits.
 */
class ThreeStageEmitter
{
  public:
    /**
     * Emits one unit record.
     *
     * @param ctx             map context
     * @param key             intermediate key
     * @param subunits_total  K_ij: subunits the unit contains
     * @param subunits_sampled k_ij: subunits actually observed
     * @param sum             sum of observed subunit values
     * @param sum_squares     sum of squares of observed subunit values
     */
    static void
    emitUnit(mr::MapContext& ctx, const std::string& key,
             uint64_t subunits_total, uint64_t subunits_sampled, double sum,
             double sum_squares)
    {
        ctx.write(key, sum, sum_squares, static_cast<double>(subunits_total),
                  static_cast<double>(subunits_sampled));
    }
};

/**
 * Three-stage sampling reducer: estimates population sums or per-subunit
 * averages when the population units are the intermediate pairs rather
 * than the input items (e.g., average occurrences of a word per
 * paragraph when each input item is a whole page).
 */
class ThreeStageSamplingReducer : public ErrorBoundedReducer
{
  public:
    enum class Op {
        kSum,      ///< total of subunit values
        kAverage,  ///< mean subunit value
    };

    ThreeStageSamplingReducer(Op op, double confidence);

    void consume(const mr::MapOutputChunk& chunk) override;
    void finalize(mr::ReduceContext& ctx) override;

    std::vector<KeyEstimate>
    currentEstimates(uint64_t total_clusters) const override;

    uint64_t clustersConsumed() const override { return clusters_; }

  private:
    /** Appends a zero entry for each consumed cluster from
     *  @p clusters' end up to cluster @p n - 1. */
    void pad(std::vector<stats::ThreeStageCluster>& clusters,
             size_t n) const;

    Op op_;
    double confidence_;
    uint64_t clusters_ = 0;
    /** Per key, one entry per cluster up to the last that emitted it. */
    mr::KeyedState<std::vector<stats::ThreeStageCluster>> data_;
    /** (M_i, m_i) for every consumed cluster, for implicit-zero rows. */
    std::vector<std::pair<uint64_t, uint64_t>> cluster_sizes_;
};

}  // namespace approxhadoop::core

#endif  // APPROXHADOOP_CORE_THREE_STAGE_REDUCER_H_
