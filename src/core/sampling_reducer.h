#ifndef APPROXHADOOP_CORE_SAMPLING_REDUCER_H_
#define APPROXHADOOP_CORE_SAMPLING_REDUCER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/key_estimate.h"
#include "mapreduce/key_interner.h"
#include "mapreduce/mapper.h"
#include "mapreduce/reducer.h"
#include "stats/two_stage.h"

namespace approxhadoop::core {

/**
 * The paper's MultiStageSamplingMapper: a plain Mapper marker base class.
 * In this runtime the framework itself tags map output with the task id
 * and block item counts (paper Section 4.4), so subclassing only signals
 * that the job opts into multi-stage error estimation; map() is written
 * exactly as for stock Hadoop (see Figure 3 of the paper).
 */
class MultiStageSamplingMapper : public mr::Mapper
{
};

/**
 * Aggregation reducer with multi-stage sampling error bounds
 * (the paper's MultiStageSamplingReducer).
 *
 * Supports sum, count, average, and ratio reductions. For every key it
 * emits the estimate tau-hat with its confidence interval (Equations
 * 1-3), treating input items that emitted nothing for the key as
 * implicit zeros. Controllers read live estimates through the
 * ErrorBoundedReducer interface and plan-prediction aggregates through
 * planStats().
 */
class MultiStageSamplingReducer : public ErrorBoundedReducer
{
  public:
    /** Supported aggregation operations. */
    enum class Op {
        kSum,      ///< sum of emitted values per key
        kCount,    ///< number of emitted records per key
        kAverage,  ///< mean emitted value per key (ratio to record count)
        kRatio,    ///< sum(value) / sum(value2) per key
    };

    /**
     * @param op         aggregation operation
     * @param confidence confidence level for the bounds (e.g., 0.95)
     */
    MultiStageSamplingReducer(Op op, double confidence);

    void consume(const mr::MapOutputChunk& chunk) override;
    void finalize(mr::ReduceContext& ctx) override;

    /**
     * Serializes the folded estimator state (cluster count, per-key
     * aggregates, cluster roster, ratio samples) with bit-exact doubles:
     * a restored reducer produces bit-identical estimates and CIs.
     *
     * For kSum/kCount the blob is a copy of image_, which holds one
     * record per key in first-seen order; only the keys consumed since
     * the previous call are re-encoded (patched in place or appended),
     * so a checkpoint costs O(keys changed) plus one copy.
     */
    bool checkpoint(std::string& state) const override;

    /** For kSum/kCount, views image_ in place with its block versions
     *  (no copy); otherwise the default whole-blob snapshot. */
    bool snapshot(std::string& scratch,
                  journal::ReducerImage& out) const override;

    /** For kSum/kCount the image then starts a new lineage. */
    bool restore(const std::string& state) override;

    std::vector<KeyEstimate>
    currentEstimates(uint64_t total_clusters) const override;

    uint64_t clustersConsumed() const override { return clusters_; }

    /**
     * Per-key aggregates the target-error controller plugs into the
     * paper's Equations 6-7 to predict the error of candidate
     * dropping/sampling plans. Only meaningful for kSum/kCount (the
     * operations the online optimizer supports); empty otherwise.
     */
    struct KeyPlanStats
    {
        std::string key;
        /** Current tau-hat. */
        double tau_hat = 0.0;
        /** s_u^2: inter-cluster variance of the cluster totals. */
        double inter_cluster_variance = 0.0;
        /** Mean intra-cluster variance across consumed clusters. */
        double mean_intra_variance = 0.0;
        /** Sum of M_i (M_i - m_i) s_i^2 / m_i over consumed clusters. */
        double within_consumed = 0.0;
        /** Current absolute error bound. */
        double error_bound = 0.0;
    };

    /**
     * @param total_clusters N: map tasks in the job
     * @param top_k          return only the top_k keys by absolute error
     *                       bound (0 = all); selection avoids sorting the
     *                       full key space, which matters for jobs with
     *                       millions of intermediate keys
     */
    std::vector<KeyPlanStats> planStats(uint64_t total_clusters,
                                        size_t top_k = 0) const;

    /**
     * Worst (largest) absolute error bound across all keys and the
     * estimate it belongs to, without materializing per-key snapshots.
     * Used by the target controller's per-completion check on jobs with
     * very large key spaces.
     */
    struct WorstError
    {
        double error_bound = 0.0;
        double value = 0.0;
        bool all_finite = true;
        bool any_key = false;
    };
    WorstError worstAbsoluteError(uint64_t total_clusters) const;

    /**
     * Estimates the total number of distinct intermediate keys in the
     * population, including keys the sample missed entirely — the
     * paper's Section 3.1 remark that the overall key count can be
     * extrapolated from a sample (Haas et al., VLDB'95). Uses the Chao1
     * lower-bound estimator D = d + f1^2 / (2 f2), where f1/f2 are the
     * keys observed in exactly one/two records. Only meaningful for
     * kSum/kCount; returns the observed key count otherwise.
     */
    double estimateDistinctKeys() const;

    /** Distinct keys actually observed so far. */
    uint64_t
    observedKeys() const
    {
        return op_ == Op::kSum || op_ == Op::kCount ? aggs_.size()
                                                    : ratios_.size();
    }

  private:
    /** Folded per-key aggregate for sum/count. */
    struct SumAggregate
    {
        uint64_t emitted_clusters = 0;
        /** Records observed for the key (for Chao1 key-count estimation). */
        uint64_t records = 0;
        double sum_tau = 0.0;
        double sum_tau_sq = 0.0;
        double within = 0.0;
        double sum_intra_variance = 0.0;
        /** Offset of this key's value bytes in image_; 0 until the key
         *  is first written there (the header occupies offset 0). */
        mutable size_t image_offset = 0;
        /** Consumed since image_ was last refreshed (listed in dirty_). */
        mutable bool dirty = false;
    };

    /** One key's sample from one cluster that emitted it. */
    struct RatioSample
    {
        uint64_t cluster = 0;
        stats::RatioClusterSample sample;
    };

    /** One chunk's moments for one key. */
    struct Moments
    {
        uint64_t count = 0;
        double sum = 0.0;
        double sum_sq = 0.0;
    };

    /**
     * Student-t critical value t_{n-1, 1-alpha/2} for the clusters
     * consumed so far (+inf below 2). Every key of a scan shares it, so
     * each scan looks it up once, before its key loop.
     */
    double criticalT() const;

    /**
     * String-free core of the sum/count estimate for the hot scan paths.
     * @param t criticalT()
     * @return {value, error_bound (may be +inf)}
     */
    std::pair<double, double>
    sumEstimateNumbers(const SumAggregate& agg, uint64_t total_clusters,
                       double t) const;

    /** One key's ratio estimate from the clusters that emitted it; the
     *  consumed clusters that did not count as zero rows. */
    stats::Estimate ratioEstimate(const std::vector<RatioSample>& emitted,
                                  uint64_t total_clusters) const;

    Op op_;
    double confidence_;
    uint64_t clusters_ = 0;

    /** kSum/kCount: O(1) state per key. */
    mr::KeyedState<SumAggregate> aggs_;
    /** The chunk being folded, by chunk key id: its moments for the key;
     *  kept only to reuse the memory. */
    std::vector<Moments> chunk_;

    /** Brings image_ up to date under a new version: patches the dirty
     *  keys' value bytes, appends keys never written, rewrites the
     *  header counts, and stamps every block it wrote. */
    void refreshImage() const;

    /** Stamps the blocks holding image_ bytes [begin, end) with
     *  version_. */
    void stamp(size_t begin, size_t end) const;

    // kSum/kCount checkpoint image: the whole blob (header, per-key
    // records, the two empty ratio-section counts), refreshed lazily by
    // checkpoint() and snapshot(). Records are in first-seen order, a
    // function of the consume order alone, so a restored and replayed
    // reducer rebuilds the same bytes as one that never crashed, and an
    // image only grows at its end.
    mutable std::string image_;
    /** Per journal::kImageBlock-byte block of image_: the version_ that
     *  last wrote it. */
    mutable std::vector<uint32_t> block_versions_;
    /** Bumped by every refresh. Whenever image_ is built anew (first
     *  refresh, restore) lineage_ is taken from a process-wide counter
     *  and version_ counts from 1 again. */
    mutable uint32_t version_ = 0;
    mutable uint64_t lineage_ = 0;
    /** Ids of the keys consumed since the last refresh, in first-touch
     *  order. */
    mutable std::vector<uint32_t> dirty_;

    /** kAverage/kRatio: per key, the samples of the clusters that
     *  emitted it, in cluster order. */
    mr::KeyedState<std::vector<RatioSample>> ratios_;
    /** (M_i, m_i) of every consumed cluster, for the zero rows. */
    std::vector<std::pair<uint64_t, uint64_t>> cluster_sizes_;
};

}  // namespace approxhadoop::core

#endif  // APPROXHADOOP_CORE_SAMPLING_REDUCER_H_
