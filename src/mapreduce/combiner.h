#ifndef APPROXHADOOP_MAPREDUCE_COMBINER_H_
#define APPROXHADOOP_MAPREDUCE_COMBINER_H_

#include <cstddef>
#include <string_view>

#include "mapreduce/records.h"

namespace approxhadoop::mr {

/**
 * Map-side pre-aggregation (Hadoop's Combiner), applied to each map
 * task's output before the shuffle to cut intermediate record volume.
 *
 * IMPORTANT constraint inherited from the paper's design: ApproxHadoop's
 * multi-stage error estimation needs the raw per-cluster records (it
 * derives within-cluster variances from the individual values), so
 * combiners are only sound for *precise* jobs or for combiners that
 * preserve the moments the estimator needs (MomentsCombiner); pairing a
 * plain sum/count combiner with a sampling reducer silently biases the
 * variance and is a programming error.
 *
 * Threading: one combiner instance is shared by all map tasks of a job,
 * and with JobConfig::num_exec_threads > 1 combine() is called
 * concurrently for tasks in flight. Implementations must therefore be
 * stateless across calls (all built-in combiners are): everything a call
 * needs arrives via its arguments.
 */
class Combiner
{
  public:
    virtual ~Combiner() = default;

    /**
     * Combines all records of one key emitted by one map task.
     *
     * @param key   the intermediate key
     * @param rows  that key's @p count rows from this map task, in
     *              emission order (their key ids index the task's table,
     *              so only their values are read)
     * @param out   sink for the combined record(s)
     */
    virtual void combine(std::string_view key, const Row* rows,
                         size_t count, RecordWriter& out) = 0;

    /**
     * True when the combiner's output lets a downstream multi-stage
     * sampling reducer reconstruct the per-cluster count/sum/sum-of-
     * squares (e.g., MomentsCombiner). Plain sum/count combiners return
     * false and may only feed precise reducers.
     */
    virtual bool preservesMoments() const { return false; }
};

/** Sums values per key (Hadoop's typical word-count combiner). */
class SumCombiner : public Combiner
{
  public:
    void combine(std::string_view key, const Row* rows, size_t count,
                 RecordWriter& out) override;
};

/** Replaces each key's records with their count. */
class CountCombiner : public Combiner
{
  public:
    void combine(std::string_view key, const Row* rows, size_t count,
                 RecordWriter& out) override;
};

/**
 * Moment-preserving combiner: folds one map task's records for a key
 * into a single record carrying (sum, sum_sq, count) in
 * (value, value2, value3). MultiStageSamplingReducer detects such
 * records (value4 set to the kMomentsMarker sentinel) and unpacks the
 * moments instead of treating the record as one observation, so the
 * error bounds are bit-identical to the uncombined execution.
 */
class MomentsCombiner : public Combiner
{
  public:
    /** Sentinel in Row::value4 marking a moments record. */
    static constexpr double kMomentsMarker = -9.0e99;

    void combine(std::string_view key, const Row* rows, size_t count,
                 RecordWriter& out) override;

    bool preservesMoments() const override { return true; }

    /** True when @p row is a folded moments record. */
    static bool isMomentsRecord(const Row& row);
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_COMBINER_H_
