#ifndef APPROXHADOOP_MAPREDUCE_REDUCER_H_
#define APPROXHADOOP_MAPREDUCE_REDUCER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "journal/sink.h"
#include "mapreduce/key_interner.h"
#include "mapreduce/records.h"
#include "mapreduce/types.h"

namespace approxhadoop::mr {

/**
 * The slice of one map task's output routed to one reduce partition,
 * delivered incrementally as map tasks complete (barrier-less reduce,
 * paper Section 4.3). Carries the per-cluster metadata multi-stage
 * sampling needs: the map task id and the block's item counts.
 */
struct MapOutputChunk
{
    /** Producing map task (the sampling "cluster" id). */
    uint64_t map_task = 0;
    /** M_i: items in the producing task's block. */
    uint64_t items_total = 0;
    /** m_i: items the producing task actually processed. */
    uint64_t items_processed = 0;
    /** Bad input records the mapper skipped (excluded from m_i, so the
     *  within-cluster variance widens to cover the loss). */
    uint64_t records_skipped = 0;
    /**
     * 64-bit digest over the serialized records and the metadata above,
     * stamped by integrity::stampChunk() at map-attempt emit and
     * verified at reduce-side delivery; 0 only before stamping.
     */
    uint64_t checksum = 0;
    /** Records for this partition only, as rows over keys. */
    std::vector<Row> records;
    /**
     * The distinct keys of records, each stored once. Ids are numbered
     * in the order of each key's first row and every key has a row, so
     * walking the ids visits the keys in first-seen order: a reducer
     * maps each key to its own id once, in id order, then folds the
     * rows in row order.
     */
    KeyTable keys;

    /** The key of @p row (a row of this chunk). */
    std::string_view key(const Row& row) const { return keys.key(row.key); }

    /** Takes @p out's rows and keys, whose ids follow first-row order. */
    void
    assign(RecordWriter&& out)
    {
        std::tie(records, keys) = std::move(out).release();
    }
};

/** Final-output sink plus job-level facts reducers may need. */
class ReduceContext
{
  public:
    /**
     * @param total_map_tasks N: map tasks in the job (the cluster
     *                        population for multi-stage sampling)
     * @param total_items     T: items in the whole input
     */
    ReduceContext(uint64_t total_map_tasks, uint64_t total_items)
        : total_map_tasks_(total_map_tasks), total_items_(total_items)
    {
    }

    /** Emits a precise output record. */
    void
    write(std::string key, double value)
    {
        output_.push_back(
            OutputRecord{std::move(key), value, false, value, value});
    }

    /** Emits an output record with a confidence interval. */
    void
    write(const std::string& key, double value, double lower, double upper)
    {
        output_.push_back(OutputRecord{key, value, true, lower, upper});
    }

    /** Emits a fully formed record. */
    void write(OutputRecord record) { output_.push_back(std::move(record)); }

    uint64_t totalMapTasks() const { return total_map_tasks_; }
    uint64_t totalItems() const { return total_items_; }

    std::vector<OutputRecord>& output() { return output_; }

  private:
    uint64_t total_map_tasks_;
    uint64_t total_items_;
    std::vector<OutputRecord> output_;
};

/**
 * User reduce computation for one partition.
 *
 * Unlike stock Hadoop, reducers are *incremental*: consume() is invoked
 * once per completed map task as soon as its output is shuffled, and
 * finalize() runs after every map task has completed or been dropped.
 * This is the paper's barrier-less extension, which is what lets the
 * runtime estimate errors mid-job and drop the remaining maps.
 *
 * Threading contract: the framework always calls consume() and finalize()
 * from the driver thread, in simulated-completion order — even when map
 * CPU work runs on a thread pool (JobConfig::num_exec_threads > 1). The
 * incremental estimators therefore need no internal locking, and
 * mid-job error estimates never depend on host scheduling.
 */
class Reducer
{
  public:
    virtual ~Reducer() = default;

    /** Ingests one map task's records for this partition. */
    virtual void consume(const MapOutputChunk& chunk) = 0;

    /** Produces the partition's final output. */
    virtual void finalize(ReduceContext& ctx) = 0;

    /**
     * Serializes the reducer's incremental state into @p state so a
     * crashed attempt can be resumed without replaying every chunk.
     * Returns false when the reducer does not support checkpointing;
     * the framework then cannot roll its state back, so reduce-crash
     * injection is skipped for it. Implementations must round-trip through
     * restore() bit-identically: recovered runs are pinned to match
     * fault-free runs exactly.
     *
     * The blob must be a function of the consumed chunks alone, never
     * of when earlier checkpoints were taken: journal epochs compare a
     * resumed run's blobs with the crashed run's byte for byte. The
     * framework reads it through snapshot() every few chunks and at
     * every journal epoch, which delta-encodes each blob against the
     * previous one, so a layout that only grows at its end (records in
     * first-seen order, as MultiStageSamplingReducer writes them) keeps
     * both cheap.
     */
    virtual bool
    checkpoint(std::string& state) const
    {
        (void)state;
        return false;
    }

    /**
     * The checkpoint blob as the framework reads it: @p out views the
     * same bytes checkpoint() would write, valid until the reducer is
     * next called. The default writes checkpoint() into
     * @p scratch and views it without versions, so consumers compare
     * or copy the whole blob; a decorator that overrides only
     * checkpoint() keeps working unchanged. A reducer that keeps its
     * blob as a versioned image (MultiStageSamplingReducer for
     * sum/count) views it in place, and the reduce-crash copy and the
     * journal delta then touch only the blocks written since they last
     * read it. Returns false when checkpointing is unsupported.
     */
    virtual bool
    snapshot(std::string& scratch, journal::ReducerImage& out) const
    {
        if (!checkpoint(scratch)) {
            return false;
        }
        out = journal::ReducerImage{scratch};
        return true;
    }

    /**
     * Replaces the reducer's state with a blob previously produced by
     * checkpoint() on the same reducer type (an empty blob from a
     * pristine reducer resets to the initial state). Returns false when
     * unsupported.
     */
    virtual bool
    restore(const std::string& state)
    {
        (void)state;
        return false;
    }
};

/**
 * Precise per-key fold: the classic Hadoop reduce(key, values) for the
 * five built-in operations, computed without buffering any record.
 *
 * Each key gets one accumulator {value, n} in a KeyedState; consume()
 * binds the chunk's keys once, then folds every row into its key's
 * accumulator in delivery order, and finalize() walks the keys in
 * sorted order. The result is bit-identical to buffering each key's
 * records and reducing them at finalize: a sum adds from 0.0 in the
 * same order, min/max start from the first value and apply std::min /
 * std::max in the same order, an average is that sum over the count,
 * and the output follows std::string ordering.
 */
class FoldReducer : public Reducer
{
  public:
    enum class Fold { kSum, kCount, kAverage, kMin, kMax };

    explicit FoldReducer(Fold fold) : fold_(fold) {}

    void consume(const MapOutputChunk& chunk) override;
    void finalize(ReduceContext& ctx) override;

    /** Writes a key count, then `key, value bits, n` per key in
     *  first-seen order: O(keys), and it only grows at its end. */
    bool checkpoint(std::string& state) const override;
    bool restore(const std::string& state) override;

  private:
    struct Accumulator
    {
        double value = 0.0;
        uint64_t n = 0;
    };

    Fold fold_;
    KeyedState<Accumulator> acc_;
};

/** Precise sum-per-key reducer (Hadoop's LongSumReducer analogue). */
class SumReducer : public FoldReducer
{
  public:
    SumReducer() : FoldReducer(Fold::kSum) {}
};

/** Precise record-count-per-key reducer. */
class CountReducer : public FoldReducer
{
  public:
    CountReducer() : FoldReducer(Fold::kCount) {}
};

/** Precise mean-of-values-per-key reducer. */
class AverageReducer : public FoldReducer
{
  public:
    AverageReducer() : FoldReducer(Fold::kAverage) {}
};

/** Precise minimum-per-key reducer. */
class MinReducer : public FoldReducer
{
  public:
    MinReducer() : FoldReducer(Fold::kMin) {}
};

/** Precise maximum-per-key reducer. */
class MaxReducer : public FoldReducer
{
  public:
    MaxReducer() : FoldReducer(Fold::kMax) {}
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_REDUCER_H_
