#ifndef APPROXHADOOP_MAPREDUCE_MAPPER_H_
#define APPROXHADOOP_MAPREDUCE_MAPPER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "mapreduce/records.h"

namespace approxhadoop::mr {

/**
 * Per-task context handed to map functions.
 *
 * Collects emitted intermediate records and exposes the task-level
 * metadata the approximation layer piggybacks on the shuffle: the task
 * id (cluster id for multi-stage sampling), block item counts, and
 * whether the task is running its user-defined approximate variant.
 */
class MapContext
{
  public:
    /**
     * @param task_id         map task id (doubles as the cluster id)
     * @param items_total     M_i: items in the input block
     * @param items_processed m_i: items in the sample being processed
     * @param approximate     user-defined-approximation flag for the task
     * @param rng             task-private randomness (derived per task so
     *                        results are reproducible under any schedule)
     */
    MapContext(uint64_t task_id, uint64_t items_total,
               uint64_t items_processed, bool approximate, Rng rng)
        : task_id_(task_id), items_total_(items_total),
          items_processed_(items_processed), approximate_(approximate),
          rng_(rng)
    {
        // Most map functions emit one record per item, so the task's
        // row buffer and key table are sized from its input.
        output_.reserve(items_processed);
    }

    /**
     * Emits an intermediate record: @p value alone, a ratio observation
     * (numerator @p value, denominator @p value2), or a three-stage unit
     * record using all four values (see core/three_stage_reducer.h).
     * Returns the key's id, which writeId() takes.
     */
    uint32_t
    write(std::string_view key, double value, double value2 = 0.0,
          double value3 = 0.0, double value4 = 0.0)
    {
        return output_.write(key, value, value2, value3, value4);
    }

    /**
     * Emits a record under @p id, a key id an earlier write() of this
     * task returned (RecordWriter::writeId): a mapper that remembers
     * its keys' ids skips hashing them again.
     */
    void
    writeId(uint32_t id, double value, double value2 = 0.0,
            double value3 = 0.0, double value4 = 0.0)
    {
        output_.writeId(id, value, value2, value3, value4);
    }

    uint64_t taskId() const { return task_id_; }
    uint64_t itemsTotal() const { return items_total_; }
    uint64_t itemsProcessed() const { return items_processed_; }

    /** True when this task should run the approximate code path. */
    bool approximate() const { return approximate_; }

    /** Task-private randomness (e.g., for Monte Carlo map tasks). */
    Rng& rng() { return rng_; }

    /** Emitted records; consumed by the framework after the task runs. */
    RecordWriter& output() { return output_; }

  private:
    uint64_t task_id_;
    uint64_t items_total_;
    uint64_t items_processed_;
    bool approximate_;
    Rng rng_;
    RecordWriter output_;
};

/**
 * User map function. One instance is created per map task (so instances
 * may keep per-task state between map() calls, like Hadoop's Mapper).
 *
 * Each input record is one data item of the block; the framework calls
 * map() once per (sampled) item. This mirrors Hadoop's TextInputFormat
 * convention where the value is one line of the input file.
 */
class Mapper
{
  public:
    virtual ~Mapper() = default;

    /** Called once before the first record. */
    virtual void setup(MapContext& /*ctx*/) {}

    /** Called for every (sampled) input record. */
    virtual void map(const std::string& record, MapContext& ctx) = 0;

    /**
     * Batched map call: processes a block of records in one virtual
     * dispatch. The default loops over map(); hot mappers override it to
     * parse the record views in place (no per-record std::string). An
     * override must emit exactly what per-record map() calls would —
     * the batched and record-at-a-time paths are asserted byte-identical
     * (tests/apps/map_batch_test.cc) and the chaos oracle replays tasks
     * through map().
     */
    virtual void
    mapBatch(const std::string_view* records, size_t count, MapContext& ctx)
    {
        std::string scratch;
        for (size_t i = 0; i < count; ++i) {
            scratch.assign(records[i].data(), records[i].size());
            map(scratch, ctx);
        }
    }

    /** Called once after the last record. */
    virtual void cleanup(MapContext& /*ctx*/) {}
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_MAPPER_H_
