#ifndef APPROXHADOOP_MAPREDUCE_TYPES_H_
#define APPROXHADOOP_MAPREDUCE_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/event_queue.h"

namespace approxhadoop::mr {

/**
 * One intermediate record as the shuffle carries it: the id of its key
 * in the key table it travels with (a map task's output, a shuffle
 * chunk's) plus four numeric values, 40 bytes wide.
 *
 * Values are numeric because every error-bounded reduce operation the
 * paper supports (sum, count, average, ratio, min, max) reduces numbers.
 * The secondary value carries the denominator observation for ratio
 * estimators (and is 0 otherwise).
 */
struct Row
{
    /** Id of the record's key in its key table. */
    uint32_t key = 0;
    double value = 0.0;
    /** Denominator observation for ratio reducers; unused otherwise. */
    double value2 = 0.0;
    /**
     * Auxiliary slots used by three-stage sampling unit records
     * (core/sampling_reducer.h): value carries the unit's subunit value
     * sum, value2 the sum of squares, value3 the subunit count K_ij, and
     * value4 the sampled subunit count k_ij.
     */
    double value3 = 0.0;
    double value4 = 0.0;
};

/**
 * One final output record. Approximation-aware reducers attach a
 * confidence interval; precise reducers leave has_bound false.
 */
struct OutputRecord
{
    std::string key;
    /** Point estimate (or exact value for precise runs). */
    double value = 0.0;
    /** True when [lower, upper] is a meaningful confidence interval. */
    bool has_bound = false;
    double lower = 0.0;
    double upper = 0.0;

    /** Half-width of the confidence interval (0 for precise records). */
    double
    errorBound() const
    {
        if (!has_bound) {
            return 0.0;
        }
        return std::max(upper - value, value - lower);
    }

    /** errorBound() / |value|. */
    double
    relativeError() const
    {
        if (value == 0.0) {
            return has_bound ? 1.0 : 0.0;
        }
        return errorBound() / std::abs(value);
    }
};

/** Lifecycle states of a map task. */
enum class TaskState {
    kPending,       ///< waiting for a slot
    kHeld,          ///< withheld by the controller (pilot-wave staging)
    kRunning,       ///< at least one attempt executing
    kAwaitingRetry, ///< all attempts failed; waiting out the retry backoff
    kCompleted,     ///< finished; output delivered
    kKilled,        ///< killed while running (output discarded)
    kDropped,       ///< dropped before starting
    kAbsorbed,      ///< failed and reclassified as dropped (no output;
                    ///< statistically identical to kDropped)
};

/** Returns true for states that no longer occupy the scheduler. */
inline bool
isTerminal(TaskState s)
{
    return s == TaskState::kCompleted || s == TaskState::kKilled ||
           s == TaskState::kDropped || s == TaskState::kAbsorbed;
}

/**
 * Scheduler- and controller-visible record of one map task.
 *
 * The measured duration components (startup/read/process) stand in for
 * the task counters real Hadoop reports; the target-error controller fits
 * its cost model t_map = t0 + M t_r + m t_p from them (paper Section 4.4).
 */
struct MapTaskInfo
{
    uint64_t task_id = 0;
    /** Global HDFS block id this task processes. */
    uint64_t block = 0;
    TaskState state = TaskState::kPending;
    /** Input data sampling ratio assigned when the task started. */
    double sampling_ratio = 1.0;
    /** Whether the task runs the user-defined approximate map version. */
    bool approximate = false;
    /** M_i: items in the input block. */
    uint64_t items_total = 0;
    /** m_i: items actually processed (set at completion). */
    uint64_t items_processed = 0;
    /** Bad input records skipped by the mapper (excluded from m_i). */
    uint64_t records_skipped = 0;
    /** Wave index assigned at start (floor(start_rank / map slots)). */
    int wave = -1;
    /** Server of the winning attempt. */
    uint32_t server = 0;
    /** Whether the winning attempt read its block locally. */
    bool local = true;
    /** True if a speculative duplicate was launched. */
    bool speculated = false;
    /** Attempts of this task that crashed (fault injection). */
    uint32_t failed_attempts = 0;

    sim::SimTime start_time = 0.0;
    sim::SimTime finish_time = 0.0;
    /** Measured duration components of the winning attempt. */
    double startup_time = 0.0;
    double read_time = 0.0;
    double process_time = 0.0;

    double duration() const { return finish_time - start_time; }
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_TYPES_H_
