#ifndef APPROXHADOOP_FT_FAULT_INJECTOR_H_
#define APPROXHADOOP_FT_FAULT_INJECTOR_H_

#include <cstdint>

#include "common/random.h"
#include "ft/fault_plan.h"

namespace approxhadoop::ft {

/**
 * Deterministic fault oracle for one job run.
 *
 * Every decision is a pure function of (job seed, plan seed, task id,
 * attempt index): the injector holds no mutable state, so fates do not
 * depend on scheduling order, speculation, host thread count, or how
 * many other attempts were queried first. That property is what keeps
 * fault-injected runs bit-identical across `--threads` settings and is
 * pinned by tests/integration/fault_recovery_test.cc.
 *
 * The Job consults attemptFate() when an attempt starts and schedules
 * either its completion event or its failure event in *simulated* time;
 * server crashes from the plan are scheduled as ordinary events on the
 * cluster's queue.
 */
class FaultInjector
{
  public:
    /** What happens to one map-task attempt. */
    struct AttemptFate
    {
        /** The attempt crashes before completing. */
        bool crashes = false;
        /**
         * Fraction of the attempt's (slowed) duration that elapses
         * before the crash, in (0, 1); wasted work accounting uses it.
         */
        double crash_fraction = 0.5;
        /** Straggler slowdown multiplier (1.0 = run at normal speed). */
        double slowdown = 1.0;
    };

    FaultInjector(const FaultPlan& plan, uint64_t job_seed);

    /** True when the plan injects anything. */
    bool enabled() const { return plan_.enabled(); }

    const FaultPlan& plan() const { return plan_; }

    /** What happens to one reduce-task attempt. */
    struct ReduceAttemptFate
    {
        /** The attempt crashes before finalize. */
        bool crashes = false;
        /**
         * Fraction of the job's map tasks whose chunks the attempt
         * manages to consume before crashing, in (0, 1).
         */
        double crash_fraction = 0.5;
    };

    /**
     * Fate of attempt @p attempt_index of task @p task_id. Deterministic
     * and side-effect free: calling it twice, in any order relative to
     * other (task, attempt) pairs, returns identical results.
     */
    AttemptFate attemptFate(uint64_t task_id, uint64_t attempt_index) const;

    /**
     * Whether fetch number @p fetch of map task @p task_id's chunk for
     * reduce partition @p partition arrives corrupted. Each refetch
     * (incrementing @p fetch) rolls independently, so a corrupt first
     * fetch can be repaired by refetching from the retained map output.
     * Pure function of its arguments — query-order independent.
     */
    bool chunkCorrupted(uint64_t task_id, uint32_t partition,
                        uint64_t fetch) const;

    /**
     * Whether sampled item @p item_index of map task @p task_id is a
     * bad record the mapper must skip. Pure and order-independent, so
     * re-executions of the task skip the identical records.
     */
    bool recordBad(uint64_t task_id, uint64_t item_index) const;

    /** Fate of reduce attempt @p attempt_index of partition
     *  @p reducer_id; pure and order-independent. */
    ReduceAttemptFate reduceAttemptFate(uint64_t reducer_id,
                                        uint64_t attempt_index) const;

  private:
    FaultPlan plan_;
    /**
     * First raw draws of the per-attempt, corruption, bad-record and
     * reduce-crash root streams, seeded from the mixed (job seed, plan
     * seed) root, or 0 where the plan never queries that stream. Each
     * query's stream is Rng::derived from one of them, so a query seeds
     * one engine instead of two.
     */
    uint64_t attempt_draw_ = 0;
    uint64_t corrupt_draw_ = 0;
    uint64_t bad_record_draw_ = 0;
    uint64_t reduce_draw_ = 0;
};

}  // namespace approxhadoop::ft

#endif  // APPROXHADOOP_FT_FAULT_INJECTOR_H_
