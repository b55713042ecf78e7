#ifndef APPROXHADOOP_MAPREDUCE_CONTROLLER_H_
#define APPROXHADOOP_MAPREDUCE_CONTROLLER_H_

#include <cstdint>

#include "mapreduce/types.h"

namespace approxhadoop::obs {
class TraceRecorder;
}  // namespace approxhadoop::obs

namespace approxhadoop::mr {

class Job;

/**
 * The JobTracker surface exposed to approximation controllers: query
 * task states and manipulate the not-yet-executed portion of the job.
 * This is the seam between the generic runtime (this module) and the
 * approximation policies (src/core/).
 */
class JobHandle
{
  public:
    explicit JobHandle(Job& job) : job_(job) {}

    /** Number of map tasks in the job (the population size N). */
    uint64_t numMapTasks() const;

    uint64_t pendingMaps() const;  ///< pending + held + awaiting retry
    uint64_t runningMaps() const;
    uint64_t completedMaps() const;
    uint64_t droppedMaps() const;  ///< dropped + killed + absorbed

    /** Task record (valid for ids in [0, numMapTasks())). */
    const MapTaskInfo& mapTask(uint64_t task_id) const;

    /** Current simulated time. */
    double now() const;

    /** Map slots across the cluster (the wave width). */
    int totalMapSlots() const;

    /**
     * Sets the input-data sampling ratio for tasks that have not started
     * yet. Running tasks keep the ratio they started with.
     */
    void setPendingSamplingRatio(double ratio);

    /**
     * Drops up to @p count randomly chosen pending tasks.
     * @return the number actually dropped
     */
    uint64_t dropPendingMaps(uint64_t count);

    /**
     * Terminates the job's Map phase: kills running tasks (their output
     * is discarded) and drops all pending/held tasks. Reduce tasks then
     * finalize with the data already delivered.
     */
    void dropAllRemaining();

    /**
     * Withholds all pending tasks except @p keep from the scheduler;
     * used to stage a pilot wave (paper Section 4.4).
     */
    void holdPendingExcept(uint64_t keep);

    /**
     * Releases tasks withheld by holdPendingExcept(). Does not schedule
     * them by itself: callers adjust sampling ratios and drop counts
     * first, then call kickScheduler().
     */
    void releaseHeld();

    /** Fills free slots with pending tasks (after releaseHeld etc.). */
    void kickScheduler();

    /** T: data items in the whole input. */
    uint64_t totalItems() const;

    /** Sampling ratio that not-yet-started tasks will run at. */
    double pendingSamplingRatio() const;

    /**
     * Expected delay between an attempt crashing and the JobTracker
     * declaring it dead, seconds: the configured task timeout plus half
     * a heartbeat interval (the mean residual until the last heartbeat).
     * 0 when detection is instantaneous (task_timeout_ms <= 0).
     * Controllers fold this into end-of-job time predictions — a retry
     * cannot begin before the failure is even detected.
     */
    double failureDetectionDelaySeconds() const;

    /**
     * Observed fraction of map attempts that failed so far:
     * failed / (failed + completed); 0 before any failure. The
     * target-error controller uses it to extrapolate retry overhead.
     */
    double attemptFailureRate() const;

    /** First-retry backoff delay from the job's RecoveryPolicy. */
    double typicalRetryBackoffSeconds() const;

    /**
     * The job's trace recorder, or null when no observability sink is
     * attached. Controllers record their planning decisions here
     * (obs::ReplanRecord); they must not let the recorder influence any
     * decision — observability is strictly additive.
     */
    obs::TraceRecorder* trace() const;

  private:
    Job& job_;
};

/** Verdict of a failure-handling decision (FailureMode::kAuto). */
enum class FailureAction {
    kRetry,   ///< re-execute the task after backoff
    kAbsorb,  ///< reclassify the task as dropped; widen the bound
};

/**
 * Observer/policy hook invoked by the runtime at scheduling milestones.
 * The ApproxHadoop controllers (ratio-based dropping, target-error
 * optimization, pilot waves) are implemented as JobControllers.
 */
class JobController
{
  public:
    virtual ~JobController() = default;

    /** Called once before any task is scheduled. */
    virtual void onJobStart(JobHandle& /*job*/) {}

    /**
     * Called after a map task completes and its output has been delivered
     * to the (incremental) reduce tasks, so error estimates computed here
     * already include the new data.
     */
    virtual void onMapComplete(JobHandle& /*job*/,
                               const MapTaskInfo& /*task*/)
    {
    }

    /** Called when every task of wave @p wave has reached a terminal
     *  state. */
    virtual void onWaveComplete(JobHandle& /*job*/, int /*wave*/) {}

    /**
     * Called in FailureMode::kAuto when every attempt of a map task has
     * failed, to decide between re-running the task and absorbing it
     * into the error bound. At call time the task is counted neither as
     * running nor as pending. Approximation controllers override this
     * with the paper-aware rule (absorb iff the widened confidence
     * interval still meets the target); the default is stock-Hadoop
     * retry.
     */
    virtual FailureAction
    onMapFailure(JobHandle& /*job*/, const MapTaskInfo& /*task*/,
                 uint32_t /*failed_attempts*/)
    {
        return FailureAction::kRetry;
    }

    /** Called when all map tasks are terminal, before reducers finalize. */
    virtual void onMapPhaseDone(JobHandle& /*job*/) {}

    /**
     * Opaque snapshot of the controller's replan state for the job
     * journal, captured at every epoch. A resumed run re-derives its
     * decisions by re-execution; the journal *verifies* the re-derived
     * state matches the sealed blob byte-for-byte. Must be a pure
     * observation (never mutate controller state). Default: stateless.
     */
    virtual std::string journalState() const { return ""; }

    /** True once a target-error controller met its bound and dropped
     *  the remaining maps. Default: no target. */
    virtual bool targetAchieved() const { return false; }
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_CONTROLLER_H_
