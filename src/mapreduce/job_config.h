#ifndef APPROXHADOOP_MAPREDUCE_JOB_CONFIG_H_
#define APPROXHADOOP_MAPREDUCE_JOB_CONFIG_H_

#include <cstdint>
#include <string>

#include "ft/fault_plan.h"
#include "ft/recovery_policy.h"
#include "sim/cost_model.h"

namespace approxhadoop::mr {

/** Static configuration of one MapReduce job. */
struct JobConfig
{
    std::string name = "job";

    /**
     * Cluster-grammar label of the fleet this job runs on ("xeon10",
     * "atom60", "10xeon+20atom", ...). Informational: the Cluster object
     * itself is built by the caller; this string only flows into the
     * JSON job report's config section so a report names its fleet.
     */
    std::string cluster_spec = "xeon10";

    /** Number of reduce tasks (the paper runs one per server). */
    uint32_t num_reducers = 1;

    /** Map task cost model (per-item costs depend on the application). */
    sim::TaskCostModel map_cost;

    /** Reduce task cost model. */
    sim::ReduceCostModel reduce_cost;

    /** Enables speculative execution of straggler map tasks. */
    bool speculation = true;

    /**
     * A running task becomes speculation-eligible once its elapsed time
     * exceeds this multiple of the median completed-task duration.
     */
    double speculation_threshold = 1.3;

    /**
     * End-game speculation (the shuttle job_tracker "left_percent"
     * design): once the job's non-terminal maps drop to this percentage
     * of the total, any still-running map whose elapsed time exceeds the
     * mean completed-task duration gets a duplicate attempt — first
     * finish wins, the loser is cancelled through the normal kill path.
     * More aggressive than `speculation_threshold` (factor 1.0 vs 1.3)
     * and active even when `speculation` is off, because at the end of a
     * job a single straggler holds the whole makespan hostage.
     * 0 disables (the default: standalone behavior is unchanged).
     */
    double endgame_left_percent = 0.0;

    /**
     * When true, servers left with no work after map dropping transition
     * to ACPI S3 until the job finishes (the paper's energy experiments,
     * Figure 12).
     */
    bool s3_when_drained = false;

    /**
     * Multiplicative per-map-task overhead of the approximation
     * machinery. The paper measures <1% (WikiLength) to 12% (Project
     * Popularity) for the approximate version with no sampling/dropping;
     * the core layer sets this for approximation-enabled jobs.
     */
    double framework_overhead = 0.0;

    /** Root seed; all task-level randomness derives from it. */
    uint64_t seed = 42;

    /**
     * Faults to inject into this run (none by default). Failures are
     * scheduled in *simulated* time from (seed, fault_plan.seed), so a
     * faulty run is bit-identical across num_exec_threads settings.
     */
    ft::FaultPlan fault_plan;

    /** Retry backoff schedule and attempt limit for failed map tasks. */
    ft::RecoveryPolicy recovery;

    /**
     * What to do when a map task's attempt fails: re-run it (Hadoop
     * semantics), absorb it into the error bound as an extra dropped
     * task (valid because dropped and failed tasks are statistically
     * identical cluster-sample removals), or let the job's controller
     * decide per failure against the target error bound.
     */
    ft::FailureMode failure_mode = ft::FailureMode::kRetry;

    /**
     * Interval between task-attempt heartbeats to the JobTracker,
     * simulated milliseconds. Crash *detection* is heartbeat-based: a
     * crashed or partitioned attempt is only declared dead once
     * task_timeout_ms elapses after its last heartbeat, exactly like
     * real Hadoop's expiry tracker — there is no detection oracle.
     * <= 0 collapses to instantaneous detection (useful in unit tests).
     */
    double heartbeat_interval_ms = 1000.0;

    /**
     * Dead-task declaration timeout, simulated milliseconds since the
     * last received heartbeat (Hadoop's mapred.task.timeout; 600 s
     * there, scaled down to our ~10 s task durations). Lowering it
     * detects failures sooner at the cost of false positives on real
     * clusters; the bench sweep measures this time-vs-error knob.
     * <= 0 collapses to instantaneous detection.
     */
    double task_timeout_ms = 10000.0;

    /**
     * Checkpoint each reducer's incremental state every N delivered
     * chunks (0 disables periodic checkpoints). Only consulted when the
     * fault plan injects reduce crashes (`rcrash=P`): checkpointing
     * exists to bound replay after a reduce-attempt restart.
     */
    uint64_t reducer_checkpoint_interval = 8;

    /**
     * Scheduled `dcrash=` driver-kill events to skip because they were
     * already survived by a previous incarnation of this driver. Set by
     * the resume path from the journal's resume-marker count; 0 for a
     * fresh run.
     */
    uint32_t driver_crash_skip = 0;

    /**
     * When journaling (Job::setEpochSink), additionally seal an epoch
     * every N completed map tasks, between wave boundaries. 0 journals
     * at wave boundaries and job completion only (the default: long
     * waves then bound replay at one wave).
     */
    uint64_t journal_map_interval = 0;

    /**
     * Host worker threads executing the *real* CPU work of map tasks
     * (record synthesis, the map UDF, combining, partitioning). 1 runs
     * everything on the driver thread exactly as before; N > 1 overlaps
     * the work of map tasks that are concurrently in flight on the
     * simulated cluster. Results are bit-identical at every setting:
     * each task's computation is a pure function of (seed, task id,
     * sample), and output is merged in simulated-completion order.
     */
    uint32_t num_exec_threads = 1;
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_JOB_CONFIG_H_
