#ifndef APPROXHADOOP_MAPREDUCE_JOB_H_
#define APPROXHADOOP_MAPREDUCE_JOB_H_

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ft/fault_injector.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "journal/sink.h"
#include "mapreduce/combiner.h"
#include "mapreduce/controller.h"
#include "mapreduce/counters.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_config.h"
#include "mapreduce/mapper.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/reducer.h"
#include "mapreduce/types.h"
#include "sim/cluster.h"

namespace approxhadoop::obs {
struct Observability;
}  // namespace approxhadoop::obs

namespace approxhadoop::mr {

/** Everything a job run produces. */
struct JobResult
{
    /** Concatenated output of all reduce tasks. */
    std::vector<OutputRecord> output;
    /** Wall-clock job runtime in simulated seconds. */
    double runtime = 0.0;
    /** Cluster energy consumed during the job, watt-hours. */
    double energy_wh = 0.0;
    Counters counters;
    /**
     * Full per-task execution log (the Hadoop job-history analogue):
     * states, wave indices, servers, timings. Useful for utilization
     * analysis and for verifying scheduling behaviour in tests.
     */
    std::vector<MapTaskInfo> tasks;

    /**
     * Mean number of map tasks executing concurrently over the job
     * (completed-task busy time divided by runtime).
     */
    double averageMapConcurrency() const;

    /** Finds a record by key (nullptr when absent). */
    const OutputRecord* find(const std::string& key) const;

    /** Output indexed by key. */
    std::map<std::string, OutputRecord> toMap() const;

    /**
     * Largest actual relative deviation from a precise reference, over
     * keys present in the reference. Used by every accuracy experiment.
     */
    double maxRelativeErrorAgainst(const JobResult& precise) const;

    /**
     * Actual relative error and CI, reported the way the paper does
     * (Section 5.1): for the key with the maximum *predicted absolute
     * error*. Rare keys have huge relative but tiny absolute errors, so
     * this matches the paper's headline numbers while
     * maxRelativeErrorAgainst() exposes the rare-key story.
     */
    struct HeadlineError
    {
        std::string key;
        /** |approx - precise| / |precise| for that key. */
        double actual_relative_error = 0.0;
        /** CI half-width / |estimate| for that key. */
        double bound_relative_error = 0.0;
    };
    HeadlineError headlineErrorAgainst(const JobResult& precise) const;
};

/**
 * Thrown by Job::run() when the job fails after exhausting recovery
 * (e.g. a map task out of attempts in FailureMode::kRetry). Carries the
 * counters at failure time so callers — approxrun in particular — can
 * report what faults led up to the abort.
 */
class JobFailedError : public std::runtime_error
{
  public:
    explicit JobFailedError(const std::string& what)
        : std::runtime_error(what)
    {
    }

    /** Counters after the job's teardown: every task ended, so they
     *  satisfy Counters::conservationViolation(). */
    Counters counters;
};

/**
 * One MapReduce job execution: the JobTracker, TaskTracker slots, shuffle,
 * and barrier-less reduce, all driven by the discrete-event cluster.
 *
 * Responsibilities mirroring the paper's modified Hadoop (Section 4.3):
 *  - map tasks execute in *random order* so that dropped tasks form a
 *    uniform random cluster sample;
 *  - locality-aware slot assignment against the NameNode's replica map;
 *  - speculative re-execution of stragglers;
 *  - kill/drop support with a distinct terminal state so job completion
 *    is detected despite maps never finishing;
 *  - fault tolerance (src/ft/): a FaultPlan injects attempt crashes,
 *    stragglers, and server failures in simulated time; failed tasks are
 *    retried with capped exponential backoff, absorbed into the error
 *    bound as extra dropped clusters, or arbitrated per failure by the
 *    approximation controller (JobConfig::failure_mode);
 *  - incremental delivery of map output to reduce tasks, enabling
 *    mid-job error estimation by approximation controllers.
 *
 * User map/reduce code runs for real inside completion events; only task
 * *durations* are simulated (see DESIGN.md, "Simulated time, real
 * statistics").
 *
 * When JobConfig::num_exec_threads > 1 the real CPU work of in-flight map
 * tasks executes concurrently on a ThreadPool while the driver thread
 * keeps sole ownership of simulated time, scheduling, the job Rng, the
 * counters, and the reducers. A task's computation is submitted once an
 * attempt that will finish has started (its sample and flags are frozen
 * by then) and a bounded run-ahead window has room, earliest scheduled
 * finish first, and its output is merged when its completion *event*
 * fires (while a worker still computes that output, the driver runs
 * queued computations itself), so the shuffle order — and therefore
 * every estimate, confidence interval, and controller decision — is
 * bit-identical to serial execution (see DESIGN.md, "Parallel wave
 * execution").
 */
class Job
{
  public:
    using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
    using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

    /**
     * @param cluster  simulated cluster to run on
     * @param dataset  input data (one map task per block)
     * @param namenode block location service (shared across jobs)
     * @param config   job configuration
     */
    Job(sim::Cluster& cluster, const hdfs::BlockDataset& dataset,
        hdfs::NameNode& namenode, JobConfig config);
    ~Job();

    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

    /** Sets the factory creating one Mapper per map task. @pre not run */
    void setMapperFactory(MapperFactory factory);

    /** Sets the factory creating one Reducer per partition. @pre not run */
    void setReducerFactory(ReducerFactory factory);

    /** Overrides the input format (default: TextInputFormat). */
    void setInputFormat(std::shared_ptr<const InputFormat> format);

    /**
     * Installs a map-side combiner (optional). See combiner.h for the
     * soundness constraint with approximation-enabled reducers.
     */
    void setCombiner(std::shared_ptr<Combiner> combiner);

    /** Overrides the partitioner (default: HashPartitioner). */
    void setPartitioner(std::shared_ptr<const Partitioner> partitioner);

    /** Installs an approximation controller (optional, not owned). */
    void setController(JobController* controller);

    /**
     * Attaches an observability sink (optional, not owned; must outlive
     * run()). The job then records lifecycle events into its
     * TraceRecorder and publishes per-wave metric snapshots into its
     * MetricsRegistry. Strictly additive: attaching one never changes
     * the simulated timeline or the results.
     */
    void setObservability(obs::Observability* obs);

    /**
     * Attaches a journal epoch sink (optional, not owned; must outlive
     * run()). The job then seals an epoch — counters, RNG digest,
     * reducer checkpoints, controller replan state, delivered-output
     * digests — at every wave boundary, every
     * JobConfig::journal_map_interval completed maps, and at job
     * completion. Capture is a pure observation: attaching a sink never
     * changes the simulated timeline or the results. @pre not run
     */
    void setEpochSink(journal::EpochSink* sink);

    /**
     * Sets the initial sampling ratio for map tasks (controllers may
     * change it for not-yet-started tasks while the job runs).
     */
    void setInitialSamplingRatio(double ratio);

    /**
     * Sets the initial fraction of map tasks that run the user-defined
     * approximate map variant (paper's third mechanism).
     */
    void setInitialApproximateFraction(double fraction);

    /**
     * Runs the job to completion and returns its results.
     * @throws JobFailedError once the event queue drains, when a task
     *         ran out of attempts in FailureMode::kRetry
     */
    JobResult run();

    // --- service-mode surface (src/service/) -----------------------------
    //
    // A JobService drives many jobs on one shared cluster/event queue:
    // it calls start() on each admitted job, pumps the queue itself, and
    // learns of completion through the handler instead of blocking in
    // run(). run() is start() + pump-to-empty + collect (or throw
    // JobFailedError), so a job ends through the same paths either way.

    /** Called when the job reaches a terminal state. @p failed is true
     *  when recovery was exhausted (retry mode), with the message run()
     *  would throw as JobFailedError. */
    using CompletionHandler =
        std::function<void(bool failed, const std::string& error)>;

    /** Installs the completion handler (service mode). @pre not run */
    void setCompletionHandler(CompletionHandler handler);

    /**
     * Schedules the job onto the cluster without running the event
     * queue: builds tasks, places reducers, arms fault-plan events, and
     * fills the initial wave. The caller then drives
     * cluster().events() and must keep this Job alive until done().
     */
    void start();

    /** Assembles the result after done(); resets the worker pool. */
    JobResult collectResult();

    /** True once the job reached a terminal state (success or failure). */
    bool done() const { return job_done_ || job_failed_; }

    // --- suspend / resume (preemption-by-checkpoint) ------------------
    //
    // A JobService preempts a low-priority tenant by suspending it at a
    // quiesce point and resuming it later on the same cluster: the job
    // stops taking map slots, drains by attrition (running attempts and
    // retry backoffs finish through their normal paths), releases its
    // reduce slots, and parks with all in-memory state — reducer
    // aggregates, task states, the shared RNG — intact. Only valid
    // while the map phase is active and the plan injects no reduce
    // crashes (reduce_ft_ holds reduce slots hostage to replay).

    /** Called once the suspend request settles: @p suspended is true
     *  when the job parked, false when it finished (or failed) first —
     *  a racing completion cancels the suspension. */
    using SuspendHandler = std::function<void(bool suspended)>;

    /**
     * Asks the job to quiesce and park. Asynchronous: the scheduler
     * stops granting the job slots immediately, and @p handler fires
     * (via a zero-delay event) once the last in-flight attempt and
     * retry waiter settles. @pre started, map phase active, not
     * already suspending/suspended, no rcrash fault injection.
     */
    void requestSuspend(SuspendHandler handler);

    /**
     * Un-parks a suspended job: re-acquires reduce slots (placement is
     * recomputed — the fleet may have changed while parked), then kicks
     * the scheduler. The job continues exactly where it quiesced.
     */
    void resumeSuspended();

    bool suspended() const { return suspended_; }
    bool suspendPending() const { return suspend_pending_; }

    /** True when requestSuspend() would be accepted right now: started,
     *  map phase active, not already suspending/suspended, and no
     *  reduce-crash injection. */
    bool canSuspend() const
    {
        return started_ && !map_phase_done_ && !job_done_ &&
               !job_failed_ && !suspend_pending_ && !suspended_ &&
               !reduce_ft_;
    }

    /**
     * Caps the map slots this job may hold concurrently (default:
     * unlimited). Enforcement is non-destructive — lowering the cap
     * never kills running attempts; usage shrinks by attrition as
     * attempts complete, i.e. the job yields at wave boundaries, which
     * is what keeps its task schedule (and results) deterministic.
     * Raising the cap takes effect at the next scheduler kick.
     */
    void setMapSlotLimit(int limit);
    int mapSlotLimit() const { return map_slot_limit_; }
    /** Map slots this job currently holds. */
    uint64_t heldMapSlots() const { return held_map_slots_; }
    /** Maps not yet in a terminal state (pending+held+retry+running). */
    uint64_t remainingMaps() const
    {
        return pending_count_ + held_count_ + retry_wait_count_ +
               running_count_;
    }
    const Counters& counters() const { return counters_; }

    const JobConfig& config() const { return config_; }

  private:
    friend class JobHandle;

    struct Attempt
    {
        uint32_t server = 0;
        bool local = false;
        sim::EventQueue::EventId event = 0;
        sim::SimTime start = 0.0;
        sim::TaskCostModel::Sample cost;
        bool done = false;
        /** True when the attempt crashed (fault injection). */
        bool failed = false;
        /**
         * True once the attempt silently died but the JobTracker has not
         * declared it dead yet: its heartbeats stopped, its slot is still
         * held, and `event` is the pending timeout-expiry event.
         */
        bool crashed = false;
        /** When the silent crash happened (valid while `crashed`). */
        sim::SimTime crashed_at = 0.0;
    };

    struct TaskExec
    {
        std::vector<uint64_t> sample;  ///< item indices to process
        std::vector<Attempt> attempts;
        /** Pending backoff-expiry event while in kAwaitingRetry. */
        sim::EventQueue::EventId retry_event = 0;
        /** Guards against double shuffle delivery (see deliverChunks). */
        bool delivered = false;
        /**
         * Partitioned map output being computed by the thread pool
         * (parallel mode only; invalid in serial mode). Submitted once
         * an attempt that will finish (not crash) has started and the
         * run-ahead window has room (see fillComputeWindow), consumed
         * when the winning attempt's completion event fires — in
         * simulated-time order, so the merge into the reducers is
         * deterministic regardless of which worker thread finished
         * first. A task that completes before its turn in the window
         * computes inline. Killed, dropped, and absorbed tasks cancel
         * theirs unconsumed (re-attempts reuse the same handle: the
         * computation is a pure function of the frozen sample, so the
         * simulated crash does not invalidate it).
         */
        TaskHandle<std::vector<MapOutputChunk>> pending_output;
        /**
         * Shuffle fetches issued so far per reduce partition (corrupt
         * fetches included). Indexes the injector's pure corruption
         * stream; advanced only on the driver thread in simulated order,
         * so refetch decisions are thread-count independent.
         */
        std::vector<uint64_t> fetch_rounds;
    };

    /** Recovery bookkeeping for one reduce task (active under rcrash). */
    struct ReduceExec
    {
        /** Current attempt index (0 = first execution). */
        uint64_t attempt = 0;
        /** Chunks consumed since job start (checkpoint + replay basis). */
        uint64_t delivered = 0;
        /** Absolute delivered-sequence number at which the current
         *  attempt crashes; 0 = no crash pending. */
        uint64_t crash_at = 0;
        /** Delivered-sequence number covered by `state`. */
        uint64_t checkpointed = 0;
        /** Whether the reducer supports checkpoint()/restore(). */
        bool supported = false;
        /** Last checkpoint blob (pristine-state blob before any). */
        std::string state;
        /** The reducer image `state` copies (see syncCheckpoint). */
        journal::ImageMark synced;
        /** Delivered-but-uncheckpointed chunks, in delivery order —
         *  the replay source after a restart. */
        std::vector<MapOutputChunk> retained;
    };

    // --- scheduling ---
    void buildTasks();
    void placeReducers();
    /** Round-robin reduce-slot placement (fills reducer_servers_);
     *  shared by placeReducers() and resumeSuspended(). */
    void acquireReducerSlots();
    /** Returns every reduce slot (parking and failJob). */
    void releaseReducerSlots();
    void rebuildQueues();
    void scheduleLoop();
    /** Next pending task local to @p server; -1 if none. */
    int64_t nextLocalTaskForServer(uint32_t server);
    /** Next pending task from the global queue; -1 if none. */
    int64_t nextGlobalTask(uint32_t server, bool& local);
    void startAttempt(uint64_t task_id, uint32_t server, bool local);
    void onAttemptFinish(uint64_t task_id, size_t attempt_index);
    void maybeSpeculate();
    /** True while the job is under its external map-slot cap. A
     *  suspending/suspended job has no budget at all — it quiesces by
     *  attrition, exactly like a cap lowered to zero. */
    bool slotBudgetLeft() const
    {
        return !suspend_pending_ && !suspended_ && map_slot_limit_ > 0 &&
               held_map_slots_ < static_cast<uint64_t>(map_slot_limit_);
    }
    /** Frees one map slot held by @p attempt (single release site). */
    void releaseAttemptSlot(const Attempt& attempt);
    /** Launches a duplicate attempt for @p task (first finish wins);
     *  false when no active server has a free slot. */
    bool speculateTask(uint64_t task_id, bool endgame);

    // --- failure handling (src/ft/ wiring) ---
    /**
     * When the JobTracker declares dead an attempt that stopped
     * heartbeating at @p crash_time: the last heartbeat it received,
     * plus the task timeout. Collapses to @p crash_time when
     * task_timeout_ms <= 0 (oracle detection, unit-test mode).
     */
    sim::SimTime detectionTime(sim::SimTime attempt_start,
                               sim::SimTime crash_time) const;
    /** Silent attempt death: heartbeats stop, the slot stays held, and
     *  a timeout-expiry event is scheduled. */
    void onAttemptCrashed(uint64_t task_id, size_t attempt_index);
    /** Timeout expiry: the JobTracker finally declares the attempt
     *  dead and runs the failure path. */
    void onAttemptDeclaredDead(uint64_t task_id, size_t attempt_index);
    /** Timeout expiry for an attempt lost to a server crash: resolve
     *  the orphaned task unless a twin is still alive. */
    void onOrphanDetected(uint64_t task_id, sim::SimTime crashed_at);
    /** Counts and traces the heartbeat timeout that declared an attempt
     *  crashed at @p crashed_at dead, if it waited at all. */
    void noteHeartbeatTimeout(uint64_t task_id, size_t attempt_index,
                              sim::SimTime crashed_at);
    /**
     * Ends one live attempt: cancels its event, frees its slot, marks it
     * done, charges its time as wasted, and traces @p outcome.
     */
    void endAttempt(uint64_t task_id, size_t attempt_index,
                    const char* outcome);
    /** Marks one attempt as crashed and frees its slot. */
    void failAttempt(uint64_t task_id, size_t attempt_index);
    /** Attempt declared dead: fail it, then resolve if no twin remains. */
    void onAttemptFailed(uint64_t task_id, size_t attempt_index);
    /** Retry-vs-absorb decision once every attempt of a task failed. */
    void resolveFailure(uint64_t task_id);
    /** Backoff expiry: puts the task back on the pending queues. */
    void requeueTask(uint64_t task_id);
    /**
     * Terminal failure: kills @p failing_task (already out of the running
     * count with all its attempts done), tears the rest down through
     * dropAllRemaining(), returns the reduce slots, and notifies the
     * completion handler. The event queue keeps running — other tenants'
     * jobs share it — and run() throws JobFailedError once it drains.
     */
    void failJob(uint64_t failing_task, const std::string& message);
    /** Job-end bookkeeping shared by success and failure: end time,
     *  pending dcrash events cancelled, trace closed. */
    void endJob();
    /** Invokes the completion handler once (if installed). */
    void notifyCompletion();
    /** Scheduled whole-server crash from the fault plan. */
    void onServerCrash(ft::FaultPlan::ServerCrash crash);
    /**
     * Crashes one server: orphans its in-flight map attempts (each gets
     * its own heartbeat-based detection event, so a storm of
     * simultaneous losses is never double-counted — every attempt lives
     * on exactly one server), then fails the node. @p leave_fleet makes
     * the loss permanent (the server retires: 0 W, out of the slot
     * totals); otherwise a repair is scheduled after @p down_for >= 0.
     */
    void crashOneServer(uint32_t server, double down_for,
                        bool leave_fleet);
    /**
     * Correlated revocation storm: kills min(count, alive-1) servers in
     * one instant. Victim choice is a pure function of (job seed, plan
     * seed, storm index) — it never draws from rng_, so a plan without
     * storms is bit-identical to pre-elasticity runs.
     */
    void onRevocationStorm(ft::FaultPlan::Revocation storm,
                           size_t storm_index);
    /** Active and low-power server ids, ascending; empty when only one
     *  is left, which storms and drains never take. */
    std::vector<uint32_t> shrinkableServers() const;
    /** Mid-job scale-out: new servers join and the scheduler fills
     *  their (remote-only) slots immediately. */
    void onScaleOut(ft::FaultPlan::ScaleOut add);
    /** Graceful decommission: the newest min(count, alive-1) servers
     *  begin draining (LIFO scale-in). */
    void onDrain(ft::FaultPlan::Drain drain);
    /** Retires drained servers whose slots have all emptied. */
    void maybeRetireDrained();

    // --- data path ---
    /**
     * Runs the task's real CPU work — record materialization, the map
     * UDF, map-side combine, partitioning. Pure function of the task's
     * pre-selected sample and seed-derived randomness, so it is safe to
     * run on any thread at any time after the sample is fixed.
     */
    std::vector<MapOutputChunk>
    computeMapOutput(uint64_t task_id, uint64_t items_total,
                     bool approximate, std::unique_ptr<Mapper> mapper) const;
    /**
     * Submits queued computations, earliest scheduled finish first, while
     * fewer than kRunAheadPerThread outputs per worker are submitted but
     * not yet consumed or released.
     */
    void fillComputeWindow();
    /** Cancels the unconsumed output of a task that ended without
     *  delivering (killed, absorbed, dropped) and frees its window slot;
     *  a computation no thread has started yet is never started. */
    void releaseMapOutput(uint64_t task_id);
    /** Submits computeMapOutput() for @p task_id to the thread pool. */
    void launchMapCompute(uint64_t task_id);
    /**
     * Feeds one completed task's chunks to the reducers (driver thread).
     * Asserts the producing task actually completed and delivers at most
     * once, so partial output of killed/failed attempts can never leak
     * into the shuffle merge.
     */
    void deliverChunks(uint64_t task_id,
                       std::vector<MapOutputChunk>&& chunks);
    /**
     * Reduce-side fetch of a completed task's chunks with checksum
     * verification. A corrupt fetch is refetched from the retained map
     * output up to RecoveryPolicy::shuffle_fetch_retries times; returns
     * false when some partition's chunk stayed corrupt — the map output
     * is lost and the task re-executes or is absorbed.
     */
    bool fetchVerified(uint64_t task_id,
                       std::vector<MapOutputChunk>& chunks);

    // --- reduce-side recovery ---
    /** Derives the current reduce attempt's crash point (if any) from
     *  the injector; 0 disarms. */
    void armReduceCrash(uint32_t reducer);
    /** Brings reduce_exec_[r].state up to reducer r's checkpoint,
     *  copying only what changed since the last sync when its image is
     *  versioned. Returns false when checkpointing is unsupported. */
    bool syncCheckpoint(uint32_t reducer);
    /** Crashed reduce attempt: restore the last checkpoint and replay
     *  the delivered-but-uncheckpointed chunks in delivery order. */
    void restartReducer(uint32_t reducer);

    // --- task endings ---
    /**
     * The one transition into a terminal state: stamps the finish time,
     * releases any unconsumed map output, and bumps the terminal count,
     * the matching maps_* counter and — except for kDropped — the
     * task's wave. The caller has already taken the task out of its
     * pending/held/running/retry count.
     */
    void finishTask(uint64_t task_id, TaskState state);
    /**
     * Force-ends a non-terminal task: pending and held tasks are dropped;
     * running tasks (every live attempt ended) and retry waiters (backoff
     * cancelled) are killed. No-op on a terminal task.
     */
    void cancelTask(uint64_t task_id);

    // --- controller surface (via JobHandle) ---
    uint64_t dropPendingMaps(uint64_t count);
    void dropAllRemaining();
    void holdPendingExcept(uint64_t keep);
    void releaseHeld();

    // --- observability (no-ops when obs_ is null) ---
    /** Publishes scheduler/counter state and snapshots it as @p wave. */
    void obsWaveSnapshot(int wave);

    // --- journaling (no-ops when epoch_sink_ is null) ---
    /** Seals one epoch of driver state into the sink. @p wave is the
     *  completed wave for Epoch::kWave captures, -1 otherwise. */
    void captureEpoch(uint32_t kind, int wave);

    // --- suspend / resume ---
    /** Quiesce detector: when the last attempt/retry waiter settled,
     *  schedules a zero-delay finishSuspendNow() (deferred so the
     *  map-completion path can still rule the phase done and cancel). */
    void maybeFinishSuspend();
    /** Actually parks the job: releases reduce slots, fires the
     *  suspend handler. No-op if the suspension was cancelled. */
    void finishSuspendNow();
    /** Resolves a pending suspend without parking (job finished or
     *  failed first); notifies the handler with suspended=false. */
    void cancelPendingSuspend();

    // --- completion ---
    void checkWaveCompletion(int wave);
    void checkMapPhaseDone();
    void maybeSleepServers();
    void finishReducers();
    void onReducerDone(uint32_t reducer);

    sim::Cluster& cluster_;
    const hdfs::BlockDataset& dataset_;
    hdfs::NameNode& namenode_;
    JobConfig config_;

    MapperFactory mapper_factory_;
    ReducerFactory reducer_factory_;
    std::shared_ptr<const InputFormat> input_format_;
    std::shared_ptr<const Partitioner> partitioner_;
    std::shared_ptr<Combiner> combiner_;
    JobController* controller_ = nullptr;
    obs::Observability* obs_ = nullptr;
    journal::EpochSink* epoch_sink_ = nullptr;

    Rng rng_;
    /**
     * The first raw draw of Rng(config_.seed), taken once: the per-task
     * streams (sample, map context, chunk corruption) are
     * Rng::derived(seed_draw_, stream), i.e. Rng(config_.seed).derive().
     */
    uint64_t seed_draw_;
    uint64_t first_block_ = 0;
    ft::FaultInjector injector_;

    /**
     * Workers executing real map-task CPU work while the driver thread
     * runs the discrete-event simulation (null when num_exec_threads <= 1).
     * Created for the duration of run() only.
     */
    std::unique_ptr<ThreadPool> pool_;
    /**
     * The run-ahead window: at most this many outputs per pool worker are
     * submitted but not yet consumed. Eight keep the workers busy while
     * the driver replans on the approximate path, where two left them
     * idle and four still waited on the pipeline; the cost is a few
     * more finished outputs held in memory. A fixed constant, not a
     * setting (DESIGN.md, "Run-ahead window").
     */
    static constexpr size_t kRunAheadPerThread = 8;
    /** Outputs submitted to pool_ and not yet consumed or released. */
    size_t outputs_in_flight_ = 0;
    /** Tasks waiting for window room, keyed by the scheduled finish of
     *  an attempt that will finish (earliest on top, ties by task id). */
    std::priority_queue<std::pair<sim::SimTime, uint64_t>,
                        std::vector<std::pair<sim::SimTime, uint64_t>>,
                        std::greater<>>
        deferred_compute_;

    std::vector<MapTaskInfo> tasks_;
    std::vector<TaskExec> exec_;
    /** Randomized task execution order (fixed at job start). */
    std::vector<uint64_t> task_order_;
    std::deque<uint64_t> pending_order_;
    std::vector<std::deque<uint64_t>> local_pending_;
    uint64_t pending_count_ = 0;
    uint64_t held_count_ = 0;
    uint64_t retry_wait_count_ = 0;
    uint64_t running_count_ = 0;
    uint64_t terminal_count_ = 0;
    uint64_t started_count_ = 0;

    double pending_sampling_ratio_ = 1.0;
    double pending_approx_fraction_ = 0.0;

    /** started/terminal task counts per wave index. */
    std::map<int, std::pair<uint64_t, uint64_t>> wave_counts_;
    int max_wave_ = -1;

    /** Completed map durations, for the speculation threshold. */
    double completed_duration_sum_ = 0.0;
    uint64_t completed_duration_count_ = 0;

    // Reduce side.
    std::vector<std::unique_ptr<Reducer>> reducers_;
    std::vector<uint32_t> reducer_servers_;
    std::vector<uint64_t> reducer_records_;
    std::vector<ReduceExec> reduce_exec_;
    /** True when the plan injects reduce crashes (chunk retention on). */
    bool reduce_ft_ = false;
    uint32_t reducers_done_ = 0;
    bool map_phase_done_ = false;
    bool job_done_ = false;
    bool started_ = false;

    // Journaling state (inert without an epoch sink).
    /** Next non-marker epoch index (the job's own monotone counter). */
    uint64_t epoch_index_ = 0;
    /** (task_id, output digest) delivered since the last epoch. */
    std::vector<std::pair<uint64_t, uint64_t>> epoch_delivered_;
    /** Completed maps since the last interval epoch. */
    uint64_t maps_since_epoch_ = 0;
    /** Per reducer: where a reducer without a versioned image writes
     *  its epoch snapshot (see Reducer::snapshot). */
    std::vector<std::string> epoch_scratch_;
    /** dcrash events fired so far (skip cursor for resumed runs). */
    uint32_t driver_crashes_fired_ = 0;
    /** Pending dcrash events, cancelled at job completion so a kill
     *  time beyond the job's end cannot extend the simulation (and its
     *  energy integral) past the moment the job finishes. */
    std::vector<sim::EventQueue::EventId> driver_crash_events_;

    // Suspend/resume state (inert in standalone runs).
    bool suspend_pending_ = false;
    bool suspended_ = false;
    /** A zero-delay finishSuspendNow() event is in flight. */
    bool park_event_pending_ = false;
    SuspendHandler suspend_handler_;

    // Service-mode state (inert in standalone runs).
    CompletionHandler completion_handler_;
    bool job_failed_ = false;
    std::string failure_message_;
    /** External map-slot cap (INT_MAX = standalone, unconstrained). */
    int map_slot_limit_ = std::numeric_limits<int>::max();
    uint64_t held_map_slots_ = 0;

    sim::SimTime start_time_ = 0.0;
    sim::SimTime end_time_ = 0.0;
    double start_energy_wh_ = 0.0;

    Counters counters_;
    std::vector<OutputRecord> output_;
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_JOB_H_
