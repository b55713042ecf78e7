#ifndef APPROXHADOOP_SERVICE_JOB_SERVICE_H_
#define APPROXHADOOP_SERVICE_JOB_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/aggregation_registry.h"
#include "core/target_error_controller.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "service/accuracy_arbiter.h"
#include "service/arrival.h"
#include "service/job_queue.h"
#include "service/report.h"
#include "service/service_spec.h"
#include "sim/cluster.h"

namespace approxhadoop::service {

/**
 * Persistent multi-tenant job service: admits a stream of approximate
 * MapReduce jobs onto ONE shared simulated cluster and arbitrates its
 * slots between them.
 *
 * Pipeline per job: ArrivalGenerator (seeded Poisson over the shared
 * diurnal curve) -> JobQueue (priority classes, FIFO within class,
 * admission gated on free reduce slots) -> SlotArbiter (weighted
 * fair-share map-slot caps, enforced non-destructively at wave
 * boundaries) -> end-game speculation inside each job
 * (JobConfig::endgame_left_percent) -> AccuracyArbiter (queue pressure
 * widens low-priority target error bounds through
 * TargetErrorController::setTargetScale, restored when pressure
 * subsides).
 *
 * Determinism contract: the whole run is a pure function of the spec.
 * When exactly one job is active the service touches nothing — no slot
 * caps, no scheduler kicks — so an uncontended job's output, counters
 * and runtime are bit-identical to the same job run standalone
 * (pinned by test). Under contention, per-job conservation identities
 * and same-spec report byte-identity still hold.
 */
class JobService
{
  public:
    explicit JobService(const ServiceSpec& spec);

    /**
     * Bypasses the ArrivalGenerator and submits exactly @p arrivals
     * (must be in non-decreasing time order, workloads valid). Used by
     * the chaos oracle and tests to stage precise contention patterns.
     */
    JobService(const ServiceSpec& spec, std::vector<JobArrival> arrivals);

    ~JobService();

    /** Runs the full simulation; returns the per-tenant report. */
    ServiceReport run();

    /** The cluster, for post-run inspection in tests. */
    sim::Cluster& cluster() { return *cluster_; }

    /** Per-job outcomes in completion order, for tests (each carries
     *  its JobArrival for correlation). */
    struct JobOutcome
    {
        JobArrival arrival;
        bool completed = false;
        bool failed = false;
        /** Target-error scale in force when the job finished. */
        double final_target_scale = 1.0;
        /** True if the AccuracyArbiter ever widened this job's target. */
        bool ever_degraded = false;
        double admit_time = 0.0;
        double finish_time = 0.0;
        /** Completion - arrival (queue wait included). */
        double latency = 0.0;
        /** Achieved relative CI half-width of the binding key; < 0 when
         *  the job produced no bounded estimate. */
        double rel_ci_width = -1.0;
        mr::JobResult result;  ///< valid when completed
    };
    const std::vector<JobOutcome>& outcomes() const { return outcomes_; }

  private:
    enum class JobState {
        kPending,
        kQueued,
        kRunning,
        /** Preempted: parked at a quiesce point with its reduce slots
         *  released; resumes via maybeResume(). */
        kSuspended,
        kDone,
        kFailed
    };

    /** Everything the service owns for one submitted job. All kept
     *  alive until the service is destroyed: job events capture
     *  pointers into this struct. */
    struct ManagedJob
    {
        JobArrival arrival;
        const apps::AggregationWorkload* workload = nullptr;
        JobState state = JobState::kPending;

        std::unique_ptr<hdfs::BlockDataset> dataset;
        std::unique_ptr<hdfs::NameNode> namenode;
        /** As core::assembleJob built them; target is the controller
         *  whose bound the AccuracyArbiter widens. */
        std::unique_ptr<mr::JobController> controller;
        core::TargetErrorController* target = nullptr;
        std::unique_ptr<mr::Job> job;

        double admit_time = 0.0;
        double finish_time = 0.0;
        /** Scale currently applied to this job's controller. */
        double applied_scale = 1.0;
        bool ever_degraded = false;
        /** True once this job shared the cluster with another: only
         *  then may the service cap or kick it (uncontended purity). */
        bool saw_contention = false;
        /** Remaining-map estimate before start() builds the task set. */
        uint64_t initial_maps = 0;
        /** True once Job::start() has run (task set exists). */
        bool started = false;
        /** A requestSuspend() is in flight (quiescing by attrition). */
        bool preempt_pending = false;
        /** Admission was held by the defer gate at least once. */
        bool was_deferred = false;
    };

    void onArrival(uint64_t id);
    /** Admission + accuracy pressure + preemption + slot rebalance,
     *  invoked after every state change (arrival, completion, park). */
    void pump();
    void admit(uint64_t id);
    void rebalance();
    void applyAccuracyPressure();
    /** True when defer=1 holds @p front_id out of admission. */
    bool deferGateBlocks(uint64_t front_id) const;
    /** Suspends one victim so the queue front can admit (preempt=1). */
    void maybePreempt();
    /** requestSuspend() settled: the victim parked, or a racing
     *  map-phase/job completion cancelled the suspension. */
    void onSuspendSettled(uint64_t id, bool suspended);
    /** Un-parks suspended jobs while slots are free and no strictly
     *  more important job is still queued. */
    void maybeResume();
    void onJobCompletion(uint64_t id, bool failed,
                         const std::string& error);
    uint32_t freeReduceSlots() const;
    ServiceReport buildReport();

    ServiceSpec spec_;
    /** Explicit arrival list (tests/oracle); generated when empty. */
    std::vector<JobArrival> forced_arrivals_;
    bool use_forced_arrivals_ = false;
    std::unique_ptr<sim::Cluster> cluster_;
    AccuracyArbiter accuracy_;
    JobQueue queue_;
    std::vector<ManagedJob> jobs_;       ///< arrival order, stable ids
    std::vector<uint64_t> active_;       ///< running job ids, ascending
    std::vector<uint64_t> suspended_;    ///< parked job ids, park order
    std::vector<JobOutcome> outcomes_;   ///< completion order
    uint64_t peak_queue_depth_ = 0;
    uint64_t preempted_count_ = 0;
    uint64_t resumed_count_ = 0;
    uint64_t deferred_count_ = 0;
    bool ran_ = false;
};

}  // namespace approxhadoop::service

#endif  // APPROXHADOOP_SERVICE_JOB_SERVICE_H_
