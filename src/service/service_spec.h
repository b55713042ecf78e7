#ifndef APPROXHADOOP_SERVICE_SERVICE_SPEC_H_
#define APPROXHADOOP_SERVICE_SERVICE_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ft/fault_plan.h"

namespace approxhadoop::service {

/**
 * One tenant class of the multi-tenant service: an admission priority,
 * a fair-share weight for map-slot arbitration, and an optional latency
 * SLO used for reporting. Lower `priority` is more important; the
 * highest class (priority 0) is never accuracy-degraded by the
 * AccuracyArbiter.
 */
struct TenantClass
{
    std::string name;

    /** Admission class; 0 = highest. Jobs admit in (priority, FIFO)
     *  order. */
    uint32_t priority = 0;

    /** Weight for the SlotArbiter's weighted fair share (> 0). */
    double weight = 1.0;

    /** Share of the overall arrival stream routed to this tenant. */
    double arrival_weight = 1.0;

    /** p99 latency SLO in simulated seconds (0 = none; reporting
     *  only — the service never drops jobs to meet it). */
    double slo_seconds = 0.0;
};

/**
 * Full configuration of one service simulation: tenant classes, the
 * arrival process, the per-job template, and the arbitration policy.
 * Built either directly (tests) or from the approxsvc CLI's compact
 * `key=value,...` spec string via parseServiceSpec().
 */
struct ServiceSpec
{
    std::vector<TenantClass> tenants;

    /**
     * Aggregate mean arrival rate, jobs per simulated second, at
     * intensity 1.0. Modulated by the shared diurnal/weekly curve
     * (workloads::weeklyIntensity); the arrival window spans exactly
     * one week of the curve regardless of `duration`.
     */
    double arrival_rate = 0.02;

    /** Arrival window [0, duration) in simulated seconds. Jobs already
     *  admitted or queued at the end of the window still run to
     *  completion. */
    double duration = 600.0;

    /** Root seed for the arrival process and all per-job seeds. */
    uint64_t seed = 42;

    // --- per-job template ---

    /** Dataset shape for every generated job. */
    uint64_t blocks = 24;
    uint64_t items = 16;
    uint32_t reducers = 1;

    /** Target relative error each job's TargetErrorController aims
     *  for (before any accuracy degradation). */
    double target_rel_error = 0.05;

    /** End-game speculation threshold passed to every job
     *  (JobConfig::endgame_left_percent); 0 disables. */
    double endgame_left_percent = 25.0;

    /**
     * Workload names drawn (uniformly) for the job mix; empty = every
     * aggregation workload in the registry.
     */
    std::vector<std::string> workloads;

    // --- accuracy arbitration ---

    /** Queue depth at which the AccuracyArbiter starts widening
     *  low-priority targets; 0 disables degradation entirely. */
    uint64_t pressure_threshold = 3;

    /** Multiplicative target widening per threshold of queue depth. */
    double degrade_factor = 2.0;

    /** Cap on the total target-error scale (>= 1). */
    double max_target_scale = 4.0;

    // --- preemption & deferral ---

    /**
     * Preemption-by-checkpoint: when the front of the admission queue
     * cannot admit for lack of reduce slots, suspend the least
     * important running job (strictly lower priority than the waiting
     * one, latest-admitted among equals) at a quiesce point. The victim
     * releases its reduce slots and parks with all in-memory state
     * intact; it resumes once slots free up and no strictly more
     * important job is still waiting. No work is lost — suspended jobs
     * always run to completion.
     */
    bool preempt = false;

    /**
     * Deferred admission: while any priority-0 job is active, hold
     * every lower-priority admission in the queue even when slots are
     * free, keeping the whole cluster for the top class.
     */
    bool defer = false;

    // --- environment ---

    /** Cluster preset: "xeon10" or "atom60". */
    std::string cluster = "xeon10";

    /**
     * Faults injected into every job. Server crashes are rejected by
     * JobService: a whole-server crash cannot be attributed to one job
     * when several tenants hold slots on it (Server::fail requires no
     * busy map slots).
     */
    ft::FaultPlan fault_plan;
};

/**
 * Parses the approxsvc CLI spec string: comma-separated `key=value`
 * clauses from a table with one row per key (serviceSpecHelp() lists
 * them; `straggler` and `crash` are the fault-plan rows, `cluster` the
 * fleet grammar of sim::ClusterConfig::parse), e.g.
 * "tenants=2,arrival=0.05,duration=600,seed=7,slo=150+0". `slo` takes
 * one '+'-separated value per tenant. Malformed input (unknown keys,
 * duplicate keys, bad numbers, trailing garbage) throws
 * std::invalid_argument — loudly, like ft::FaultPlan::parse.
 */
ServiceSpec parseServiceSpec(const std::string& spec);

/** One-line summary echoed into the service report (deterministic). */
std::string specSummary(const ServiceSpec& spec);

/** Multi-line spec grammar for approxsvc --help. */
std::string serviceSpecHelp();

}  // namespace approxhadoop::service

#endif  // APPROXHADOOP_SERVICE_SERVICE_SPEC_H_
