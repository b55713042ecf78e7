#ifndef APPROXHADOOP_CORE_TARGET_ERROR_CONTROLLER_H_
#define APPROXHADOOP_CORE_TARGET_ERROR_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "core/approx_config.h"
#include "core/sampling_reducer.h"
#include "mapreduce/controller.h"

namespace approxhadoop::core {

/**
 * The paper's online dropping/sampling optimizer for aggregation jobs
 * (Section 4.4, "User-specified target error bound").
 *
 * After enough map tasks have completed, the controller:
 *
 *  1. estimates the map cost model parameters t0, t_read, t_process from
 *     the measured duration components of the completed tasks;
 *  2. collects per-key variance aggregates from all reduce tasks (the
 *     JobTracker role of tracking error bounds across the whole job);
 *  3. solves min RET = n2 * t_map(M-bar, m) subject to
 *     t_{n-1,1-alpha/2} sqrt(Var(tau-hat)) <= target for the binding
 *     intermediate key, scanning candidate n2 values and binary-searching
 *     the minimal feasible m (Var is monotone in both);
 *  4. applies the plan: drops surplus pending maps and sets the sampling
 *     ratio for not-yet-started ones; once the achieved bound meets the
 *     target, drops/kills every remaining map.
 *
 * A pilot wave (ApproxConfig::Pilot) withholds all but a few maps, runs
 * them at a small sampling ratio, and uses their statistics to pick the
 * plan for the full wave — the paper's remedy for single-wave jobs.
 */
class TargetErrorController : public mr::JobController
{
  public:
    /**
     * @param config   approximation policy (must have a target set)
     * @param reducers the job's sampling reducers (not owned; must
     *                 outlive the controller's use)
     */
    TargetErrorController(
        const ApproxConfig& config,
        std::vector<MultiStageSamplingReducer*> reducers);

    void onJobStart(mr::JobHandle& job) override;
    void onMapComplete(mr::JobHandle& job,
                       const mr::MapTaskInfo& task) override;

    /**
     * Retry-vs-absorb arbitration for failed map tasks (FailureMode::
     * kAuto). A failed task is statistically one more dropped cluster,
     * so: absorb when the predicted end-of-job bound *without* this
     * cluster still meets the target for every binding key; re-run it
     * (stock Hadoop) when the sample cannot spare the cluster or too
     * little data exists to predict. See DESIGN.md, "Failures as
     * sampling".
     */
    mr::FailureAction onMapFailure(mr::JobHandle& job,
                                   const mr::MapTaskInfo& task,
                                   uint32_t failed_attempts) override;

    /** A dropping/sampling plan chosen by the optimizer. */
    struct Plan
    {
        /** Remaining (pending) maps to execute; the rest are dropped. */
        uint64_t maps_to_run = 0;
        /** Within-block sampling ratio for those maps. */
        double sampling_ratio = 1.0;
        /** Predicted remaining execution time (the objective). */
        double predicted_ret = 0.0;
        /**
         * Expected per-map failure overhead folded into predicted_ret:
         * p/(1-p) retries each costing heartbeat detection latency plus
         * retry backoff, with p the observed attempt failure rate. Zero
         * until a failure has been observed.
         */
        double failure_overhead = 0.0;
        /** Worst-key predicted absolute error bound under the plan. */
        double predicted_error = 0.0;
        /** Absolute error target for that binding key. */
        double target_error = 0.0;
        /** False when no plan meets the target (run everything). */
        bool feasible = false;
    };

    /** Last plan applied (for tests and experiment logging). */
    const Plan& lastPlan() const { return last_plan_; }

    /** True once the target was achieved and remaining maps dropped. */
    bool targetAchieved() const override { return achieved_; }

    /**
     * Accuracy-arbitration hook (src/service/): multiplies the
     * user-specified target error by @p scale from now on. Scale > 1
     * widens the bound — the controller drops more clusters / samples
     * fewer items on its next decision, freeing slots for higher
     * priority tenants; restoring 1.0 reverts to the user's target for
     * all future decisions. Never applied retroactively: clusters
     * already dropped stay dropped. @pre scale >= 1.
     */
    void setTargetScale(double scale);

    /**
     * Journal snapshot of the replan state (pilot released, target
     * achieved, the last applied Plan, the arbiter's target scale). A
     * resumed run re-derives all of it by re-execution; the journal
     * verifies the blobs match byte-for-byte.
     */
    std::string journalState() const override;

  private:
    /** Fitted cost-model parameters from completed task measurements. */
    struct CostFit
    {
        double t0 = 0.0;
        double t_read = 0.0;
        double t_process = 0.0;
        bool valid = false;
    };

    CostFit fitCostModel(const mr::JobHandle& job) const;

    /** Gathers plan stats from every reducer and keeps the worst keys. */
    std::vector<MultiStageSamplingReducer::KeyPlanStats>
    worstKeys(uint64_t total_clusters) const;

    /** Target absolute error for a key with the given estimate. */
    double targetFor(double tau_hat) const;

    /**
     * Student-t critical value t_{n-1, 1-alpha/2} for a plan that ends
     * with @p n clusters (+inf below 2). It depends on n alone, so each
     * candidate n evaluates it once for all of its keys.
     */
    double criticalT(uint64_t n) const;

    /**
     * Predicted absolute error bound for one key under a candidate plan.
     *
     * @param n_total   clusters that will have been executed
     * @param n2        future clusters executed at the candidate ratio
     * @param m         items sampled per future cluster
     * @param mean_items M-bar
     * @param key       per-key aggregates
     * @param total_clusters N
     * @param within_running predicted within-term factor for running maps
     * @param t         criticalT(n_total)
     */
    double predictedError(
        uint64_t n_total, uint64_t n2, double m, double mean_items,
        const MultiStageSamplingReducer::KeyPlanStats& key,
        uint64_t total_clusters, double within_running_factor,
        double t) const;

    /** Within-term factor contributed by currently running maps. */
    double withinRunningFactor(const mr::JobHandle& job) const;

    /** Solves the optimization problem; see class comment. */
    Plan solve(const mr::JobHandle& job, const CostFit& fit) const;

    /**
     * Applies @p plan and records it with the job's trace recorder (when
     * one is attached); @p trigger is "pilot" or "replan".
     */
    void applyPlan(mr::JobHandle& job, const Plan& plan,
                   const char* trigger);

    /**
     * True when all keys currently meet the target. When non-null,
     * @p worst_err / @p worst_target receive the achieved bound and
     * absolute target of the binding (max-absolute-error) key.
     */
    bool currentlyMeetsTarget(const mr::JobHandle& job,
                              double* worst_err = nullptr,
                              double* worst_target = nullptr) const;

    ApproxConfig config_;
    std::vector<MultiStageSamplingReducer*> reducers_;

    bool pilot_released_ = false;
    bool achieved_ = false;
    Plan last_plan_;
    /** AccuracyArbiter degradation factor applied to the target (>= 1). */
    double target_scale_ = 1.0;

    /** Keys examined per decision (the binding key plus runners-up). */
    static constexpr size_t kMaxKeysChecked = 16;
};

}  // namespace approxhadoop::core

#endif  // APPROXHADOOP_CORE_TARGET_ERROR_CONTROLLER_H_
