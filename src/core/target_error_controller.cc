#include "core/target_error_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "integrity/blob.h"
#include "obs/trace.h"
#include "stats/student_t.h"

namespace approxhadoop::core {

TargetErrorController::TargetErrorController(
    const ApproxConfig& config,
    std::vector<MultiStageSamplingReducer*> reducers)
    : config_(config), reducers_(std::move(reducers))
{
    assert(config_.hasTarget());
    assert(!reducers_.empty());
}

void
TargetErrorController::onJobStart(mr::JobHandle& job)
{
    if (config_.pilot.enabled) {
        // Stage a small pilot wave at a coarse sampling ratio; everything
        // else waits until the pilot statistics are in (Section 4.4).
        uint64_t pilot_maps =
            std::min<uint64_t>(config_.pilot.maps, job.numMapTasks());
        job.setPendingSamplingRatio(config_.pilot.sampling_ratio);
        job.holdPendingExcept(pilot_maps);
    }
    // Default: the first wave runs precise (ratio 1.0, nothing dropped).
}

double
TargetErrorController::targetFor(double tau_hat) const
{
    if (config_.target_absolute_error.has_value()) {
        return target_scale_ * *config_.target_absolute_error;
    }
    return target_scale_ * *config_.target_relative_error *
           std::fabs(tau_hat);
}

void
TargetErrorController::setTargetScale(double scale)
{
    assert(scale >= 1.0);
    target_scale_ = std::max(1.0, scale);
}

std::string
TargetErrorController::journalState() const
{
    integrity::BlobWriter w;
    w.putBool(pilot_released_);
    w.putBool(achieved_);
    w.putU64(last_plan_.maps_to_run);
    w.putDouble(last_plan_.sampling_ratio);
    w.putDouble(last_plan_.predicted_ret);
    w.putDouble(last_plan_.failure_overhead);
    w.putDouble(last_plan_.predicted_error);
    w.putDouble(last_plan_.target_error);
    w.putBool(last_plan_.feasible);
    w.putDouble(target_scale_);
    return w.release();
}

std::vector<MultiStageSamplingReducer::KeyPlanStats>
TargetErrorController::worstKeys(uint64_t total_clusters) const
{
    std::vector<MultiStageSamplingReducer::KeyPlanStats> all;
    for (const MultiStageSamplingReducer* r : reducers_) {
        for (auto& s : r->planStats(total_clusters, kMaxKeysChecked)) {
            if (s.tau_hat != 0.0) {
                all.push_back(std::move(s));
            }
        }
    }
    // The binding constraint is the key with the largest predicted
    // absolute error; keep a few runners-up in case the binding key
    // changes under a candidate plan.
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) {
                  return a.error_bound > b.error_bound;
              });
    if (all.size() > kMaxKeysChecked) {
        all.resize(kMaxKeysChecked);
    }
    return all;
}

TargetErrorController::CostFit
TargetErrorController::fitCostModel(const mr::JobHandle& job) const
{
    CostFit fit;
    double startup_sum = 0.0;
    double read_sum = 0.0;
    double process_sum = 0.0;
    double items_read = 0.0;
    double items_processed = 0.0;
    uint64_t n = 0;
    uint64_t total = job.numMapTasks();
    for (uint64_t t = 0; t < total; ++t) {
        const mr::MapTaskInfo& task = job.mapTask(t);
        if (task.state != mr::TaskState::kCompleted) {
            continue;
        }
        ++n;
        startup_sum += task.startup_time;
        read_sum += task.read_time;
        process_sum += task.process_time;
        items_read += static_cast<double>(task.items_total);
        items_processed += static_cast<double>(task.items_processed);
    }
    if (n == 0 || items_read <= 0.0 || items_processed <= 0.0) {
        return fit;
    }
    fit.t0 = startup_sum / static_cast<double>(n);
    fit.t_read = read_sum / items_read;
    fit.t_process = process_sum / items_processed;
    fit.valid = true;
    return fit;
}

double
TargetErrorController::criticalT(uint64_t n) const
{
    return stats::studentTCriticalCached(config_.confidence,
                                         static_cast<double>(n) - 1.0);
}

double
TargetErrorController::predictedError(
    uint64_t n_total, uint64_t n2, double m, double mean_items,
    const MultiStageSamplingReducer::KeyPlanStats& key,
    uint64_t total_clusters, double within_running_factor, double t) const
{
    double n = static_cast<double>(n_total);
    double big_n = static_cast<double>(total_clusters);
    if (n < 2.0) {
        return std::numeric_limits<double>::infinity();
    }
    // Equation 7: the within-cluster variance contribution of clusters we
    // have (consumed), clusters in flight, and clusters still to run.
    double cvar = key.within_consumed +
                  within_running_factor * key.mean_intra_variance;
    if (m < mean_items) {
        cvar += static_cast<double>(n2) * mean_items * (mean_items - m) *
                key.mean_intra_variance / m;
    }
    // Equation 6.
    double variance =
        big_n * (big_n - n) * key.inter_cluster_variance / n +
        (big_n / n) * cvar;
    if (variance < 0.0) {
        variance = 0.0;
    }
    return t * std::sqrt(variance);
}

double
TargetErrorController::withinRunningFactor(const mr::JobHandle& job) const
{
    double factor = 0.0;
    uint64_t total = job.numMapTasks();
    for (uint64_t t = 0; t < total; ++t) {
        const mr::MapTaskInfo& task = job.mapTask(t);
        if (task.state != mr::TaskState::kRunning) {
            continue;
        }
        double big_m = static_cast<double>(task.items_total);
        double mi = std::max(
            1.0, std::round(task.sampling_ratio * big_m));
        if (mi < big_m) {
            factor += big_m * (big_m - mi) / mi;
        }
    }
    return factor;
}

TargetErrorController::Plan
TargetErrorController::solve(const mr::JobHandle& job,
                             const CostFit& fit) const
{
    Plan best;
    best.feasible = false;

    // Failure-aware cost: under fault injection a map has probability p
    // of needing a retry, and each retry costs heartbeat detection
    // latency (the tracker only learns of the death after the task
    // timeout expires) plus the recovery backoff before re-execution.
    // Expected extra time per map: p/(1-p) * (detection + backoff).
    // Recorded on the plan even when no candidate is feasible: the
    // overhead is a property of the observed failure process, not of
    // the chosen plan.
    double failure_overhead = 0.0;
    double p = job.attemptFailureRate();
    if (p > 0.0 && p < 1.0) {
        failure_overhead = p / (1.0 - p) *
                           (job.failureDetectionDelaySeconds() +
                            job.typicalRetryBackoffSeconds());
    }
    best.failure_overhead = failure_overhead;

    uint64_t total = job.numMapTasks();
    uint64_t completed = job.completedMaps();
    uint64_t running = job.runningMaps();
    uint64_t pending = job.pendingMaps();
    if (pending == 0 || completed < 2 || !fit.valid) {
        return best;
    }
    double mean_items = static_cast<double>(job.totalItems()) /
                        static_cast<double>(total);
    uint64_t mean_items_int =
        std::max<uint64_t>(1, static_cast<uint64_t>(mean_items));

    // Within-term factor contributed by in-flight maps (their sampling
    // ratio is already fixed).
    double within_running_factor = withinRunningFactor(job);

    std::vector<MultiStageSamplingReducer::KeyPlanStats> keys =
        worstKeys(total);
    if (keys.empty()) {
        return best;
    }

    // Keys whose bound cannot meet the target even by executing every
    // remaining map at full sampling (e.g., variance already locked in
    // by a coarse pilot wave) are unsatisfiable constraints: exclude
    // them from the optimization rather than forcing the whole job
    // precise for no accuracy gain. Their reported bounds stay honest.
    {
        uint64_t n_full = completed + running + pending;
        double t = criticalT(n_full);
        std::vector<MultiStageSamplingReducer::KeyPlanStats> satisfiable;
        for (auto& key : keys) {
            double err = predictedError(
                n_full, pending, static_cast<double>(mean_items_int),
                mean_items, key, total, within_running_factor, t);
            if (err <= targetFor(key.tau_hat)) {
                satisfiable.push_back(std::move(key));
            }
        }
        keys = std::move(satisfiable);
    }
    if (keys.empty()) {
        return best;
    }

    // Paper semantics (Sections 4.2 and 5.1): percentage targets bind
    // the key with the *maximum predicted absolute error* — rare keys
    // have tiny absolute errors but unattainable relative ones, and the
    // paper's own reporting uses the max-absolute-error key.
    // The critical value depends on n2 alone, so each candidate looks it
    // up once for all of its bisection probes.
    auto worstAt = [&](uint64_t n2, double m, double t, double& out_err,
                       double& out_target) {
        uint64_t n_total = completed + running + n2;
        double worst_err = 0.0;
        double worst_tau = 0.0;
        for (const auto& key : keys) {
            double err = predictedError(n_total, n2, m, mean_items, key,
                                        total, within_running_factor, t);
            if (err > worst_err) {
                worst_err = err;
                worst_tau = key.tau_hat;
            }
        }
        out_err = worst_err;
        out_target = targetFor(worst_tau);
        return worst_err <= out_target;
    };
    auto feasible = [&](uint64_t n2, double m, double t) {
        double err = 0.0;
        double target = 0.0;
        return worstAt(n2, m, t, err, target);
    };

    // Candidate n2 values: dense at the low end, geometric above.
    std::vector<uint64_t> candidates;
    for (uint64_t n2 = 0; n2 <= std::min<uint64_t>(pending, 32); ++n2) {
        candidates.push_back(n2);
    }
    for (double v = 36.0; v < static_cast<double>(pending); v *= 1.1) {
        candidates.push_back(static_cast<uint64_t>(v));
    }
    candidates.push_back(pending);

    best.predicted_ret = std::numeric_limits<double>::infinity();
    for (uint64_t n2 : candidates) {
        if (n2 > pending) {
            continue;
        }
        double t = criticalT(completed + running + n2);
        if (!feasible(n2, static_cast<double>(mean_items_int), t)) {
            continue;  // even full sampling cannot meet the target
        }
        // Minimal feasible m by binary search (error decreases with m).
        uint64_t lo = 1;
        uint64_t hi = mean_items_int;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            if (feasible(n2, static_cast<double>(mid), t)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        double m = static_cast<double>(lo);
        double ret = static_cast<double>(n2) *
                     (fit.t0 + mean_items * fit.t_read +
                      m * fit.t_process + failure_overhead);
        if (ret < best.predicted_ret) {
            best.feasible = true;
            best.maps_to_run = n2;
            best.sampling_ratio =
                std::clamp(m / mean_items, 1e-6, 1.0);
            best.predicted_ret = ret;
            worstAt(n2, m, t, best.predicted_error, best.target_error);
        }
    }
    return best;
}

void
TargetErrorController::applyPlan(mr::JobHandle& job, const Plan& plan,
                                 const char* trigger)
{
    last_plan_ = plan;
    uint64_t pending_before = job.pendingMaps();
    if (!plan.feasible) {
        // No approximation possible: run the remaining maps precise.
        job.setPendingSamplingRatio(1.0);
    } else {
        job.setPendingSamplingRatio(plan.sampling_ratio);
        uint64_t pending = job.pendingMaps();
        if (pending > plan.maps_to_run) {
            job.dropPendingMaps(pending - plan.maps_to_run);
        }
    }
    if (obs::TraceRecorder* trace = job.trace()) {
        obs::ReplanRecord rec;
        rec.sim_time = job.now();
        rec.trigger = trigger;
        rec.completed = job.completedMaps();
        rec.running = job.runningMaps();
        rec.pending = pending_before;
        rec.feasible = plan.feasible;
        rec.maps_to_run = plan.feasible ? plan.maps_to_run : pending_before;
        rec.sampling_ratio = plan.feasible ? plan.sampling_ratio : 1.0;
        rec.predicted_error = plan.predicted_error;
        rec.target_error = plan.target_error;
        rec.predicted_ret = plan.predicted_ret;
        rec.failure_overhead = plan.failure_overhead;
        trace->recordReplan(rec);
    }
}

bool
TargetErrorController::currentlyMeetsTarget(const mr::JobHandle& job,
                                            double* worst_err_out,
                                            double* worst_target_out) const
{
    if (job.completedMaps() < config_.min_clusters_for_decision) {
        return false;
    }
    // Same semantics as the optimizer: the achieved bound is judged on
    // the key with the maximum absolute error (which is also the key the
    // paper's experiments report).
    bool any_key = false;
    double worst_err = 0.0;
    double worst_value = 0.0;
    for (const MultiStageSamplingReducer* r : reducers_) {
        MultiStageSamplingReducer::WorstError w =
            r->worstAbsoluteError(job.numMapTasks());
        if (!w.any_key) {
            continue;
        }
        any_key = true;
        if (!w.all_finite) {
            return false;
        }
        if (w.error_bound > worst_err) {
            worst_err = w.error_bound;
            worst_value = w.value;
        }
    }
    if (worst_err_out != nullptr) {
        *worst_err_out = worst_err;
    }
    if (worst_target_out != nullptr) {
        *worst_target_out = targetFor(worst_value);
    }
    return any_key && worst_err <= targetFor(worst_value);
}

void
TargetErrorController::onMapComplete(mr::JobHandle& job,
                                     const mr::MapTaskInfo& /*task*/)
{
    if (achieved_) {
        return;
    }

    if (config_.pilot.enabled && !pilot_released_) {
        // Wait for the whole pilot wave, then plan the real wave.
        if (job.runningMaps() > 0 ||
            job.completedMaps() <
                std::min<uint64_t>(config_.pilot.maps, job.numMapTasks())) {
            return;
        }
        pilot_released_ = true;
        CostFit fit = fitCostModel(job);
        job.releaseHeld();
        Plan plan = solve(job, fit);
        applyPlan(job, plan, "pilot");
        job.kickScheduler();
        AH_INFO("target-ctl")
            << "pilot done: plan feasible=" << plan.feasible
            << " maps_to_run=" << plan.maps_to_run
            << " sampling=" << plan.sampling_ratio;
        return;
    }

    // Gate on the first wave (paper Section 4.4): the default mode runs
    // wave 1 precise and only then starts approximating. This also
    // protects against the zero-variance degeneracy where two identical
    // clusters would "prove" a zero-width CI.
    uint64_t first_wave = std::min<uint64_t>(
        job.numMapTasks(), static_cast<uint64_t>(job.totalMapSlots()));
    uint64_t gate =
        std::max<uint64_t>(config_.min_clusters_for_decision, first_wave);
    if (job.completedMaps() < gate) {
        return;
    }
    // Throttle: re-deciding on every completion is wasteful for huge
    // jobs; check every decision_interval completions (plus the very
    // last ones, which checkMapPhaseDone covers via reducer finalize).
    uint64_t interval = config_.decision_interval;
    if (interval == 0) {
        interval = std::max<uint64_t>(1, job.numMapTasks() / 200);
    }
    if (job.completedMaps() % interval != 0 && job.pendingMaps() > 0) {
        return;
    }
    double achieved_err = 0.0;
    double achieved_target = 0.0;
    if (currentlyMeetsTarget(job, &achieved_err, &achieved_target)) {
        achieved_ = true;
        if (obs::TraceRecorder* trace = job.trace()) {
            obs::ReplanRecord rec;
            rec.sim_time = job.now();
            rec.trigger = "achieved";
            rec.completed = job.completedMaps();
            rec.running = job.runningMaps();
            rec.pending = job.pendingMaps();
            rec.feasible = true;
            rec.maps_to_run = 0;
            rec.sampling_ratio = job.pendingSamplingRatio();
            rec.predicted_error = achieved_err;
            rec.target_error = achieved_target;
            rec.predicted_ret = 0.0;
            rec.failure_overhead = 0.0;
            trace->recordReplan(rec);
        }
        job.dropAllRemaining();
        AH_INFO("target-ctl") << "target achieved at "
                              << job.completedMaps() << " maps; dropping "
                              << "the rest";
        return;
    }
    if (job.pendingMaps() > 0) {
        CostFit fit = fitCostModel(job);
        Plan plan = solve(job, fit);
        applyPlan(job, plan, "replan");
    }
}

mr::FailureAction
TargetErrorController::onMapFailure(mr::JobHandle& job,
                                    const mr::MapTaskInfo& task,
                                    uint32_t /*failed_attempts*/)
{
    if (achieved_) {
        // The target is already met; this task was about to be killed.
        return mr::FailureAction::kAbsorb;
    }
    uint64_t completed = job.completedMaps();
    if (completed <
        std::max<uint64_t>(2, config_.min_clusters_for_decision)) {
        // Too few clusters to trust an error prediction: re-run, like
        // stock Hadoop.
        return mr::FailureAction::kRetry;
    }

    uint64_t total = job.numMapTasks();
    uint64_t running = job.runningMaps();
    uint64_t pending = job.pendingMaps();
    // Clusters the job ends with if this failure is absorbed: everything
    // completed, in flight, or still scheduled. The failed task is none
    // of those at call time, so it is already excluded.
    uint64_t n_end = completed + running + pending;
    double mean_items = static_cast<double>(job.totalItems()) /
                        static_cast<double>(total);
    double m = std::max(1.0, job.pendingSamplingRatio() * mean_items);

    std::vector<MultiStageSamplingReducer::KeyPlanStats> keys =
        worstKeys(total);
    if (keys.empty()) {
        return mr::FailureAction::kRetry;
    }
    double within_running_factor = withinRunningFactor(job);
    double t = criticalT(n_end);
    double worst_err = 0.0;
    double worst_tau = 0.0;
    for (const auto& key : keys) {
        double err = predictedError(n_end, pending, m, mean_items, key,
                                    total, within_running_factor, t);
        if (err > worst_err) {
            worst_err = err;
            worst_tau = key.tau_hat;
        }
    }
    bool absorb = worst_err <= targetFor(worst_tau);
    AH_INFO("target-ctl")
        << (absorb ? "absorbing" : "retrying") << " failed map "
        << task.task_id << ": predicted bound " << worst_err
        << (absorb ? " <= " : " > ") << "target "
        << targetFor(worst_tau) << " without its cluster";
    return absorb ? mr::FailureAction::kAbsorb : mr::FailureAction::kRetry;
}

}  // namespace approxhadoop::core
