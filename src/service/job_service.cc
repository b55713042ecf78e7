#include "service/job_service.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/approx_config.h"
#include "core/approx_job.h"
#include "service/slot_arbiter.h"

namespace approxhadoop::service {

namespace {

/**
 * Achieved relative CI half-width of the binding key: the record with
 * the largest absolute error bound, reported the way the paper's
 * headline numbers are (rare keys have huge relative but tiny absolute
 * errors). Negative when no record carries a bound.
 */
double
bindingRelCiWidth(const mr::JobResult& result)
{
    const mr::OutputRecord* binding = nullptr;
    for (const mr::OutputRecord& rec : result.output) {
        if (!rec.has_bound) {
            continue;
        }
        if (binding == nullptr ||
            rec.errorBound() > binding->errorBound()) {
            binding = &rec;
        }
    }
    return binding != nullptr ? binding->relativeError() : -1.0;
}

}  // namespace

JobService::JobService(const ServiceSpec& spec)
    : spec_(spec),
      accuracy_(spec.pressure_threshold, spec.degrade_factor,
                spec.max_target_scale)
{
    if (spec_.fault_plan.changesFleet()) {
        throw std::invalid_argument(
            "JobService: fleet-changing faults (server crashes, "
            "revocation storms, scale-outs, drains) are not supported "
            "in multi-tenant runs (a whole-server event cannot be "
            "attributed to one job)");
    }
    if (spec_.fault_plan.hasDriverCrash()) {
        throw std::invalid_argument(
            "JobService: dcrash driver kills are not supported in "
            "multi-tenant runs (one driver hosts every tenant; use the "
            "single-job --journal path)");
    }
    cluster_ = std::make_unique<sim::Cluster>(
        sim::ClusterConfig::parse(spec_.cluster));

    if (spec_.reducers > static_cast<uint32_t>(cluster_->totalReduceSlots())) {
        throw std::invalid_argument(
            "JobService: per-job reducers exceed the cluster's reduce "
            "slots; no job could ever be admitted");
    }
}

JobService::JobService(const ServiceSpec& spec,
                       std::vector<JobArrival> arrivals)
    : JobService(spec)
{
    forced_arrivals_ = std::move(arrivals);
    use_forced_arrivals_ = true;
    for (size_t i = 1; i < forced_arrivals_.size(); ++i) {
        if (forced_arrivals_[i].time < forced_arrivals_[i - 1].time) {
            throw std::invalid_argument(
                "JobService: explicit arrivals must be in "
                "non-decreasing time order");
        }
    }
}

JobService::~JobService() = default;

ServiceReport
JobService::run()
{
    if (ran_) {
        throw std::logic_error("JobService::run() called twice");
    }
    ran_ = true;

    // Resolve the job mix against the registry up front, loudly.
    std::vector<std::string> names = spec_.workloads;
    if (names.empty()) {
        for (const apps::AggregationWorkload& w :
             apps::aggregationWorkloads()) {
            names.push_back(w.name);
        }
    } else {
        for (const std::string& n : names) {
            if (apps::findAggregationWorkload(n) == nullptr) {
                throw std::invalid_argument(
                    "JobService: unknown workload '" + n + "' (have: " +
                    apps::aggregationWorkloadNames() + ")");
            }
        }
    }

    std::vector<JobArrival> arrivals =
        use_forced_arrivals_ ? forced_arrivals_
                             : ArrivalGenerator(spec_, names).generate();
    if (use_forced_arrivals_) {
        for (const JobArrival& a : arrivals) {
            if (apps::findAggregationWorkload(a.workload) == nullptr) {
                throw std::invalid_argument(
                    "JobService: unknown workload '" + a.workload + "'");
            }
            if (a.tenant >= spec_.tenants.size()) {
                throw std::invalid_argument(
                    "JobService: arrival tenant out of range");
            }
        }
    }
    jobs_.resize(arrivals.size());
    for (uint64_t i = 0; i < arrivals.size(); ++i) {
        ManagedJob& mj = jobs_[i];
        mj.arrival = arrivals[i];
        mj.workload = apps::findAggregationWorkload(mj.arrival.workload);
        assert(mj.workload != nullptr);
        mj.initial_maps = spec_.blocks;
        cluster_->events().schedule(mj.arrival.time,
                                    [this, i]() { onArrival(i); });
    }

    // Drive the shared event queue to exhaustion: arrivals admit jobs,
    // job events run them, completion handlers re-enter pump().
    while (cluster_->events().step()) {
    }

    // Every submitted job must have reached a terminal state — a stall
    // here is a service-level scheduling bug.
    for (const ManagedJob& mj : jobs_) {
        if (mj.state != JobState::kDone && mj.state != JobState::kFailed) {
            const char* state = mj.state == JobState::kPending  ? "pending"
                                : mj.state == JobState::kQueued ? "queued"
                                : mj.state == JobState::kRunning
                                    ? "running"
                                    : "suspended";
            std::string detail;
            if (mj.job) {
                detail = " done=" + std::to_string(mj.job->done()) +
                         " started=" + std::to_string(mj.started) +
                         " suspend_pending=" +
                         std::to_string(mj.job->suspendPending()) +
                         " preempt_pending=" +
                         std::to_string(mj.preempt_pending) +
                         " held=" + std::to_string(mj.job->heldMapSlots()) +
                         " cap=" + std::to_string(mj.job->mapSlotLimit()) +
                         " remaining=" +
                         std::to_string(mj.job->remainingMaps());
            }
            throw std::logic_error(
                "JobService: event queue drained with job '" +
                mj.arrival.workload + "' " + state + detail +
                " (admission or arbitration stall)");
        }
    }
    return buildReport();
}

void
JobService::onArrival(uint64_t id)
{
    ManagedJob& mj = jobs_[id];
    assert(mj.state == JobState::kPending);
    mj.state = JobState::kQueued;
    queue_.push(id, spec_.tenants[mj.arrival.tenant].priority);
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
    pump();
}

uint32_t
JobService::freeReduceSlots() const
{
    uint32_t free = 0;
    for (const sim::Server& s : cluster_->servers()) {
        free += static_cast<uint32_t>(s.freeReduceSlots());
    }
    return free;
}

void
JobService::pump()
{
    // Degradation first: the widened targets must be in force before a
    // newly admitted job's controller makes its first decision.
    applyAccuracyPressure();

    // Preemption next, so a victim starts quiescing before admission is
    // retried (the freed slots arrive asynchronously via pump() from
    // onSuspendSettled).
    maybePreempt();

    // Admit in (priority, FIFO) order while each job's whole reducer
    // complement fits (Job::placeReducers claims all reduce slots for
    // the job's lifetime — admitting without them would throw).
    while (!queue_.empty() && freeReduceSlots() >= spec_.reducers) {
        uint64_t front = queue_.front();
        if (deferGateBlocks(front)) {
            ManagedJob& held = jobs_[front];
            if (!held.was_deferred) {
                held.was_deferred = true;
                ++deferred_count_;
            }
            break;
        }
        admit(queue_.pop());
        applyAccuracyPressure();
    }

    // Un-park preempted jobs only after admission had its pick of the
    // free slots: waiting arrivals outrank a parked lower class.
    maybeResume();

    rebalance();
}

bool
JobService::deferGateBlocks(uint64_t front_id) const
{
    if (!spec_.defer) {
        return false;
    }
    if (spec_.tenants[jobs_[front_id].arrival.tenant].priority == 0) {
        return false;
    }
    for (uint64_t id : active_) {
        if (spec_.tenants[jobs_[id].arrival.tenant].priority == 0 &&
            !jobs_[id].job->done()) {
            return true;
        }
    }
    return false;
}

void
JobService::maybePreempt()
{
    if (!spec_.preempt || queue_.empty() ||
        freeReduceSlots() >= spec_.reducers) {
        return;
    }
    uint64_t front = queue_.front();
    if (deferGateBlocks(front)) {
        return;  // the front could not admit even with freed slots
    }
    uint32_t front_prio =
        spec_.tenants[jobs_[front].arrival.tenant].priority;

    // Victim: a running, suspendable job of a strictly less important
    // class; the least important one, latest-admitted among equals, so
    // preemption always evicts the cheapest progress.
    int64_t victim = -1;
    uint32_t victim_prio = 0;
    for (uint64_t id : active_) {
        ManagedJob& mj = jobs_[id];
        if (mj.state != JobState::kRunning || mj.preempt_pending ||
            !mj.started || !mj.job->canSuspend()) {
            continue;
        }
        uint32_t prio = spec_.tenants[mj.arrival.tenant].priority;
        if (prio <= front_prio) {
            continue;
        }
        if (victim < 0 || prio > victim_prio ||
            (prio == victim_prio &&
             mj.admit_time >= jobs_[victim].admit_time)) {
            victim = static_cast<int64_t>(id);
            victim_prio = prio;
        }
    }
    if (victim < 0) {
        return;
    }
    uint64_t vid = static_cast<uint64_t>(victim);
    jobs_[vid].preempt_pending = true;
    jobs_[vid].job->requestSuspend([this, vid](bool suspended) {
        onSuspendSettled(vid, suspended);
    });
}

void
JobService::onSuspendSettled(uint64_t id, bool suspended)
{
    ManagedJob& mj = jobs_[id];
    mj.preempt_pending = false;
    if (!suspended) {
        // The map phase (or the whole job) completed before the victim
        // quiesced; its own completion path already pumped the queue.
        return;
    }
    assert(mj.state == JobState::kRunning);
    mj.state = JobState::kSuspended;
    ++preempted_count_;
    active_.erase(std::remove(active_.begin(), active_.end(), id),
                  active_.end());
    suspended_.push_back(id);
    pump();
}

void
JobService::maybeResume()
{
    while (!suspended_.empty() && freeReduceSlots() >= spec_.reducers) {
        uint64_t id = suspended_.front();
        // Stay parked while a strictly more important job still waits:
        // it has first claim on the freed slots (it will admit — or
        // preempt — from a later pump).
        if (!queue_.empty() &&
            spec_.tenants[jobs_[queue_.front()].arrival.tenant].priority <
                spec_.tenants[jobs_[id].arrival.tenant].priority) {
            return;
        }
        suspended_.erase(suspended_.begin());
        ManagedJob& mj = jobs_[id];
        assert(mj.state == JobState::kSuspended);
        mj.state = JobState::kRunning;
        ++resumed_count_;
        active_.push_back(id);
        std::sort(active_.begin(), active_.end());
        if (active_.size() > 1) {
            for (uint64_t a : active_) {
                jobs_[a].saw_contention = true;
            }
        }
        mj.job->resumeSuspended();
        rebalance();
    }
}

void
JobService::admit(uint64_t id)
{
    ManagedJob& mj = jobs_[id];
    assert(mj.state == JobState::kQueued);
    const apps::AggregationWorkload& w = *mj.workload;

    // Per-job dataset and NameNode, both seeded by the job seed, so the
    // job sees exactly the data and replica placement it would see
    // standalone (the bit-identity contract).
    mj.dataset = w.make_dataset(spec_.blocks, spec_.items,
                                mj.arrival.job_seed);
    mj.namenode = std::make_unique<hdfs::NameNode>(cluster_->numServers(),
                                                   3, mj.arrival.job_seed);

    mr::JobConfig config = w.job_config(spec_.items, spec_.reducers);
    config.name = w.name + "#" + std::to_string(id);
    config.seed = mj.arrival.job_seed;
    config.endgame_left_percent = spec_.endgame_left_percent;
    config.fault_plan = spec_.fault_plan;
    // A job parked in S3 would hold servers other tenants need.
    config.s3_when_drained = false;

    core::ApproxConfig approx;
    approx.target_relative_error = spec_.target_rel_error;
    core::AssembledJob assembled = core::assembleJob(
        *cluster_, *mj.dataset, *mj.namenode, std::move(config), &approx,
        w.mapper_factory(), core::AggregationReducers{w.op});
    mj.job = std::move(assembled.job);
    mj.controller = std::move(assembled.controller);
    mj.target = assembled.target;
    mj.job->setCompletionHandler(
        [this, id](bool failed, const std::string& error) {
            onJobCompletion(id, failed, error);
        });

    mj.state = JobState::kRunning;
    mj.admit_time = cluster_->now();
    active_.push_back(id);  // ids admit in queue order; keep ascending
    std::sort(active_.begin(), active_.end());

    // Under contention the fair-share cap must be in force before
    // start() fills slots; alone on the cluster the job runs untouched.
    if (active_.size() > 1) {
        for (uint64_t a : active_) {
            jobs_[a].saw_contention = true;
        }
        rebalance();
    }

    double scale = accuracy_.scaleFor(queue_.size());
    if (scale > 1.0 && spec_.tenants[mj.arrival.tenant].priority > 0) {
        mj.target->setTargetScale(scale);
        mj.applied_scale = scale;
        mj.ever_degraded = true;
    }

    mj.job->start();
    mj.started = true;
}

void
JobService::rebalance()
{
    if (active_.empty()) {
        return;
    }
    if (active_.size() == 1) {
        // Sole tenant: lift any leftover cap, but only if the job ever
        // ran contended — a never-contended job must see zero service
        // interference (the uncontended-purity / bit-identity rule).
        ManagedJob& mj = jobs_[active_.front()];
        if (mj.saw_contention &&
            mj.job->mapSlotLimit() != std::numeric_limits<int>::max()) {
            mj.job->setMapSlotLimit(std::numeric_limits<int>::max());
            mr::JobHandle(*mj.job).kickScheduler();
        }
        return;
    }

    std::vector<SlotClaim> claims;
    claims.reserve(active_.size());
    for (uint64_t id : active_) {
        ManagedJob& mj = jobs_[id];
        mj.saw_contention = true;
        SlotClaim c;
        c.weight = spec_.tenants[mj.arrival.tenant].weight;
        // Before start() builds the task set, remainingMaps() is 0;
        // use the dataset's block count as the demand estimate.
        c.demand = mj.job->done()  ? 0
                   : mj.started    ? mj.job->remainingMaps()
                                   : mj.initial_maps;
        claims.push_back(c);
    }
    std::vector<int> caps =
        arbitrateSlots(claims, cluster_->totalMapSlots());

    // Apply caps, then kick the starved jobs (largest deficit first) so
    // freed slots land by fair share, not by event-callback order.
    std::vector<std::pair<int64_t, uint64_t>> deficit;
    for (size_t i = 0; i < active_.size(); ++i) {
        ManagedJob& mj = jobs_[active_[i]];
        mj.job->setMapSlotLimit(caps[i]);
        deficit.emplace_back(
            static_cast<int64_t>(caps[i]) -
                static_cast<int64_t>(mj.job->heldMapSlots()),
            active_[i]);
    }
    std::sort(deficit.begin(), deficit.end(),
              [](const auto& a, const auto& b) {
                  if (a.first != b.first) {
                      return a.first > b.first;
                  }
                  return a.second < b.second;
              });
    for (const auto& [gap, id] : deficit) {
        if (gap <= 0) {
            break;
        }
        if (!jobs_[id].job->done()) {
            mr::JobHandle(*jobs_[id].job).kickScheduler();
        }
    }
}

void
JobService::applyAccuracyPressure()
{
    double scale = accuracy_.scaleFor(queue_.size());
    for (uint64_t id : active_) {
        ManagedJob& mj = jobs_[id];
        if (spec_.tenants[mj.arrival.tenant].priority == 0) {
            continue;  // the top class is never degraded
        }
        if (mj.job->done() || scale == mj.applied_scale) {
            continue;
        }
        mj.target->setTargetScale(scale);
        mj.applied_scale = scale;
        if (scale > 1.0) {
            mj.ever_degraded = true;
        }
    }
}

void
JobService::onJobCompletion(uint64_t id, bool failed,
                            const std::string& error)
{
    (void)error;
    ManagedJob& mj = jobs_[id];
    assert(mj.state == JobState::kRunning);
    mj.state = failed ? JobState::kFailed : JobState::kDone;
    mj.finish_time = cluster_->now();
    active_.erase(std::remove(active_.begin(), active_.end(), id),
                  active_.end());

    JobOutcome out;
    out.arrival = mj.arrival;
    out.completed = !failed;
    out.failed = failed;
    out.final_target_scale = mj.applied_scale;
    out.ever_degraded = mj.ever_degraded;
    out.admit_time = mj.admit_time;
    out.finish_time = mj.finish_time;
    out.latency = mj.finish_time - mj.arrival.time;
    if (!failed) {
        out.result = mj.job->collectResult();
        out.rel_ci_width = bindingRelCiWidth(out.result);
        std::string violation =
            out.result.counters.conservationViolation(spec_.reducers);
        if (!violation.empty()) {
            throw std::logic_error(
                "JobService: counter conservation violated for job " +
                std::to_string(id) + ": " + violation);
        }
    }
    outcomes_.push_back(std::move(out));

    pump();
}

ServiceReport
JobService::buildReport()
{
    ServiceReport report;
    report.spec = specSummary(spec_);
    report.seed = spec_.seed;
    report.duration = spec_.duration;
    report.jobs_submitted = jobs_.size();
    report.peak_queue_depth = peak_queue_depth_;
    report.jobs_preempted = preempted_count_;
    report.jobs_resumed = resumed_count_;
    report.jobs_suspended_live = suspended_.size();
    report.jobs_deferred = deferred_count_;
    // Conservation: every park is matched by an un-park (or is still
    // live, which run() already rejects for a completed simulation).
    if (report.jobs_preempted !=
        report.jobs_resumed + report.jobs_suspended_live) {
        throw std::logic_error(
            "JobService: preemption identity violated: preempted=" +
            std::to_string(report.jobs_preempted) + " resumed=" +
            std::to_string(report.jobs_resumed) + " suspended_live=" +
            std::to_string(report.jobs_suspended_live));
    }

    double makespan = 0.0;
    for (const JobOutcome& o : outcomes_) {
        makespan = std::max(makespan, o.finish_time);
        report.jobs_completed += o.completed ? 1 : 0;
        report.jobs_failed += o.failed ? 1 : 0;
    }
    report.sim_makespan = makespan;
    cluster_->accrueAll();
    report.energy_wh = cluster_->energyWattHours();

    for (uint32_t ti = 0; ti < spec_.tenants.size(); ++ti) {
        const TenantClass& tc = spec_.tenants[ti];
        TenantReport tr;
        tr.name = tc.name;
        tr.priority = tc.priority;
        tr.weight = tc.weight;
        tr.target_rel_error = spec_.target_rel_error;
        tr.slo_seconds = tc.slo_seconds;

        std::vector<double> latencies;
        double ci_sum = 0.0;
        uint64_t ci_count = 0;
        for (const JobOutcome& o : outcomes_) {
            if (o.arrival.tenant != ti) {
                continue;
            }
            ++tr.jobs_submitted;
            if (o.failed) {
                ++tr.jobs_failed;
                continue;
            }
            ++tr.jobs_completed;
            latencies.push_back(o.latency);
            if (o.ever_degraded) {
                ++tr.jobs_degraded;
            }
            if (o.rel_ci_width >= 0.0) {
                ci_sum += o.rel_ci_width;
                ++ci_count;
                tr.max_rel_ci_width =
                    std::max(tr.max_rel_ci_width, o.rel_ci_width);
            }
            tr.slot_seconds += o.result.counters.map_slot_seconds;
            if (tc.slo_seconds > 0.0 && o.latency > tc.slo_seconds) {
                ++tr.slo_violations;
            }
        }
        std::sort(latencies.begin(), latencies.end());
        tr.p50_latency = percentileSorted(latencies, 0.50);
        tr.p99_latency = percentileSorted(latencies, 0.99);
        if (!latencies.empty()) {
            double sum = 0.0;
            for (double l : latencies) {
                sum += l;
            }
            tr.mean_latency = sum / static_cast<double>(latencies.size());
        }
        tr.goodput_per_ksec =
            static_cast<double>(tr.jobs_completed) / spec_.duration *
            1000.0;
        if (ci_count > 0) {
            tr.mean_rel_ci_width = ci_sum / static_cast<double>(ci_count);
        }
        report.tenants.push_back(std::move(tr));
    }
    return report;
}

}  // namespace approxhadoop::service
