#include "mapreduce/job.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "integrity/checksum.h"
#include "integrity/chunk_integrity.h"
#include "mapreduce/key_interner.h"
#include "obs/observability.h"

namespace approxhadoop::mr {

// ---------------------------------------------------------------------------
// JobResult
// ---------------------------------------------------------------------------

const OutputRecord*
JobResult::find(const std::string& key) const
{
    for (const OutputRecord& r : output) {
        if (r.key == key) {
            return &r;
        }
    }
    return nullptr;
}

std::map<std::string, OutputRecord>
JobResult::toMap() const
{
    std::map<std::string, OutputRecord> by_key;
    for (const OutputRecord& r : output) {
        by_key[r.key] = r;
    }
    return by_key;
}

double
JobResult::averageMapConcurrency() const
{
    if (runtime <= 0.0) {
        return 0.0;
    }
    double busy = 0.0;
    for (const MapTaskInfo& t : tasks) {
        if (t.state == TaskState::kCompleted) {
            busy += t.duration();
        }
    }
    return busy / runtime;
}

double
JobResult::maxRelativeErrorAgainst(const JobResult& precise) const
{
    std::map<std::string, OutputRecord> mine = toMap();
    double worst = 0.0;
    for (const OutputRecord& ref : precise.output) {
        if (ref.value == 0.0) {
            continue;
        }
        auto it = mine.find(ref.key);
        // Keys missed entirely by the approximation count as 100% error
        // (paper Section 3.1, "Missed intermediate keys").
        double err = 1.0;
        if (it != mine.end()) {
            err = std::fabs(it->second.value - ref.value) /
                  std::fabs(ref.value);
        }
        worst = std::max(worst, err);
    }
    return worst;
}

JobResult::HeadlineError
JobResult::headlineErrorAgainst(const JobResult& precise) const
{
    HeadlineError headline;
    const OutputRecord* worst = nullptr;
    for (const OutputRecord& r : output) {
        double bound = r.errorBound();
        if (!std::isfinite(bound)) {
            continue;
        }
        if (worst == nullptr || bound > worst->errorBound()) {
            worst = &r;
        }
    }
    if (worst == nullptr) {
        return headline;
    }
    headline.key = worst->key;
    if (worst->value != 0.0) {
        headline.bound_relative_error =
            worst->errorBound() / std::fabs(worst->value);
    }
    const OutputRecord* ref = precise.find(worst->key);
    if (ref != nullptr && ref->value != 0.0) {
        headline.actual_relative_error =
            std::fabs(worst->value - ref->value) / std::fabs(ref->value);
    }
    return headline;
}

// ---------------------------------------------------------------------------
// JobHandle (controller surface)
// ---------------------------------------------------------------------------

uint64_t
JobHandle::numMapTasks() const
{
    return job_.tasks_.size();
}

uint64_t
JobHandle::pendingMaps() const
{
    return job_.pending_count_ + job_.held_count_ + job_.retry_wait_count_;
}

uint64_t
JobHandle::runningMaps() const
{
    return job_.running_count_;
}

uint64_t
JobHandle::completedMaps() const
{
    return job_.counters_.maps_completed;
}

uint64_t
JobHandle::droppedMaps() const
{
    return job_.counters_.maps_dropped + job_.counters_.maps_killed +
           job_.counters_.maps_absorbed;
}

const MapTaskInfo&
JobHandle::mapTask(uint64_t task_id) const
{
    return job_.tasks_.at(task_id);
}

double
JobHandle::now() const
{
    return job_.cluster_.now();
}

int
JobHandle::totalMapSlots() const
{
    return job_.cluster_.totalMapSlots();
}

void
JobHandle::setPendingSamplingRatio(double ratio)
{
    assert(ratio > 0.0 && ratio <= 1.0);
    job_.pending_sampling_ratio_ = ratio;
}

uint64_t
JobHandle::dropPendingMaps(uint64_t count)
{
    return job_.dropPendingMaps(count);
}

void
JobHandle::dropAllRemaining()
{
    job_.dropAllRemaining();
}

void
JobHandle::holdPendingExcept(uint64_t keep)
{
    job_.holdPendingExcept(keep);
}

void
JobHandle::releaseHeld()
{
    job_.releaseHeld();
}

void
JobHandle::kickScheduler()
{
    job_.scheduleLoop();
}

uint64_t
JobHandle::totalItems() const
{
    return job_.counters_.items_total;
}

double
JobHandle::pendingSamplingRatio() const
{
    return job_.pending_sampling_ratio_;
}

double
JobHandle::failureDetectionDelaySeconds() const
{
    if (job_.config_.task_timeout_ms <= 0.0) {
        return 0.0;
    }
    // Timeout counts from the last heartbeat the tracker received; on
    // average the crash lands half an interval after it.
    double hb = std::max(0.0, job_.config_.heartbeat_interval_ms);
    return (job_.config_.task_timeout_ms + 0.5 * hb) / 1000.0;
}

double
JobHandle::attemptFailureRate() const
{
    uint64_t failed = job_.counters_.map_attempts_failed +
                      job_.counters_.map_outputs_lost;
    if (failed == 0) {
        return 0.0;
    }
    uint64_t done = job_.counters_.maps_completed;
    return static_cast<double>(failed) /
           static_cast<double>(failed + done);
}

double
JobHandle::typicalRetryBackoffSeconds() const
{
    return job_.config_.recovery.backoffDelay(1);
}

obs::TraceRecorder*
JobHandle::trace() const
{
    return job_.obs_ != nullptr ? &job_.obs_->trace : nullptr;
}

// ---------------------------------------------------------------------------
// Job: setup
// ---------------------------------------------------------------------------

Job::Job(sim::Cluster& cluster, const hdfs::BlockDataset& dataset,
         hdfs::NameNode& namenode, JobConfig config)
    : cluster_(cluster), dataset_(dataset), namenode_(namenode),
      config_(std::move(config)),
      input_format_(std::make_shared<TextInputFormat>()),
      partitioner_(std::make_shared<HashPartitioner>()),
      rng_(config_.seed), seed_draw_(Rng(config_.seed).engine()()),
      injector_(config_.fault_plan, config_.seed)
{
    if (config_.num_reducers == 0) {
        throw std::invalid_argument("job needs at least one reducer");
    }
}

Job::~Job()
{
    // Join the workers while the members they reference (exec_, reducers,
    // the dataset) are still alive; matters when run() exited by throwing.
    pool_.reset();
}

void
Job::setMapperFactory(MapperFactory factory)
{
    assert(!started_);
    mapper_factory_ = std::move(factory);
}

void
Job::setReducerFactory(ReducerFactory factory)
{
    assert(!started_);
    reducer_factory_ = std::move(factory);
}

void
Job::setInputFormat(std::shared_ptr<const InputFormat> format)
{
    assert(!started_);
    input_format_ = std::move(format);
}

void
Job::setPartitioner(std::shared_ptr<const Partitioner> partitioner)
{
    assert(!started_);
    partitioner_ = std::move(partitioner);
}

void
Job::setCombiner(std::shared_ptr<Combiner> combiner)
{
    assert(!started_);
    combiner_ = std::move(combiner);
}

void
Job::setController(JobController* controller)
{
    assert(!started_);
    controller_ = controller;
}

void
Job::setObservability(obs::Observability* obs)
{
    assert(!started_);
    obs_ = obs;
}

void
Job::setEpochSink(journal::EpochSink* sink)
{
    assert(!started_);
    epoch_sink_ = sink;
}

void
Job::setCompletionHandler(CompletionHandler handler)
{
    assert(!started_);
    completion_handler_ = std::move(handler);
}

void
Job::setMapSlotLimit(int limit)
{
    // Callable mid-run (the SlotArbiter re-targets at every admission /
    // completion). Lowering never revokes running attempts — see the
    // header comment on wave-boundary yield.
    map_slot_limit_ = std::max(0, limit);
}

void
Job::requestSuspend(SuspendHandler handler)
{
    assert(handler);
    if (!started_ || map_phase_done_ || job_done_ || job_failed_) {
        throw std::logic_error(
            "requestSuspend: the map phase is not active");
    }
    if (suspend_pending_ || suspended_) {
        throw std::logic_error(
            "requestSuspend: job is already suspending or suspended");
    }
    if (reduce_ft_) {
        // Reduce-crash injection retains undelivered chunks against the
        // live reduce slots; parking would have to replay them across
        // the gap. The service never enables rcrash, so suspension
        // simply refuses rather than implementing that path.
        throw std::logic_error(
            "requestSuspend: unsupported with reduce-crash injection");
    }
    suspend_pending_ = true;
    suspend_handler_ = std::move(handler);
    maybeFinishSuspend();
}

void
Job::maybeFinishSuspend()
{
    if (!suspend_pending_ || park_event_pending_ || running_count_ > 0 ||
        retry_wait_count_ > 0) {
        return;
    }
    // Quiesced — but do NOT park synchronously. This runs at
    // scheduleLoop's tail, which the map-completion path invokes BEFORE
    // the controller's replan and checkMapPhaseDone() have ruled on
    // this very completion. Parking here when the last map just
    // finished (or when the controller is about to drop every pending
    // task) would release the reduce slots and then let the same event
    // cascade start the reduce phase on a "suspended" job. A zero-delay
    // event re-checks after those verdicts: if the map phase completed
    // in the meantime, checkMapPhaseDone() already cancelled the
    // suspension and the event is a no-op.
    park_event_pending_ = true;
    cluster_.events().scheduleAfter(0.0, [this] { finishSuspendNow(); });
}

void
Job::finishSuspendNow()
{
    park_event_pending_ = false;
    if (!suspend_pending_ || running_count_ > 0 || retry_wait_count_ > 0) {
        return;  // cancelled, or same-timestamp work raced in
    }
    // Quiesced for real: every attempt and retry waiter has settled, so
    // all the job still holds is its reduce slots — return them to the
    // cluster (that is the point of preemption; the reducer objects
    // keep their aggregates in memory).
    suspend_pending_ = false;
    suspended_ = true;
    releaseReducerSlots();
    maybeRetireDrained();
    SuspendHandler handler = std::move(suspend_handler_);
    suspend_handler_ = nullptr;
    handler(true);
}

void
Job::cancelPendingSuspend()
{
    if (!suspend_pending_) {
        return;
    }
    suspend_pending_ = false;
    SuspendHandler handler = std::move(suspend_handler_);
    suspend_handler_ = nullptr;
    cluster_.events().scheduleAfter(0.0,
                                    [handler] { handler(false); });
}

void
Job::resumeSuspended()
{
    if (!suspended_) {
        throw std::logic_error("resumeSuspended: job is not suspended");
    }
    suspended_ = false;
    // Placement is recomputed from scratch — the fleet may have changed
    // while the job was parked. Reducer objects, their aggregates, and
    // every task state survive untouched.
    acquireReducerSlots();
    scheduleLoop();
}

void
Job::setInitialSamplingRatio(double ratio)
{
    assert(!started_);
    assert(ratio > 0.0 && ratio <= 1.0);
    pending_sampling_ratio_ = ratio;
}

void
Job::setInitialApproximateFraction(double fraction)
{
    assert(!started_);
    assert(fraction >= 0.0 && fraction <= 1.0);
    pending_approx_fraction_ = fraction;
}

void
Job::buildTasks()
{
    uint64_t num_blocks = dataset_.numBlocks();
    first_block_ = namenode_.registerFile(num_blocks);
    tasks_.resize(num_blocks);
    exec_.resize(num_blocks);
    task_order_.resize(num_blocks);
    for (uint64_t t = 0; t < num_blocks; ++t) {
        tasks_[t].task_id = t;
        tasks_[t].block = first_block_ + t;
        tasks_[t].items_total = dataset_.itemsInBlock(t);
        counters_.items_total += tasks_[t].items_total;
        task_order_[t] = t;
    }
    // Random execution order: required for task dropping to be a valid
    // cluster sample (paper Section 4.3).
    rng_.shuffle(task_order_);
    pending_count_ = num_blocks;
    counters_.maps_total = num_blocks;
    rebuildQueues();
}

void
Job::rebuildQueues()
{
    pending_order_.clear();
    local_pending_.assign(cluster_.numServers(), {});
    for (uint64_t t : task_order_) {
        if (tasks_[t].state != TaskState::kPending) {
            continue;
        }
        pending_order_.push_back(t);
        for (uint32_t s : namenode_.replicas(tasks_[t].block)) {
            local_pending_[s].push_back(t);
        }
    }
}

void
Job::acquireReducerSlots()
{
    // One reducer per reduce slot, round-robin over servers; reducers
    // hold their slot for the whole job (they shuffle incrementally).
    reducer_servers_.clear();
    uint32_t placed = 0;
    while (placed < config_.num_reducers) {
        bool progress = false;
        for (sim::Server& s : cluster_.servers()) {
            if (placed >= config_.num_reducers) {
                break;
            }
            if (s.freeReduceSlots() > 0) {
                s.acquireReduceSlot(cluster_.now());
                reducer_servers_.push_back(s.id());
                if (obs_ != nullptr) {
                    obs_->trace.reducerPlaced(
                        static_cast<uint32_t>(reducer_servers_.size() - 1),
                        s.id(), cluster_.now());
                }
                progress = true;
                ++placed;
            }
        }
        if (!progress) {
            throw std::runtime_error(
                "not enough reduce slots for requested reducers");
        }
    }
}

void
Job::releaseReducerSlots()
{
    for (uint32_t server : reducer_servers_) {
        cluster_.server(server).releaseReduceSlot(cluster_.now());
    }
}

void
Job::placeReducers()
{
    acquireReducerSlots();
    reducer_records_.assign(config_.num_reducers, 0);
    for (uint32_t r = 0; r < config_.num_reducers; ++r) {
        reducers_.push_back(reducer_factory_());
    }

    // Reduce-side fault tolerance: take a pristine checkpoint of every
    // reducer that supports state capture, and arm the first injected
    // crash. Reducers without checkpoint support never crash (the
    // framework cannot roll their state back).
    reduce_exec_.assign(config_.num_reducers, ReduceExec{});
    reduce_ft_ = injector_.plan().reduce_crash_prob > 0.0;
    if (reduce_ft_) {
        for (uint32_t r = 0; r < config_.num_reducers; ++r) {
            ReduceExec& rx = reduce_exec_[r];
            rx.supported = syncCheckpoint(r);
            if (rx.supported) {
                armReduceCrash(r);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Job: scheduling
// ---------------------------------------------------------------------------

int64_t
Job::nextLocalTaskForServer(uint32_t server)
{
    // Queues are purged lazily: a task may appear in several queues,
    // only its state is authoritative.
    std::deque<uint64_t>& local_q = local_pending_[server];
    while (!local_q.empty()) {
        uint64_t t = local_q.front();
        local_q.pop_front();
        if (tasks_[t].state == TaskState::kPending) {
            return static_cast<int64_t>(t);
        }
    }
    return -1;
}

int64_t
Job::nextGlobalTask(uint32_t server, bool& local)
{
    while (!pending_order_.empty()) {
        uint64_t t = pending_order_.front();
        pending_order_.pop_front();
        if (tasks_[t].state == TaskState::kPending) {
            local = namenode_.isLocal(tasks_[t].block, server);
            return static_cast<int64_t>(t);
        }
    }
    return -1;
}

void
Job::scheduleLoop()
{
    // Draining servers whose last slot was just returned leave the
    // fleet before any new placement decisions are made.
    maybeRetireDrained();
    // Pass 1: satisfy block locality — every server first picks tasks
    // whose input it holds. Pass 2: round-robin the remaining pending
    // tasks one slot at a time so no single server swallows the queue
    // (mirrors Hadoop's per-heartbeat assignment). Pass 2 visits
    // servers fastest-first so remote work lands on the quickest free
    // machine; the sort is stable over ids, so a homogeneous fleet
    // keeps the exact legacy id-order (bit-identical schedules).
    if (pending_count_ > 0) {
        for (sim::Server& s : cluster_.servers()) {
            if (s.state() != sim::ServerState::kActive) {
                continue;
            }
            while (s.freeMapSlots() > 0 && pending_count_ > 0 &&
                   slotBudgetLeft()) {
                int64_t t = nextLocalTaskForServer(s.id());
                if (t < 0) {
                    break;
                }
                startAttempt(static_cast<uint64_t>(t), s.id(), true);
            }
        }
        std::vector<uint32_t> order;
        order.reserve(cluster_.numServers());
        for (const sim::Server& s : cluster_.servers()) {
            order.push_back(s.id());
        }
        std::stable_sort(order.begin(), order.end(),
                         [this](uint32_t a, uint32_t b) {
                             return cluster_.server(a).speed() >
                                    cluster_.server(b).speed();
                         });
        bool progress = true;
        while (progress && pending_count_ > 0 && slotBudgetLeft()) {
            progress = false;
            for (uint32_t id : order) {
                sim::Server& s = cluster_.server(id);
                if (s.state() != sim::ServerState::kActive ||
                    s.freeMapSlots() == 0 || pending_count_ == 0 ||
                    !slotBudgetLeft()) {
                    continue;
                }
                // Prefer a (newly exposed) local task even in pass 2.
                int64_t t = nextLocalTaskForServer(s.id());
                bool local = t >= 0;
                if (t < 0) {
                    t = nextGlobalTask(s.id(), local);
                }
                if (t < 0) {
                    continue;
                }
                startAttempt(static_cast<uint64_t>(t), s.id(), local);
                progress = true;
            }
        }
    }
    maybeSpeculate();
    if (config_.s3_when_drained) {
        maybeSleepServers();
    }
    // Every path that retires an attempt or drains a retry waiter ends
    // here, so this is the single quiesce detector for suspension.
    maybeFinishSuspend();
}

/**
 * Read-cost multiplier for a map attempt that cannot run block-local:
 * the block ships over the 1 Gb interconnect.
 */
constexpr double kRemoteReadPenalty = 1.3;

void
Job::startAttempt(uint64_t task_id, uint32_t server, bool local)
{
    MapTaskInfo& task = tasks_[task_id];
    TaskExec& exec = exec_[task_id];
    sim::Server& srv = cluster_.server(server);
    srv.acquireMapSlot(cluster_.now());
    ++held_map_slots_;
    ++counters_.map_slots_acquired;
    ++counters_.map_attempts_launched;

    if (task.state == TaskState::kPending) {
        assert(pending_count_ > 0);
        --pending_count_;
        ++running_count_;
        task.state = TaskState::kRunning;
        if (exec.attempts.empty()) {
            // Fresh task (not a post-failure retry): freeze its wave,
            // flags, and sample. Retries keep all of these — the task is
            // statistically the same cluster whichever attempt runs it.
            task.start_time = cluster_.now();
            task.sampling_ratio = pending_sampling_ratio_;
            task.approximate = rng_.bernoulli(pending_approx_fraction_);
            task.wave = static_cast<int>(
                started_count_ /
                static_cast<uint64_t>(cluster_.totalMapSlots()));
            ++started_count_;
            max_wave_ = std::max(max_wave_, task.wave);
            ++wave_counts_[task.wave].first;

            // The sample is fixed per task (not per attempt) so
            // speculative duplicates and retries compute the identical
            // result.
            Rng sample_rng = Rng::derived(seed_draw_, 0x5A5A + task_id);
            exec.sample = input_format_->select(
                task_id, task.items_total, task.sampling_ratio, sample_rng);
        }
    }

    Attempt attempt;
    attempt.server = server;
    attempt.local = local;
    attempt.start = cluster_.now();
    Rng duration_rng =
        rng_.derive(task_id * 7919 + exec.attempts.size());
    attempt.cost = config_.map_cost.durationDetailed(
        task.items_total, exec.sample.size(), srv.speed(),
        local ? 1.0 : kRemoteReadPenalty,
        config_.framework_overhead, duration_rng, task.approximate);
    size_t attempt_index = exec.attempts.size();

    // The attempt's fate (crash / straggle) is a pure function of
    // (job seed, fault-plan seed, task id, attempt index), so fault
    // injection is deterministic at any thread count.
    ft::FaultInjector::AttemptFate fate =
        injector_.attemptFate(task_id, attempt_index);
    if (fate.slowdown > 1.0) {
        attempt.cost.total *= fate.slowdown;
        attempt.cost.startup *= fate.slowdown;
        attempt.cost.read *= fate.slowdown;
        attempt.cost.process *= fate.slowdown;
        attempt.cost.straggler = true;
    }
    if (fate.crashes) {
        // The attempt dies partway through. Its slot stays held and the
        // JobTracker stays oblivious until the heartbeat timeout expires
        // (onAttemptCrashed schedules the detection event).
        attempt.event = cluster_.events().scheduleAfter(
            attempt.cost.total * fate.crash_fraction,
            [this, task_id, attempt_index] {
                onAttemptCrashed(task_id, attempt_index);
            });
    } else {
        attempt.event = cluster_.events().scheduleAfter(
            attempt.cost.total,
            [this, task_id, attempt_index] {
                onAttemptFinish(task_id, attempt_index);
            });
    }
    if (pool_ != nullptr && !fate.crashes) {
        // Every attempt that will finish queues the task at its
        // scheduled finish, so the earliest one (a speculative twin, say)
        // sets its turn; a task whose attempts all crash before it is
        // absorbed is never computed at all.
        deferred_compute_.emplace(cluster_.now() + attempt.cost.total,
                                  task_id);
        fillComputeWindow();
    }
    exec.attempts.push_back(attempt);
    if (obs_ != nullptr) {
        obs_->trace.mapAttemptStart(task_id, attempt_index, server,
                                    task.wave, task.sampling_ratio,
                                    task.approximate, cluster_.now());
    }
}

void
Job::maybeSpeculate()
{
    if (pending_count_ > 0 || held_count_ > 0 || running_count_ == 0 ||
        completed_duration_count_ == 0) {
        return;
    }
    double mean_duration =
        completed_duration_sum_ /
        static_cast<double>(completed_duration_count_);
    double threshold = config_.speculation_threshold * mean_duration;
    // End-game window (the shuttle job_tracker's left_percent design):
    // with only a tail of maps left, a single straggler holds the whole
    // makespan hostage, so duplicate anything slower than the *mean* —
    // even when classic speculation is off or its higher threshold has
    // not tripped yet.
    bool endgame =
        config_.endgame_left_percent > 0.0 &&
        static_cast<double>(remainingMaps()) * 100.0 <=
            config_.endgame_left_percent *
                static_cast<double>(tasks_.size());
    if (!config_.speculation && !endgame) {
        return;
    }

    for (MapTaskInfo& task : tasks_) {
        if (task.state != TaskState::kRunning) {
            continue;
        }
        TaskExec& exec = exec_[task.task_id];
        // Only tasks with exactly one live attempt are eligible: a
        // second live attempt means we already speculated, and failed
        // (done) attempts of a retried task do not count against it.
        const Attempt* active = nullptr;
        size_t active_count = 0;
        for (const Attempt& a : exec.attempts) {
            if (!a.done) {
                active = &a;
                ++active_count;
            }
        }
        if (active_count != 1) {
            continue;
        }
        double elapsed = cluster_.now() - active->start;
        bool classic = config_.speculation && elapsed > threshold;
        bool tail = endgame && elapsed > mean_duration;
        if (!classic && !tail) {
            continue;
        }
        if (!slotBudgetLeft()) {
            return;  // the job's arbitrated share is fully used
        }
        if (!speculateTask(task.task_id, !classic)) {
            return;  // no free slots anywhere
        }
    }
}

bool
Job::speculateTask(uint64_t task_id, bool endgame)
{
    MapTaskInfo& task = tasks_[task_id];
    // Find a free slot, preferring a replica holder; among candidates
    // take the fastest machine (a speculative twin only helps if it can
    // beat the original). The strictly-greater comparison keeps the
    // legacy first-found choice on homogeneous fleets, so schedules
    // there stay bit-identical to pre-elasticity builds.
    int64_t chosen = -1;
    auto consider = [&](const sim::Server& srv) {
        if (srv.state() == sim::ServerState::kActive &&
            srv.freeMapSlots() > 0 &&
            (chosen < 0 ||
             srv.speed() >
                 cluster_.server(static_cast<uint32_t>(chosen)).speed())) {
            chosen = srv.id();
        }
    };
    for (uint32_t s : namenode_.replicas(task.block)) {
        consider(cluster_.server(s));
    }
    // Without a free replica holder, whatever qualifies is remote.
    bool local = chosen >= 0;
    if (!local) {
        for (const sim::Server& srv : cluster_.servers()) {
            consider(srv);
        }
    }
    if (chosen < 0) {
        return false;
    }
    task.speculated = true;
    ++counters_.maps_speculated;
    if (endgame) {
        ++counters_.maps_endgame_speculated;
    }
    startAttempt(task_id, static_cast<uint32_t>(chosen), local);
    return true;
}

void
Job::onAttemptFinish(uint64_t task_id, size_t attempt_index)
{
    MapTaskInfo& task = tasks_[task_id];
    TaskExec& exec = exec_[task_id];
    assert(task.state == TaskState::kRunning);

    Attempt& winner = exec.attempts[attempt_index];
    assert(!winner.done && !winner.failed);
    winner.done = true;
    releaseAttemptSlot(winner);

    // Cancel losing attempts and free their slots.
    for (size_t a = 0; a < exec.attempts.size(); ++a) {
        if (!exec.attempts[a].done) {
            endAttempt(task_id, a, "cancelled");
            ++counters_.map_attempts_cancelled;
        }
    }

    // Obtain the user map function's real output. In parallel mode the
    // pool computed it, is computing it, or has not started it; get()
    // runs an unstarted computation here, and while a worker runs it,
    // runs other queued computations here instead of waiting. It
    // rethrows any user exception here, exactly where serial mode would
    // have thrown it. A task the window never submitted computes
    // inline, as in serial mode.
    std::vector<MapOutputChunk> chunks;
    if (exec.pending_output.valid()) {
        chunks = exec.pending_output.get();
        --outputs_in_flight_;
    } else {
        std::unique_ptr<Mapper> mapper = mapper_factory_();
        chunks = computeMapOutput(task_id, task.items_total,
                                  task.approximate, std::move(mapper));
    }
    if (pool_ != nullptr) {
        fillComputeWindow();
    }

    // Shuffle-transfer integrity: every chunk's checksum is verified at
    // reduce delivery. A corrupted fetch is retried against the stored
    // map output; if retries are exhausted the map output itself is
    // declared lost and the task fails exactly like an attempt crash
    // (Hadoop's "too many fetch failures" re-execution path).
    if (!fetchVerified(task_id, chunks)) {
        ++task.failed_attempts;
        ++counters_.map_outputs_lost;
        counters_.wasted_attempt_seconds += cluster_.now() - winner.start;
        if (obs_ != nullptr) {
            obs_->trace.mapAttemptFinish(task_id, attempt_index,
                                         "output-lost", cluster_.now());
            obs_->trace.mapOutputLost(task_id, cluster_.now());
        }
        resolveFailure(task_id);
        return;
    }

    task.server = winner.server;
    task.local = winner.local;
    task.items_processed =
        chunks.empty() ? exec.sample.size() : chunks[0].items_processed;
    task.records_skipped = chunks.empty() ? 0 : chunks[0].records_skipped;
    counters_.bad_records_skipped += task.records_skipped;
    task.startup_time = winner.cost.startup;
    task.read_time = winner.cost.read;
    task.process_time = winner.cost.process;
    --running_count_;
    finishTask(task_id, TaskState::kCompleted);
    counters_.items_read += task.items_total;
    counters_.items_processed += task.items_processed;
    if (winner.local) {
        ++counters_.local_maps;
    } else {
        ++counters_.remote_maps;
    }
    completed_duration_sum_ += task.duration();
    ++completed_duration_count_;
    if (obs_ != nullptr) {
        obs_->trace.mapAttemptFinish(task_id, attempt_index, "completed",
                                     cluster_.now());
        obs_->metrics.histogram("map_task_duration_s")
            .observe(task.duration());
    }

    deliverChunks(task_id, std::move(chunks));

    // Refill the freed slots before notifying the controller so wave
    // indices stay contiguous.
    scheduleLoop();

    if (controller_ != nullptr) {
        JobHandle handle(*this);
        controller_->onMapComplete(handle, task);
    }
    checkWaveCompletion(task.wave);
    checkMapPhaseDone();

    // Mid-wave interval epoch (bounds replay when waves are long). Wave
    // and final epochs reset the interval counter, and the map-phase
    // transition above supersedes any half-full interval.
    if (epoch_sink_ != nullptr && config_.journal_map_interval > 0 &&
        !map_phase_done_ &&
        ++maps_since_epoch_ >= config_.journal_map_interval) {
        captureEpoch(journal::Epoch::kInterval, -1);
    }
}

void
Job::endAttempt(uint64_t task_id, size_t attempt_index, const char* outcome)
{
    Attempt& a = exec_[task_id].attempts[attempt_index];
    assert(!a.done);
    // No-op when the attempt's own event is what brought us here.
    cluster_.events().cancel(a.event);
    releaseAttemptSlot(a);
    a.done = true;
    counters_.wasted_attempt_seconds += cluster_.now() - a.start;
    if (obs_ != nullptr) {
        obs_->trace.mapAttemptFinish(task_id, attempt_index, outcome,
                                     cluster_.now());
    }
}

void
Job::finishTask(uint64_t task_id, TaskState state)
{
    MapTaskInfo& task = tasks_[task_id];
    assert(!isTerminal(task.state));
    task.state = state;
    task.finish_time = cluster_.now();
    releaseMapOutput(task_id);
    ++terminal_count_;
    switch (state) {
    case TaskState::kCompleted:
        ++counters_.maps_completed;
        break;
    case TaskState::kKilled:
        ++counters_.maps_killed;
        break;
    case TaskState::kAbsorbed:
        ++counters_.maps_absorbed;
        break;
    case TaskState::kDropped:
        // Dropped tasks never count toward a wave.
        ++counters_.maps_dropped;
        return;
    default:
        assert(false && "finishTask needs a terminal state");
    }
    ++wave_counts_[task.wave].second;
}

void
Job::cancelTask(uint64_t task_id)
{
    switch (tasks_[task_id].state) {
    case TaskState::kPending:
        --pending_count_;
        finishTask(task_id, TaskState::kDropped);
        return;
    case TaskState::kHeld:
        --held_count_;
        finishTask(task_id, TaskState::kDropped);
        return;
    case TaskState::kRunning: {
        const std::vector<Attempt>& attempts = exec_[task_id].attempts;
        for (size_t a = 0; a < attempts.size(); ++a) {
            if (!attempts[a].done) {
                endAttempt(task_id, a, "killed");
                ++counters_.map_attempts_cancelled;
            }
        }
        --running_count_;
        break;
    }
    case TaskState::kAwaitingRetry:
        cluster_.events().cancel(exec_[task_id].retry_event);
        exec_[task_id].retry_event = 0;
        --retry_wait_count_;
        break;
    default:
        return;  // already terminal
    }
    finishTask(task_id, TaskState::kKilled);
}

// ---------------------------------------------------------------------------
// Job: failure handling (src/ft/ wiring)
// ---------------------------------------------------------------------------

sim::SimTime
Job::detectionTime(sim::SimTime attempt_start, sim::SimTime crash_time) const
{
    double timeout = config_.task_timeout_ms / 1000.0;
    if (timeout <= 0.0) {
        return crash_time;  // oracle detection (unit-test mode)
    }
    double hb = config_.heartbeat_interval_ms / 1000.0;
    sim::SimTime last_heartbeat = crash_time;
    if (hb > 0.0) {
        // Heartbeats tick at start + k*hb; the tracker's expiry clock
        // restarts at the last one that made it out before the crash.
        double periods = std::floor((crash_time - attempt_start) / hb);
        last_heartbeat = attempt_start + periods * hb;
    }
    return std::max(crash_time, last_heartbeat + timeout);
}

void
Job::onAttemptCrashed(uint64_t task_id, size_t attempt_index)
{
    // The attempt dies silently: its slot stays occupied, speculation
    // still sees a "running" attempt, and nothing is rescheduled until
    // the JobTracker's expiry timer fires. This is exactly Hadoop's
    // failure model — workers are detected dead, never announced dead.
    Attempt& a = exec_[task_id].attempts[attempt_index];
    assert(!a.done && !a.crashed);
    a.crashed = true;
    a.crashed_at = cluster_.now();
    if (obs_ != nullptr) {
        obs_->trace.mapAttemptCrash(task_id, attempt_index, cluster_.now());
    }
    sim::SimTime detect_at = detectionTime(a.start, a.crashed_at);
    if (detect_at <= cluster_.now()) {
        onAttemptDeclaredDead(task_id, attempt_index);
        return;
    }
    a.event = cluster_.events().schedule(
        detect_at, [this, task_id, attempt_index] {
            onAttemptDeclaredDead(task_id, attempt_index);
        });
}

void
Job::onAttemptDeclaredDead(uint64_t task_id, size_t attempt_index)
{
    Attempt& a = exec_[task_id].attempts[attempt_index];
    assert(!a.done && a.crashed);
    noteHeartbeatTimeout(task_id, attempt_index, a.crashed_at);
    onAttemptFailed(task_id, attempt_index);
}

void
Job::noteHeartbeatTimeout(uint64_t task_id, size_t attempt_index,
                          sim::SimTime crashed_at)
{
    double wait = cluster_.now() - crashed_at;
    if (wait > 0.0) {
        ++counters_.timeouts_detected;
        counters_.detection_wait_seconds += wait;
        if (obs_ != nullptr) {
            obs_->trace.heartbeatTimeout(task_id, attempt_index, wait,
                                         cluster_.now());
        }
    }
}

void
Job::onOrphanDetected(uint64_t task_id, sim::SimTime crashed_at)
{
    // The task's attempt died with its server; by the time the timeout
    // expires a speculative twin may have completed the task or another
    // detection may have resolved it already.
    if (tasks_[task_id].state != TaskState::kRunning) {
        return;
    }
    for (const Attempt& att : exec_[task_id].attempts) {
        if (!att.done) {
            return;  // a live twin may still complete the task
        }
    }
    noteHeartbeatTimeout(task_id, exec_[task_id].attempts.size() - 1,
                         crashed_at);
    resolveFailure(task_id);
}

void
Job::releaseAttemptSlot(const Attempt& attempt)
{
    cluster_.server(attempt.server).releaseMapSlot(cluster_.now());
    assert(held_map_slots_ > 0);
    --held_map_slots_;
    ++counters_.map_slots_released;
    counters_.map_slot_seconds += cluster_.now() - attempt.start;
}

void
Job::failAttempt(uint64_t task_id, size_t attempt_index)
{
    endAttempt(task_id, attempt_index, "failed");
    exec_[task_id].attempts[attempt_index].failed = true;
    ++tasks_[task_id].failed_attempts;
    ++counters_.map_attempts_failed;
}

void
Job::onAttemptFailed(uint64_t task_id, size_t attempt_index)
{
    assert(tasks_[task_id].state == TaskState::kRunning);
    failAttempt(task_id, attempt_index);

    for (const Attempt& a : exec_[task_id].attempts) {
        if (!a.done) {
            // A speculative twin is still running; it may yet complete
            // the task, so no retry/absorb decision is due.
            scheduleLoop();
            return;
        }
    }
    resolveFailure(task_id);
}

void
Job::resolveFailure(uint64_t task_id)
{
    // The task leaves the running count before the controller rules on
    // it, yet still reads kRunning through JobHandle::mapTask().
    --running_count_;
    MapTaskInfo& task = tasks_[task_id];
    bool absorb = false;
    switch (config_.failure_mode) {
    case ft::FailureMode::kRetry:
        break;
    case ft::FailureMode::kAbsorb:
        absorb = true;
        break;
    case ft::FailureMode::kAuto:
        if (controller_ != nullptr) {
            JobHandle handle(*this);
            absorb = controller_->onMapFailure(handle, task,
                                               task.failed_attempts) ==
                     FailureAction::kAbsorb;
        } else {
            // Headless default: absorb while the sample keeps enough
            // clusters to stay useful.
            double would_be_dropped = static_cast<double>(
                counters_.maps_dropped + counters_.maps_killed +
                counters_.maps_absorbed + 1);
            absorb = would_be_dropped /
                         static_cast<double>(counters_.maps_total) <=
                     config_.recovery.auto_absorb_cap;
        }
        break;
    }
    if (!absorb && task.failed_attempts >= config_.recovery.max_attempts) {
        if (config_.failure_mode == ft::FailureMode::kRetry) {
            // Stock-Hadoop semantics: a task out of attempts fails the
            // whole job.
            failJob(task_id, "map task " + std::to_string(task_id) +
                                 " failed " +
                                 std::to_string(task.failed_attempts) +
                                 " attempts (max_attempts exhausted)");
            return;
        }
        // kAuto chose retry but no attempts remain: absorbing is always
        // statistically valid, failing the job never is.
        absorb = true;
    }
    if (absorb) {
        // Its chunk is never delivered: the reducers see one cluster
        // fewer, which widens the confidence interval exactly as
        // dropping does.
        finishTask(task_id, TaskState::kAbsorbed);
        if (obs_ != nullptr) {
            obs_->trace.taskAbsorbed(task_id, cluster_.now());
        }
        scheduleLoop();
        checkWaveCompletion(task.wave);
        checkMapPhaseDone();
        return;
    }
    task.state = TaskState::kAwaitingRetry;
    ++retry_wait_count_;
    ++counters_.maps_retried;
    double delay = config_.recovery.backoffDelay(task.failed_attempts);
    if (obs_ != nullptr) {
        obs_->trace.retryScheduled(task_id, delay, cluster_.now());
    }
    exec_[task_id].retry_event = cluster_.events().scheduleAfter(
        delay, [this, task_id] { requeueTask(task_id); });
    // The freed slot can host other work during the backoff.
    scheduleLoop();
}

void
Job::requeueTask(uint64_t task_id)
{
    MapTaskInfo& task = tasks_[task_id];
    assert(task.state == TaskState::kAwaitingRetry);
    exec_[task_id].retry_event = 0;
    --retry_wait_count_;
    task.state = TaskState::kPending;
    ++pending_count_;
    pending_order_.push_back(task_id);
    for (uint32_t s : namenode_.replicas(task.block)) {
        local_pending_[s].push_back(task_id);
    }
    scheduleLoop();
}

void
Job::failJob(uint64_t failing_task, const std::string& message)
{
    assert(!job_done_ && !job_failed_);
    job_failed_ = true;
    failure_message_ = message;
    // A suspension racing the failure resolves as not-suspended.
    cancelPendingSuspend();
    // The failing task already left the running count with every attempt
    // done and its slots returned.
    finishTask(failing_task, TaskState::kKilled);
    // The rest goes through the controller's kill/drop path, so every
    // held map slot returns to the cluster and every pending attempt,
    // detection and backoff event is cancelled. Its checkMapPhaseDone()
    // is a no-op on a failed job.
    dropAllRemaining();
    // The reducers never ran; free their slots for the next tenant.
    releaseReducerSlots();
    endJob();
    notifyCompletion();
}

void
Job::endJob()
{
    end_time_ = cluster_.now();
    // Pending driver kills die with the job: without this, a dcrash time
    // beyond the job's end would keep the event loop alive and accrue
    // idle energy the uninterrupted run never sees.
    for (sim::EventQueue::EventId id : driver_crash_events_) {
        cluster_.events().cancel(id);
    }
    driver_crash_events_.clear();
    if (obs_ != nullptr) {
        obs_->trace.endJob(cluster_.now());
    }
}

void
Job::notifyCompletion()
{
    if (!completion_handler_) {
        return;
    }
    // Moved out first so the handler fires at most once even when it
    // re-enters the job (the service admits/rebalances from inside it).
    CompletionHandler handler = std::move(completion_handler_);
    completion_handler_ = nullptr;
    handler(job_failed_, failure_message_);
}

void
Job::onServerCrash(ft::FaultPlan::ServerCrash crash)
{
    if (job_failed_) {
        return;
    }
    crashOneServer(crash.server, crash.down_for, /*leave_fleet=*/false);
}

void
Job::crashOneServer(uint32_t server, double down_for, bool leave_fleet)
{
    sim::Server& srv = cluster_.server(server);
    if (srv.state() == sim::ServerState::kFailed || srv.departed()) {
        return;  // still down from an earlier crash, or already gone
    }
    ++counters_.server_crashes;
    if (obs_ != nullptr) {
        obs_->trace.serverCrash(server, cluster_.now());
    }

    // Every in-flight attempt hosted by the dying server dies with it.
    // Detection, however, is heartbeat-based: the JobTracker only learns
    // of each death once the attempt's timeout expires, so resolution
    // (retry/absorb) is deferred to a scheduled detection event.
    struct Orphan
    {
        uint64_t task;
        size_t attempt;
        sim::SimTime crashed_at;
        sim::SimTime detect_at;
    };
    std::vector<Orphan> affected;
    for (const MapTaskInfo& task : tasks_) {
        if (task.state != TaskState::kRunning) {
            continue;
        }
        const TaskExec& exec = exec_[task.task_id];
        for (size_t a = 0; a < exec.attempts.size(); ++a) {
            const Attempt& att = exec.attempts[a];
            if (att.done || att.server != server) {
                continue;
            }
            // An attempt that had already crashed silently keeps its
            // original expiry clock; the server crash does not reset it.
            sim::SimTime crashed_at =
                att.crashed ? att.crashed_at : cluster_.now();
            affected.push_back({task.task_id, a, crashed_at,
                                detectionTime(att.start, crashed_at)});
        }
    }
    // Fail the attempts first so the server's map slots are free, which
    // Server::fail() asserts; reduce slots survive (reducer state is
    // checkpointed, see DESIGN.md). failAttempt also cancels any pending
    // per-attempt detection event, so the Orphan records below are the
    // only detectors left.
    for (const Orphan& o : affected) {
        failAttempt(o.task, o.attempt);
    }
    srv.fail(cluster_.now());
    if (leave_fleet) {
        // Permanent revocation: the victim leaves the fleet for good and
        // its energy meter stops (kRetired draws 0 W, unlike kFailed
        // machines which also draw 0 W but may be repaired).
        srv.retire(cluster_.now());
        ++counters_.servers_retired;
        if (obs_ != nullptr) {
            obs_->trace.serverRetired(server, cluster_.now());
        }
    }
    // Schedule detection for the orphaned tasks; retries will land on
    // the surviving servers. Several detectors may target one task (twin
    // attempts): onOrphanDetected no-ops once the task left kRunning.
    for (const Orphan& o : affected) {
        if (o.detect_at <= cluster_.now()) {
            onOrphanDetected(o.task, o.crashed_at);
        } else {
            cluster_.events().schedule(
                o.detect_at, [this, task = o.task, at = o.crashed_at] {
                    onOrphanDetected(task, at);
                });
        }
    }
    if (!leave_fleet && down_for >= 0.0) {
        cluster_.events().scheduleAfter(down_for, [this, server] {
            sim::Server& s = cluster_.server(server);
            if (s.state() == sim::ServerState::kFailed) {
                s.repair(cluster_.now());
                if (obs_ != nullptr) {
                    obs_->trace.serverRepair(server, cluster_.now());
                }
                scheduleLoop();
            }
        });
    }
}

std::vector<uint32_t>
Job::shrinkableServers() const
{
    std::vector<uint32_t> ids;
    for (const sim::Server& s : cluster_.servers()) {
        if (s.state() == sim::ServerState::kActive ||
            s.state() == sim::ServerState::kLowPower) {
            ids.push_back(s.id());
        }
    }
    if (ids.size() <= 1) {
        ids.clear();
    }
    return ids;
}

void
Job::onRevocationStorm(ft::FaultPlan::Revocation storm, size_t storm_index)
{
    if (job_done_ || job_failed_) {
        return;
    }
    std::vector<uint32_t> eligible = shrinkableServers();
    if (eligible.empty()) {
        return;
    }
    uint32_t kills = std::min(
        storm.count, static_cast<uint32_t>(eligible.size() - 1));
    // Victim choice is a pure function of (job seed, plan seed, storm
    // index) — never rng_, whose draw sequence the workload owns —
    // so the same storm hits the same machines at any thread count.
    Rng storm_rng = Rng(config_.seed ^ config_.fault_plan.seed)
                        .derive(0xF1EE7 + storm_index);
    for (uint32_t k = 0; k < kills; ++k) {
        uint64_t j = k + storm_rng.uniformInt(eligible.size() - k);
        std::swap(eligible[k], eligible[j]);
    }
    counters_.servers_revoked += kills;
    if (obs_ != nullptr) {
        obs_->trace.revocationStorm(kills, cluster_.now());
    }
    bool permanent = storm.down_for < 0.0;
    for (uint32_t k = 0; k < kills; ++k) {
        crashOneServer(eligible[k], storm.down_for, permanent);
    }
}

void
Job::onScaleOut(ft::FaultPlan::ScaleOut add)
{
    if (job_done_ || job_failed_) {
        return;
    }
    uint32_t first = cluster_.addServers(
        add.count, sim::ServerClass::byName(add.server_class, add.count));
    // Joiners hold no block replicas, so they only ever appear in the
    // global (remote) queue; the per-server locality queues just grow.
    local_pending_.resize(cluster_.numServers());
    counters_.servers_added += add.count;
    if (obs_ != nullptr) {
        obs_->trace.serversAdded(add.count, first, add.server_class,
                                 cluster_.now());
    }
    scheduleLoop();
}

void
Job::onDrain(ft::FaultPlan::Drain drain)
{
    if (job_done_ || job_failed_) {
        return;
    }
    std::vector<uint32_t> eligible = shrinkableServers();
    if (eligible.empty()) {
        return;
    }
    uint32_t n = std::min(
        drain.count, static_cast<uint32_t>(eligible.size() - 1));
    // LIFO scale-in: release the newest (highest-numbered) capacity
    // first, the way autoscalers return the machines they added last.
    for (uint32_t k = 0; k < n; ++k) {
        uint32_t id = eligible[eligible.size() - 1 - k];
        cluster_.server(id).beginDrain(cluster_.now());
        ++counters_.servers_drained;
        if (obs_ != nullptr) {
            obs_->trace.serverDraining(id, cluster_.now());
        }
    }
    maybeRetireDrained();
}

void
Job::maybeRetireDrained()
{
    for (sim::Server& s : cluster_.servers()) {
        if (s.state() == sim::ServerState::kDraining &&
            s.busyMapSlots() == 0 && s.busyReduceSlots() == 0) {
            s.retire(cluster_.now());
            ++counters_.servers_retired;
            if (obs_ != nullptr) {
                obs_->trace.serverRetired(s.id(), cluster_.now());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Job: data path
// ---------------------------------------------------------------------------

std::vector<MapOutputChunk>
Job::computeMapOutput(uint64_t task_id, uint64_t items_total,
                      bool approximate, std::unique_ptr<Mapper> mapper) const
{
    const TaskExec& exec = exec_[task_id];
    // Bad-record skipping (Hadoop's mapred.skip.mode): records the fault
    // plan marks unparseable are dropped before mapping. The survivors
    // are still a uniform random sample of the cluster — each record's
    // badness is independent of its position — so skipping only shrinks
    // m_i and folds into the within-cluster variance term M(M-m)s²/m.
    std::vector<uint64_t> good;
    good.reserve(exec.sample.size());
    uint64_t skipped = 0;
    if (injector_.plan().bad_record_prob > 0.0) {
        for (uint64_t index : exec.sample) {
            if (injector_.recordBad(task_id, index)) {
                ++skipped;
            } else {
                good.push_back(index);
            }
        }
    } else {
        good.assign(exec.sample.begin(), exec.sample.end());
    }
    // Task randomness derives from the seed + task id only, so results do
    // not depend on scheduling order, speculation, or which thread runs
    // the computation.
    MapContext ctx(task_id, items_total, good.size(), approximate,
                   Rng::derived(seed_draw_, 0xA11CE + task_id));
    mapper->setup(ctx);
    // Batched execution: the task's records are materialized with one
    // readItems call into a reusable arena — a full-block read there is
    // what lets the dataset synthesize the whole block at once and keep
    // it in the block cache — then handed to the mapper kBatchRecords at
    // a time, so the mapper pays one virtual dispatch per batch instead
    // of per record. The batched path emits exactly what per-record
    // map() calls over item() would (asserted by
    // tests/apps/map_batch_test.cc and cross-checked by the chaos
    // oracle's record-at-a-time replay).
    constexpr size_t kBatchRecords = 256;
    hdfs::RecordBuffer batch;
    dataset_.readItems(task_id, good.data(), good.size(), batch);
    assert(batch.size() == good.size());
    std::vector<std::string_view> views;
    views.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        views.push_back(batch.record(i));
    }
    for (size_t pos = 0; pos < views.size(); pos += kBatchRecords) {
        size_t n = std::min(kBatchRecords, views.size() - pos);
        mapper->mapBatch(views.data() + pos, n, ctx);
    }
    mapper->cleanup(ctx);

    RecordWriter& output = ctx.output();
    if (combiner_ != nullptr && !output.empty()) {
        // Map-side combine on the task's key ids: a stable counting sort
        // gathers each key's rows contiguously (emission order
        // preserved), then keys are folded in sorted-key order — the
        // same record-for-record output the former std::map grouping
        // produced, without per-record node allocation or per-key string
        // re-hashing. The shared combiner instance runs concurrently for
        // every in-flight task in parallel mode, so combiners must be
        // stateless across calls (see combiner.h).
        const KeyInterner& keys = output.keys();
        size_t nkeys = keys.size();
        std::vector<size_t> starts(nkeys + 1, 0);
        for (const Row& row : output) {
            ++starts[row.key + 1];
        }
        for (size_t k = 0; k < nkeys; ++k) {
            starts[k + 1] += starts[k];
        }
        std::vector<Row> grouped(output.size());
        {
            std::vector<size_t> cursor(starts.begin(), starts.end() - 1);
            for (const Row& row : output) {
                grouped[cursor[row.key]++] = row;
            }
        }
        std::vector<uint32_t> order(nkeys);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&keys](uint32_t a, uint32_t b) {
                      return keys.key(a) < keys.key(b);
                  });
        RecordWriter combined;
        combined.reserve(nkeys);
        // Every id was interned from a row, so each group is non-empty.
        for (uint32_t id : order) {
            combiner_->combine(keys.key(id), grouped.data() + starts[id],
                               starts[id + 1] - starts[id], combined);
        }
        output = std::move(combined);
    }
    std::vector<MapOutputChunk> chunks(config_.num_reducers);
    for (uint32_t r = 0; r < config_.num_reducers; ++r) {
        chunks[r].map_task = task_id;
        chunks[r].items_total = items_total;
        chunks[r].items_processed = good.size();
        chunks[r].records_skipped = skipped;
    }
    if (config_.num_reducers == 1) {
        // Single partition: the task's rows and key table become the
        // chunk's wholesale (no per-record partitioning or copying).
        chunks[0].assign(std::move(output));
    } else if (!output.empty()) {
        // Partition once per distinct key, in id order (the order of
        // each key's first row). Each chunk gets its own key table: a
        // key joins it at its first row there, so the chunk's ids also
        // follow first-row order. Rows and keys are counted first so
        // each chunk's memory is one exact allocation per array.
        const KeyInterner& keys = output.keys();
        const uint32_t parts = config_.num_reducers;
        std::vector<uint32_t> part_of_id(keys.size());
        std::vector<size_t> rows_in(parts, 0);
        std::vector<size_t> keys_in(parts, 0);
        std::vector<size_t> bytes_in(parts, 0);
        for (uint32_t id = 0; id < keys.size(); ++id) {
            std::string_view key = keys.key(id);
            uint32_t p = partitioner_->partition(std::string(key), parts);
            part_of_id[id] = p;
            ++keys_in[p];
            bytes_in[p] += key.size();
        }
        for (const Row& row : output) {
            ++rows_in[part_of_id[row.key]];
        }
        for (uint32_t r = 0; r < parts; ++r) {
            chunks[r].records.reserve(rows_in[r]);
            chunks[r].keys.reserve(keys_in[r], bytes_in[r]);
        }
        constexpr uint32_t kNoId = 0xFFFFFFFFu;
        std::vector<uint32_t> chunk_id(keys.size(), kNoId);
        for (const Row& row : output) {
            MapOutputChunk& chunk = chunks[part_of_id[row.key]];
            uint32_t& id = chunk_id[row.key];
            if (id == kNoId) {
                id = chunk.keys.add(keys.key(row.key));
            }
            chunk.records.push_back(row);
            chunk.records.back().key = id;
        }
    }
    // Checksum at emit time: the map side stamps, the reduce side
    // verifies on every fetch (fetchVerified).
    for (MapOutputChunk& chunk : chunks) {
        integrity::stampChunk(chunk);
    }
    return chunks;
}

void
Job::fillComputeWindow()
{
    // Outputs are merged in simulated-finish order, so the ones due
    // first are computed first; a worker running further ahead would
    // only park its output in memory until the driver reaches it.
    const size_t window = kRunAheadPerThread * pool_->numThreads();
    while (outputs_in_flight_ < window && !deferred_compute_.empty()) {
        uint64_t task_id = deferred_compute_.top().second;
        deferred_compute_.pop();
        // Entries are dropped lazily: the task may have ended (killed,
        // absorbed, dropped, completed inline) while it waited.
        if (isTerminal(tasks_[task_id].state) ||
            exec_[task_id].pending_output.valid()) {
            continue;
        }
        launchMapCompute(task_id);
    }
}

void
Job::releaseMapOutput(uint64_t task_id)
{
    // A computation no thread has started is never started; one that
    // has runs on, and its result is freed as soon as it is written.
    TaskHandle<std::vector<MapOutputChunk>>& output =
        exec_[task_id].pending_output;
    if (output.valid()) {
        output.cancel();
        --outputs_in_flight_;
    }
}

void
Job::launchMapCompute(uint64_t task_id)
{
    // The factory runs on the driver thread (factories may share app
    // state); only the pure computation moves to the pool. Everything the
    // worker reads — the sample, the flags passed by value, the dataset —
    // is frozen before submit() and never written again, and submit()'s
    // internal lock publishes those writes to the worker.
    MapTaskInfo& task = tasks_[task_id];
    std::unique_ptr<Mapper> mapper = mapper_factory_();
    ++outputs_in_flight_;
    exec_[task_id].pending_output =
        pool_->submit([this, task_id, items_total = task.items_total,
                       approximate = task.approximate,
                       mapper = std::move(mapper)]() mutable {
            return computeMapOutput(task_id, items_total, approximate,
                                    std::move(mapper));
        });
}

void
Job::deliverChunks(uint64_t task_id, std::vector<MapOutputChunk>&& chunks)
{
    // Only a completed task may shuffle, and only once: partial or
    // combiner-folded output of killed/failed/absorbed attempts must
    // never leak into the merge (see kill_path_test.cc).
    assert(tasks_[task_id].state == TaskState::kCompleted);
    assert(!exec_[task_id].delivered);
    exec_[task_id].delivered = true;
    assert(chunks.size() == config_.num_reducers);
    if (epoch_sink_ != nullptr) {
        // One digest per delivered map output, folded over the chunks'
        // integrity checksums: the journal's proof that the resumed run
        // shuffled byte-identical data in the identical order.
        uint64_t digest = 0xcbf29ce484222325ULL;
        for (const MapOutputChunk& c : chunks) {
            digest = (digest ^ c.checksum) * 1099511628211ULL;
        }
        epoch_delivered_.emplace_back(task_id, digest);
    }
    // Every reducer gets the chunk even when it carries no records:
    // multi-stage sampling needs each cluster's (M_i, m_i) to account for
    // implicit zeros for the keys of that partition. Consumption stays on
    // the driver thread, in simulated-completion order, so reducers need
    // no locking and estimates are schedule-independent.
    for (uint32_t r = 0; r < config_.num_reducers; ++r) {
        if (reduce_ft_) {
            ReduceExec& rx = reduce_exec_[r];
            // Injected reduce-attempt crash: fires just before this
            // chunk would be consumed, so the chunk itself is among the
            // replayed ones after restart.
            if (rx.supported && rx.crash_at != 0 &&
                rx.delivered >= rx.crash_at) {
                restartReducer(r);
            }
        }
        ++counters_.chunks_delivered;
        counters_.records_shuffled += chunks[r].records.size();
        reducer_records_[r] += chunks[r].records.size();
        reducers_[r]->consume(chunks[r]);
        if (reduce_ft_) {
            ReduceExec& rx = reduce_exec_[r];
            ++rx.delivered;
            if (rx.supported) {
                // Retain delivered-but-uncheckpointed chunks for replay;
                // a periodic checkpoint truncates the retention log.
                // Nothing reads the chunk after its consume, so it moves.
                rx.retained.push_back(std::move(chunks[r]));
                uint64_t interval = config_.reducer_checkpoint_interval;
                if (interval > 0 &&
                    rx.delivered - rx.checkpointed >= interval) {
                    bool ok = syncCheckpoint(r);
                    assert(ok);
                    (void)ok;
                    rx.checkpointed = rx.delivered;
                    rx.retained.clear();
                    ++counters_.reducer_checkpoints;
                    if (obs_ != nullptr) {
                        obs_->trace.reducerCheckpoint(r, rx.delivered,
                                                      cluster_.now());
                    }
                }
            }
        }
    }
}

bool
Job::fetchVerified(uint64_t task_id, std::vector<MapOutputChunk>& chunks)
{
    if (injector_.plan().chunk_corrupt_prob <= 0.0) {
        return true;
    }
    TaskExec& exec = exec_[task_id];
    if (exec.fetch_rounds.size() < chunks.size()) {
        exec.fetch_rounds.resize(chunks.size(), 0);
    }
    for (size_t r = 0; r < chunks.size(); ++r) {
        bool ok = false;
        for (uint32_t f = 0;
             f <= config_.recovery.shuffle_fetch_retries && !ok; ++f) {
            // The fetch-round counter persists across re-executions of
            // the producing task so every fetch rolls a fresh, still
            // deterministic corruption decision.
            uint64_t fetch_no = exec.fetch_rounds[r]++;
            if (injector_.chunkCorrupted(task_id, r, fetch_no)) {
                // Damage a copy and genuinely verify it: the checksum
                // must catch the injected bit flip, not be assumed to.
                MapOutputChunk damaged = chunks[r];
                Rng rng = Rng::derived(seed_draw_,
                                       0xC0FFEE + task_id * 1315423911ULL +
                                           r * 2654435761ULL + fetch_no);
                integrity::corruptChunk(damaged, rng);
                assert(!integrity::verifyChunk(damaged));
                ++counters_.chunks_corrupted;
                bool will_refetch =
                    f < config_.recovery.shuffle_fetch_retries;
                if (will_refetch) {
                    ++counters_.chunk_refetches;
                }
                if (obs_ != nullptr) {
                    obs_->trace.shuffleCorrupt(
                        task_id, static_cast<uint32_t>(r), will_refetch,
                        cluster_.now());
                }
                continue;
            }
            // Clean fetch: the stored map output arrives intact.
            assert(integrity::verifyChunk(chunks[r]));
            ok = true;
        }
        if (!ok) {
            return false;  // retries exhausted: map output lost
        }
    }
    return true;
}

void
Job::armReduceCrash(uint32_t reducer)
{
    ReduceExec& rx = reduce_exec_[reducer];
    ft::FaultInjector::ReduceAttemptFate fate =
        injector_.reduceAttemptFate(reducer, rx.attempt);
    // The last allowed attempt always runs clean, mirroring the map-side
    // guarantee that max_attempts bounds injected failures per task.
    if (!fate.crashes || rx.attempt + 1 >= config_.recovery.max_attempts) {
        rx.crash_at = 0;
        return;
    }
    uint64_t horizon = static_cast<uint64_t>(std::max(
        1.0, std::ceil(fate.crash_fraction
                       * static_cast<double>(tasks_.size()))));
    rx.crash_at = rx.delivered + horizon;
}

bool
Job::syncCheckpoint(uint32_t reducer)
{
    // A reducer on the default snapshot path writes its blob straight
    // into rx.state, so the copy below has nothing left to do.
    ReduceExec& rx = reduce_exec_[reducer];
    journal::ReducerImage image;
    if (!reducers_[reducer]->snapshot(rx.state, image)) {
        return false;
    }
    image.copyInto(rx.state, rx.synced);
    return true;
}

void
Job::restartReducer(uint32_t reducer)
{
    ReduceExec& rx = reduce_exec_[reducer];
    ++counters_.reduce_attempts_failed;
    ++rx.attempt;
    if (obs_ != nullptr) {
        obs_->trace.reducerRestart(reducer, rx.attempt, rx.retained.size(),
                                   cluster_.now());
    }
    // Roll back to the last checkpoint, then replay the retained chunks
    // in their original delivery order. Replay re-feeds real records, so
    // recovery costs show up in reducer_records_ (and thus in the
    // simulated reduce time), not just in counters.
    bool ok = reducers_[reducer]->restore(rx.state);
    assert(ok);
    (void)ok;
    for (const MapOutputChunk& chunk : rx.retained) {
        reducers_[reducer]->consume(chunk);
        reducer_records_[reducer] += chunk.records.size();
        ++counters_.chunks_replayed;
    }
    armReduceCrash(reducer);
}

// ---------------------------------------------------------------------------
// Job: controller operations
// ---------------------------------------------------------------------------

uint64_t
Job::dropPendingMaps(uint64_t count)
{
    std::vector<uint64_t> pending;
    for (const MapTaskInfo& t : tasks_) {
        if (t.state == TaskState::kPending) {
            pending.push_back(t.task_id);
        }
    }
    uint64_t to_drop = std::min<uint64_t>(count, pending.size());
    // The pending queue is already in random order, but choose the drop
    // set independently so repeated calls stay unbiased.
    rng_.shuffle(pending);
    for (uint64_t i = 0; i < to_drop; ++i) {
        cancelTask(pending[i]);
    }
    if (to_drop > 0) {
        checkMapPhaseDone();
    }
    return to_drop;
}

void
Job::dropAllRemaining()
{
    for (uint64_t t = 0; t < tasks_.size(); ++t) {
        cancelTask(t);
    }
    checkMapPhaseDone();
}

void
Job::holdPendingExcept(uint64_t keep)
{
    uint64_t kept = 0;
    for (uint64_t t : task_order_) {
        if (tasks_[t].state != TaskState::kPending) {
            continue;
        }
        if (kept < keep) {
            ++kept;
            continue;
        }
        tasks_[t].state = TaskState::kHeld;
        --pending_count_;
        ++held_count_;
    }
    rebuildQueues();
}

void
Job::releaseHeld()
{
    for (MapTaskInfo& t : tasks_) {
        if (t.state == TaskState::kHeld) {
            t.state = TaskState::kPending;
            --held_count_;
            ++pending_count_;
        }
    }
    rebuildQueues();
}

// ---------------------------------------------------------------------------
// Job: completion
// ---------------------------------------------------------------------------

void
Job::obsWaveSnapshot(int wave)
{
    if (obs_ == nullptr) {
        return;
    }
    // Counters are cumulative, so publish them monotonically: a wave that
    // completes out of order must never roll an instrument backwards.
    obs::MetricsRegistry& m = obs_->metrics;
    m.counter("maps_completed").advanceTo(counters_.maps_completed);
    m.counter("maps_dropped").advanceTo(counters_.maps_dropped);
    m.counter("maps_killed").advanceTo(counters_.maps_killed);
    m.counter("maps_absorbed").advanceTo(counters_.maps_absorbed);
    m.counter("map_attempts_launched")
        .advanceTo(counters_.map_attempts_launched);
    m.counter("map_attempts_failed")
        .advanceTo(counters_.map_attempts_failed);
    m.counter("items_processed").advanceTo(counters_.items_processed);
    m.counter("records_shuffled").advanceTo(counters_.records_shuffled);
    m.counter("chunks_delivered").advanceTo(counters_.chunks_delivered);
    m.gauge("pending_maps")
        .set(static_cast<double>(pending_count_ + held_count_ +
                                 retry_wait_count_));
    m.gauge("running_maps").set(static_cast<double>(running_count_));
    m.gauge("pending_sampling_ratio").set(pending_sampling_ratio_);
    m.snapshotWave(wave, cluster_.now());
}

// ---------------------------------------------------------------------------
// Job: journaling
// ---------------------------------------------------------------------------

void
Job::captureEpoch(uint32_t kind, int wave)
{
    if (epoch_sink_ == nullptr) {
        return;
    }
    journal::Epoch e;
    e.index = epoch_index_++;
    e.kind = kind;
    e.wave = wave;
    e.sim_time = cluster_.now();
    e.maps_completed = counters_.maps_completed;
    e.maps_terminal = terminal_count_;
    e.counters_blob = counters_.serialize();
    e.delivered = std::move(epoch_delivered_);
    epoch_delivered_.clear();
    {
        // The engine prints its full 19968-bit state as std::mt19937_64
        // does, however much of it the lazy seeding has computed yet;
        // printing never advances the engine, so the digest is a pure
        // observation. Any divergence in the driver's draw sequence
        // between the crashed and the resumed run surfaces here.
        char text[Mt19937_64::kTextBytes];
        size_t len = rng_.engine().writeText(text);
        e.rng_digest = integrity::hash64(text, len);
    }
    e.pending_sampling_ratio = pending_sampling_ratio_;
    e.pending_approx_fraction = pending_approx_fraction_;
    if (controller_ != nullptr) {
        e.controller_blob = controller_->journalState();
    }
    epoch_scratch_.resize(reducers_.size());
    e.reducer_state.resize(reducers_.size());
    for (size_t r = 0; r < reducers_.size(); ++r) {
        if (!reducers_[r]->snapshot(epoch_scratch_[r],
                                    e.reducer_state[r])) {
            // Unsupported: pinned to "" on both sides.
            e.reducer_state[r] = journal::ReducerImage{};
        }
    }
    e.reducer_records = reducer_records_;
    maps_since_epoch_ = 0;
    epoch_sink_->onEpoch(e);
}

void
Job::checkWaveCompletion(int wave)
{
    auto it = wave_counts_.find(wave);
    if (it == wave_counts_.end()) {
        return;
    }
    auto [started, terminal] = it->second;
    if (started != terminal) {
        return;
    }
    // The wave is only truly over once no future task can join it, i.e.,
    // a later wave exists or nothing remains to start.
    if (wave == max_wave_ && (pending_count_ > 0 || held_count_ > 0)) {
        return;
    }
    wave_counts_.erase(it);
    if (obs_ != nullptr) {
        obsWaveSnapshot(wave);
        obs_->trace.waveComplete(wave, cluster_.now());
    }
    if (controller_ != nullptr) {
        JobHandle handle(*this);
        controller_->onWaveComplete(handle, wave);
    }
    // Sealed after the controller's replan so the epoch captures the
    // post-decision state the resumed run must re-derive.
    captureEpoch(journal::Epoch::kWave, wave);
}

void
Job::checkMapPhaseDone()
{
    if (map_phase_done_ || job_failed_ ||
        terminal_count_ != tasks_.size()) {
        return;
    }
    map_phase_done_ = true;
    // A suspension that lost the race against completion is moot.
    cancelPendingSuspend();
    counters_.waves = max_wave_ + 1;
    if (obs_ != nullptr) {
        // Waves whose completion never fired through checkWaveCompletion
        // (e.g. a dropAllRemaining sweep terminated them wholesale) still
        // get a final metrics snapshot. The controller's onWaveComplete is
        // deliberately NOT invoked here: the pinned wave-by-wave behavior
        // of existing integration tests must not change.
        while (!wave_counts_.empty()) {
            auto it = wave_counts_.begin();
            int wave = it->first;
            wave_counts_.erase(it);
            obsWaveSnapshot(wave);
            obs_->trace.waveComplete(wave, cluster_.now());
        }
        obs_->trace.mapPhaseDone(cluster_.now());
    }
    if (controller_ != nullptr) {
        JobHandle handle(*this);
        controller_->onMapPhaseDone(handle);
    }
    if (config_.s3_when_drained) {
        maybeSleepServers();
    }
    finishReducers();
}

void
Job::maybeSleepServers()
{
    // retry_wait_count_: a backoff expiry will need slots again soon.
    if (pending_count_ > 0 || held_count_ > 0 || retry_wait_count_ > 0) {
        return;
    }
    for (sim::Server& s : cluster_.servers()) {
        if (s.state() == sim::ServerState::kActive &&
            s.busyMapSlots() == 0 && s.busyReduceSlots() == 0) {
            s.enterLowPower(cluster_.now());
        }
    }
}

void
Job::finishReducers()
{
    for (uint32_t r = 0; r < config_.num_reducers; ++r) {
        sim::Server& srv = cluster_.server(reducer_servers_[r]);
        Rng reduce_rng = rng_.derive(0xBEEF00ULL + r);
        double duration = config_.reduce_cost.duration(
            reducer_records_[r], srv.speed(), reduce_rng);
        cluster_.events().scheduleAfter(duration,
                                        [this, r] { onReducerDone(r); });
    }
}

void
Job::onReducerDone(uint32_t reducer)
{
    ReduceContext ctx(tasks_.size(), counters_.items_total);
    reducers_[reducer]->finalize(ctx);
    for (OutputRecord& rec : ctx.output()) {
        output_.push_back(std::move(rec));
    }
    cluster_.server(reducer_servers_[reducer])
        .releaseReduceSlot(cluster_.now());
    // A draining host that was only waiting for this reducer can leave.
    maybeRetireDrained();
    if (obs_ != nullptr) {
        obs_->trace.reducerFinish(reducer, reducer_records_[reducer],
                                  cluster_.now());
    }
    ++reducers_done_;
    if (reducers_done_ == config_.num_reducers) {
        job_done_ = true;
        endJob();
        // Wake any servers we parked so the cluster is reusable.
        for (sim::Server& s : cluster_.servers()) {
            if (s.state() == sim::ServerState::kLowPower) {
                s.exitLowPower(cluster_.now());
            }
        }
        captureEpoch(journal::Epoch::kFinal, -1);
        notifyCompletion();
    }
}

// ---------------------------------------------------------------------------
// Job: driver
// ---------------------------------------------------------------------------

void
Job::start()
{
    if (started_) {
        throw std::logic_error("Job::run() called twice");
    }
    if (!mapper_factory_ || !reducer_factory_) {
        throw std::logic_error("job needs mapper and reducer factories");
    }
    started_ = true;
    start_time_ = cluster_.now();
    start_energy_wh_ = cluster_.energyWattHours();
    if (config_.num_exec_threads > 1) {
        pool_ = std::make_unique<ThreadPool>(config_.num_exec_threads);
    }
    if (obs_ != nullptr) {
        obs_->trace.beginJob(config_.name, cluster_.numServers(),
                             cluster_.config().map_slots_per_server,
                             config_.num_reducers, cluster_.now());
    }

    buildTasks();
    placeReducers();

    // Server crashes and fleet-membership events fire at plan-fixed
    // simulated times, interleaving deterministically with task events.
    for (const ft::FaultPlan::ServerCrash& crash :
         config_.fault_plan.server_crashes) {
        if (crash.server >= cluster_.numServers()) {
            throw std::invalid_argument(
                "fault plan crashes server " +
                std::to_string(crash.server) + " but the cluster has " +
                std::to_string(cluster_.numServers()) +
                " servers (valid ids: 0.." +
                std::to_string(cluster_.numServers() - 1) + ")");
        }
        cluster_.events().scheduleAfter(crash.at,
                                        [this, crash] { onServerCrash(crash); });
    }
    for (size_t i = 0; i < config_.fault_plan.revocations.size(); ++i) {
        ft::FaultPlan::Revocation storm = config_.fault_plan.revocations[i];
        cluster_.events().scheduleAfter(
            storm.at, [this, storm, i] { onRevocationStorm(storm, i); });
    }
    for (const ft::FaultPlan::ScaleOut& add :
         config_.fault_plan.scale_outs) {
        cluster_.events().scheduleAfter(add.at,
                                        [this, add] { onScaleOut(add); });
    }
    for (const ft::FaultPlan::Drain& drain : config_.fault_plan.drains) {
        cluster_.events().scheduleAfter(drain.at,
                                        [this, drain] { onDrain(drain); });
    }
    // Driver kills: the throw escapes the event loop — it is the host
    // process dying, and only a restart loop holding the journal may
    // catch it. Kills already survived by a previous incarnation are
    // skipped by the cursor, but their no-op events still occupy the
    // same event ids, so a resumed schedule interleaves bit-identically
    // with the crashed one.
    for (double at : config_.fault_plan.driver_crashes) {
        driver_crash_events_.push_back(
            cluster_.events().scheduleAfter(at, [this, at] {
                if (driver_crashes_fired_++ < config_.driver_crash_skip) {
                    return;
                }
                throw journal::DriverKilledError(at);
            }));
    }

    if (controller_ != nullptr) {
        JobHandle handle(*this);
        controller_->onJobStart(handle);
    }
    scheduleLoop();
    // Degenerate case: everything dropped before anything ran.
    checkMapPhaseDone();
}

JobResult
Job::collectResult()
{
    if (!job_done_) {
        throw std::logic_error(
            job_failed_
                ? "collectResult() on a failed job: " + failure_message_
                : "collectResult() before job completion");
    }
    // Drain computations of tasks killed mid-flight and release the
    // workers; their handles were cancelled and nothing reads them.
    pool_.reset();

    JobResult result;
    result.output = std::move(output_);
    result.runtime = end_time_ - start_time_;
    result.energy_wh = cluster_.energyWattHours() - start_energy_wh_;
    result.counters = counters_;
    result.tasks = std::move(tasks_);
    AH_INFO("job") << config_.name << " finished in " << result.runtime
                   << "s: " << result.counters.summary();
    return result;
}

JobResult
Job::run()
{
    start();
    cluster_.events().run();
    if (job_failed_) {
        JobFailedError error(failure_message_);
        error.counters = counters_;
        throw error;
    }
    if (!job_done_) {
        throw std::runtime_error("job did not complete (scheduler stall)");
    }
    return collectResult();
}

}  // namespace approxhadoop::mr
