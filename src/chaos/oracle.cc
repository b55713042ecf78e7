#include "chaos/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "apps/aggregation_registry.h"
#include "common/random.h"
#include "core/approx_config.h"
#include "core/approx_input_format.h"
#include "core/approx_job.h"
#include "hdfs/namenode.h"
#include "journal/journal.h"
#include "service/job_service.h"
#include "sim/cluster.h"
#include "stats/two_stage.h"

namespace approxhadoop::chaos {

namespace {

constexpr double kConfidence = 0.95;

/** |a - b| within 1e-9 relative (absolute near zero); infinities must
 *  agree in kind. Matches the tolerance the integration tests pin the
 *  absorb-vs-drop identity at. */
bool
closeEnough(double a, double b)
{
    if (std::isinf(a) || std::isinf(b)) {
        return std::isinf(a) && std::isinf(b) &&
               std::signbit(a) == std::signbit(b);
    }
    double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= 1e-9 * scale;
}

std::string
formatKv(const char* name, double a, double b)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s: %.17g vs %.17g", name, a, b);
    return buf;
}

/** First counter field that differs between the two runs, or "". */
std::string
countersMismatch(const mr::Counters& a, const mr::Counters& b)
{
#define APPROX_CHAOS_CMP(field)                                            \
    if (a.field != b.field) {                                              \
        return formatKv(#field, static_cast<double>(a.field),              \
                        static_cast<double>(b.field));                     \
    }
    APPROX_CHAOS_CMP(maps_total)
    APPROX_CHAOS_CMP(maps_completed)
    APPROX_CHAOS_CMP(maps_killed)
    APPROX_CHAOS_CMP(maps_dropped)
    APPROX_CHAOS_CMP(maps_speculated)
    APPROX_CHAOS_CMP(maps_endgame_speculated)
    APPROX_CHAOS_CMP(map_slots_acquired)
    APPROX_CHAOS_CMP(map_slots_released)
    APPROX_CHAOS_CMP(map_slot_seconds)
    APPROX_CHAOS_CMP(map_attempts_launched)
    APPROX_CHAOS_CMP(map_attempts_failed)
    APPROX_CHAOS_CMP(map_attempts_cancelled)
    APPROX_CHAOS_CMP(maps_retried)
    APPROX_CHAOS_CMP(maps_absorbed)
    APPROX_CHAOS_CMP(server_crashes)
    APPROX_CHAOS_CMP(servers_added)
    APPROX_CHAOS_CMP(servers_revoked)
    APPROX_CHAOS_CMP(servers_drained)
    APPROX_CHAOS_CMP(servers_retired)
    APPROX_CHAOS_CMP(wasted_attempt_seconds)
    APPROX_CHAOS_CMP(chunks_corrupted)
    APPROX_CHAOS_CMP(chunk_refetches)
    APPROX_CHAOS_CMP(map_outputs_lost)
    APPROX_CHAOS_CMP(bad_records_skipped)
    APPROX_CHAOS_CMP(chunks_delivered)
    APPROX_CHAOS_CMP(reduce_attempts_failed)
    APPROX_CHAOS_CMP(reducer_checkpoints)
    APPROX_CHAOS_CMP(chunks_replayed)
    APPROX_CHAOS_CMP(timeouts_detected)
    APPROX_CHAOS_CMP(detection_wait_seconds)
    APPROX_CHAOS_CMP(items_total)
    APPROX_CHAOS_CMP(items_read)
    APPROX_CHAOS_CMP(items_processed)
    APPROX_CHAOS_CMP(records_shuffled)
    APPROX_CHAOS_CMP(local_maps)
    APPROX_CHAOS_CMP(remote_maps)
    APPROX_CHAOS_CMP(waves)
#undef APPROX_CHAOS_CMP
    return "";
}

/** Headline record: largest finite CI half-width (nullptr if none). */
const mr::OutputRecord*
headlineRecord(const mr::JobResult& result)
{
    const mr::OutputRecord* worst = nullptr;
    for (const mr::OutputRecord& r : result.output) {
        if (!r.has_bound || !std::isfinite(r.errorBound())) {
            continue;
        }
        if (worst == nullptr || r.errorBound() > worst->errorBound()) {
            worst = &r;
        }
    }
    return worst;
}

mr::JobConfig
scenarioJobConfig(const apps::AggregationWorkload& workload,
                  const Scenario& s, uint32_t threads)
{
    mr::JobConfig config = workload.job_config(s.items, s.reducers);
    config.seed = s.job_seed;
    config.cluster_spec = s.cluster;
    config.fault_plan = s.plan;
    config.failure_mode = s.mode;
    config.recovery.max_attempts = s.max_attempts;
    config.reducer_checkpoint_interval = s.checkpoint_interval;
    config.heartbeat_interval_ms = s.heartbeat_ms;
    config.task_timeout_ms = s.timeout_ms;
    config.num_exec_threads = threads;
    return config;
}

core::ApproxConfig
scenarioApproxConfig(const Scenario& s)
{
    core::ApproxConfig approx;
    approx.confidence = kConfidence;
    if (s.has_target) {
        approx.target_relative_error = s.target;
    } else {
        approx.sampling_ratio = s.sampling;
    }
    return approx;
}

/** Journal header for a dcrash= scenario's record/resume loop. */
journal::RunSpec
journalSpec(const Scenario& s, uint32_t threads)
{
    journal::RunSpec spec;
    spec.app = s.workload;
    spec.blocks = s.blocks;
    spec.items = s.items;
    spec.seed = s.job_seed;
    spec.reducers = s.reducers;
    spec.threads = threads;
    spec.cluster = s.cluster;
    spec.sampling = s.sampling;
    spec.has_target = s.has_target;
    spec.target = s.target;
    spec.confidence = kConfidence;
    spec.failure_mode = ft::toString(s.mode);
    spec.max_attempts = s.max_attempts;
    spec.checkpoint_interval = s.checkpoint_interval;
    spec.heartbeat_ms = s.heartbeat_ms;
    spec.timeout_ms = s.timeout_ms;
    spec.fault_plan = s.plan.spec();
    return spec;
}

/** First difference between two job results, or "". */
std::string
resultsMismatch(const mr::JobResult& a, const mr::JobResult& b)
{
    if (a.runtime != b.runtime) {
        return formatKv("runtime", a.runtime, b.runtime);
    }
    std::string diff = countersMismatch(a.counters, b.counters);
    if (!diff.empty()) {
        return diff;
    }
    if (a.output.size() != b.output.size()) {
        return formatKv("output size",
                        static_cast<double>(a.output.size()),
                        static_cast<double>(b.output.size()));
    }
    for (size_t i = 0; i < a.output.size(); ++i) {
        const mr::OutputRecord& x = a.output[i];
        const mr::OutputRecord& y = b.output[i];
        if (x.key != y.key || x.value != y.value || x.lower != y.lower ||
            x.upper != y.upper || x.has_bound != y.has_bound) {
            return "output record " + std::to_string(i) + " ('" + x.key +
                   "' vs '" + y.key + "') differs";
        }
    }
    return "";
}

const apps::AggregationWorkload&
workloadFor(const Scenario& s)
{
    const apps::AggregationWorkload* w =
        apps::findAggregationWorkload(s.workload);
    if (w == nullptr) {
        throw std::invalid_argument("chaos: unknown workload '" +
                                    s.workload + "'");
    }
    return *w;
}

/**
 * Recomputes the headline key's per-cluster two-stage statistics by
 * replaying the mapper over every *completed* task's sample. Possible
 * because each task's sample and map emissions are pure functions of
 * (job seed, task id, recorded sampling ratio) — the same property that
 * makes runs bit-identical across thread counts. Requires
 * bad_record_prob == 0 (record fates live inside the FaultInjector).
 */
std::vector<stats::ClusterSample>
replayClusters(const apps::AggregationWorkload& workload,
               const hdfs::BlockDataset& data, const Scenario& s,
               const mr::JobResult& result, const std::string& key,
               bool count_op, std::string& replay_error)
{
    core::ApproxTextInputFormat format;
    std::vector<stats::ClusterSample> clusters;
    for (const mr::MapTaskInfo& task : result.tasks) {
        if (task.state != mr::TaskState::kCompleted) {
            continue;
        }
        Rng sample_rng = Rng(s.job_seed).derive(0x5A5A + task.task_id);
        std::vector<uint64_t> sample = format.select(
            task.task_id, task.items_total, task.sampling_ratio,
            sample_rng);
        if (sample.size() != task.items_processed) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "task %llu replayed sample size %zu != "
                          "items_processed %llu",
                          static_cast<unsigned long long>(task.task_id),
                          sample.size(),
                          static_cast<unsigned long long>(
                              task.items_processed));
            replay_error = buf;
            return {};
        }
        std::unique_ptr<mr::Mapper> mapper = workload.mapper_factory()();
        mr::MapContext ctx(task.task_id, task.items_total, sample.size(),
                           task.approximate,
                           Rng(s.job_seed).derive(0xA11CE + task.task_id));
        mapper->setup(ctx);
        for (uint64_t index : sample) {
            mapper->map(data.item(task.task_id, index), ctx);
        }
        mapper->cleanup(ctx);

        stats::ClusterSample cluster;
        cluster.units_total = task.items_total;
        cluster.units_sampled = sample.size();
        const mr::RecordWriter& output = ctx.output();
        for (const mr::Row& row : output) {
            if (output.key(row) != key) {
                continue;
            }
            double v = count_op ? 1.0 : row.value;
            ++cluster.emitted;
            cluster.sum += v;
            cluster.sum_squares += v * v;
        }
        clusters.push_back(cluster);
    }
    return clusters;
}

constexpr std::pair<Mutation, const char*> kMutationNames[] = {
    {Mutation::kNone, "none"},
    {Mutation::kCiWidening, "ci-widening"},
    {Mutation::kCounters, "counters"},
    {Mutation::kDeterminism, "determinism"},
    {Mutation::kExitCode, "exit-code"},
};

}  // namespace

Mutation
parseMutation(const std::string& name)
{
    for (const auto& [value, text] : kMutationNames) {
        if (value != Mutation::kNone && name == text) {
            return value;
        }
    }
    throw std::invalid_argument(
        "mutation must be ci-widening, counters, determinism, or "
        "exit-code (got '" +
        name + "')");
}

const char*
toString(Mutation m)
{
    for (const auto& [value, name] : kMutationNames) {
        if (value == m) {
            return name;
        }
    }
    return "?";
}

RunOutcome
ChaosOracle::runScenario(const Scenario& s, uint32_t threads,
                         obs::Observability* obs,
                         mr::JobConfig* config_out) const
{
    const apps::AggregationWorkload& workload = workloadFor(s);
    core::ApproxConfig approx = scenarioApproxConfig(s);

    // dcrash= scenarios run the same record/kill/resume loop approxrun
    // does, against an in-memory journal: each DriverKilledError tears
    // down the incarnation and the next one re-executes from scratch
    // with the journal verifying every re-reached epoch.
    std::unique_ptr<journal::JobJournal> jj;
    if (s.plan.hasDriverCrash()) {
        jj = journal::JobJournal::createInMemory(journalSpec(s, threads));
    }

    RunOutcome outcome;
    for (;;) {
        std::unique_ptr<hdfs::BlockDataset> data =
            workload.make_dataset(s.blocks, s.items, s.job_seed);
        mr::JobConfig config = scenarioJobConfig(workload, s, threads);
        if (jj != nullptr) {
            config.driver_crash_skip = jj->resumeCount();
        }
        if (config_out != nullptr) {
            *config_out = config;
        }
        sim::Cluster cluster(sim::ClusterConfig::parse(s.cluster));
        hdfs::NameNode namenode(cluster.numServers(), 3, s.job_seed);
        core::ApproxJobRunner runner(cluster, *data, namenode);
        runner.setObservability(obs);
        runner.setEpochSink(jj.get());
        try {
            outcome.result = runner.runAggregation(
                config, approx, workload.mapper_factory(), workload.op);
            outcome.counters = outcome.result.counters;
            break;
        } catch (const journal::DriverKilledError&) {
            if (outcome.crash_journal.empty()) {
                outcome.crash_journal = jj->bytes();
            }
            jj = journal::JobJournal::resumeBytes(jj->bytes());
        } catch (const mr::JobFailedError& e) {
            if (mutation_ == Mutation::kExitCode) {
                // The deliberate bug: swallow the failure and report an
                // empty successful result, as a runtime with a broken
                // abort path would.
                outcome.counters = e.counters;
                outcome.result.counters = e.counters;
                outcome.resumes = jj ? jj->resumeCount() : 0;
                return outcome;
            }
            outcome.failed = true;
            outcome.error = e.what();
            outcome.counters = e.counters;
            outcome.resumes = jj ? jj->resumeCount() : 0;
            return outcome;
        }
    }
    outcome.resumes = jj ? jj->resumeCount() : 0;

    if (mutation_ == Mutation::kCiWidening) {
        for (mr::OutputRecord& r : outcome.result.output) {
            if (!r.has_bound) {
                continue;
            }
            r.lower = r.value - (r.value - r.lower) / 2.0;
            r.upper = r.value + (r.upper - r.value) / 2.0;
        }
    }
    if (mutation_ == Mutation::kCounters) {
        ++outcome.result.counters.maps_completed;
        outcome.counters = outcome.result.counters;
    }
    if (mutation_ == Mutation::kDeterminism && threads > 1 &&
        !outcome.result.output.empty()) {
        outcome.result.output[0].value +=
            1e-9 * (1.0 + std::fabs(outcome.result.output[0].value));
    }
    return outcome;
}

namespace {

/**
 * Service-level invariants for the multi-job scenario slice: the same
 * workload submitted concurrent_jobs times through the JobService with
 * staggered arrivals and derived per-job seeds. Checks, in order: the
 * termination contract (the service itself must not throw), same-spec
 * report byte-identity, per-completed-job counter conservation under
 * slot contention, job accounting (submitted = completed + failed), and
 * that no map or reduce slot leaks past the run.
 */
std::vector<Violation>
checkMultiJob(const Scenario& s)
{
    std::vector<Violation> violations;
    auto violate = [&violations](const std::string& invariant,
                                 const std::string& detail) {
        violations.push_back(Violation{invariant, detail});
    };

    service::ServiceSpec spec;
    service::TenantClass hi;
    hi.name = "t0";
    hi.priority = 0;
    hi.weight = 2.0;
    service::TenantClass lo;
    lo.name = "t1";
    lo.priority = 1;
    lo.weight = 1.0;
    spec.tenants = {hi, lo};
    spec.duration = 600.0;
    spec.seed = s.job_seed;
    spec.blocks = s.blocks;
    spec.items = s.items;
    spec.reducers = s.reducers;
    spec.target_rel_error = s.has_target ? s.target : 0.05;
    spec.endgame_left_percent = 25.0;
    spec.workloads = {s.workload};
    spec.pressure_threshold = 2;
    spec.cluster = s.cluster;
    spec.fault_plan = s.plan;
    // Fleet-changing faults are not attributable to one tenant (the
    // JobService rejects them outright); the generator already strips
    // them, but hand-built scenarios may not.
    spec.fault_plan.server_crashes.clear();
    spec.fault_plan.revocations.clear();
    spec.fault_plan.scale_outs.clear();
    spec.fault_plan.drains.clear();
    // Likewise driver crashes: the JobService rejects dcrash= plans (a
    // driver kill cannot be attributed to one tenant).
    spec.fault_plan.driver_crashes.clear();

    std::vector<service::JobArrival> arrivals;
    Rng seeds = Rng(s.job_seed).derive(0x5E41CE);
    for (uint32_t j = 0; j < s.concurrent_jobs; ++j) {
        service::JobArrival a;
        a.time = 0.5 * j;
        a.tenant = j % 2;
        a.workload = s.workload;
        a.job_seed = 1 + seeds.uniformInt(1000000000);
        arrivals.push_back(a);
    }

    std::string first_json;
    std::string second_json;
    try {
        service::JobService first(spec, arrivals);
        service::ServiceReport report = first.run();
        first_json = report.toJson();

        for (const sim::Server& server : first.cluster().servers()) {
            if (server.busyMapSlots() != 0 ||
                server.busyReduceSlots() != 0) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "server %u still holds %d map / %d reduce "
                              "slots after the run",
                              server.id(), server.busyMapSlots(),
                              server.busyReduceSlots());
                violate("conservation", buf);
            }
        }

        uint64_t completed = 0;
        uint64_t failed = 0;
        for (const service::JobService::JobOutcome& outcome :
             first.outcomes()) {
            if (outcome.failed) {
                ++failed;
                continue;
            }
            ++completed;
            std::string conservation =
                outcome.result.counters.conservationViolation(s.reducers);
            if (!conservation.empty()) {
                violate("conservation",
                        outcome.arrival.workload + " seed " +
                            std::to_string(outcome.arrival.job_seed) +
                            ": " + conservation);
            }
        }
        if (completed != report.jobs_completed ||
            failed != report.jobs_failed ||
            report.jobs_submitted != s.concurrent_jobs ||
            completed + failed != report.jobs_submitted) {
            char buf[160];
            std::snprintf(
                buf, sizeof(buf),
                "job accounting: submitted=%llu completed=%llu "
                "failed=%llu (outcomes: %llu/%llu, expected %u jobs)",
                static_cast<unsigned long long>(report.jobs_submitted),
                static_cast<unsigned long long>(report.jobs_completed),
                static_cast<unsigned long long>(report.jobs_failed),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed),
                s.concurrent_jobs);
            violate("conservation", buf);
        }

        service::JobService second(spec, arrivals);
        second_json = second.run().toJson();
    } catch (const std::exception& e) {
        violate("termination",
                std::string("service run threw: ") + e.what());
        return violations;
    }

    if (first_json != second_json) {
        violate("determinism",
                "same-spec service reports differ byte-wise");
    }
    return violations;
}

}  // namespace

std::vector<Violation>
ChaosOracle::check(const Scenario& s) const
{
    if (s.concurrent_jobs > 1) {
        return checkMultiJob(s);
    }

    std::vector<Violation> violations;
    auto violate = [&violations](const std::string& invariant,
                                 const std::string& detail) {
        violations.push_back(Violation{invariant, detail});
    };

    RunOutcome serial;
    RunOutcome parallel;
    try {
        serial = runScenario(s, 1);
        parallel = runScenario(s, s.threads);
    } catch (const std::exception& e) {
        // Anything but the contractual JobFailedError is itself a
        // termination-contract violation (crash instead of a clean
        // failure classification).
        violate("termination",
                std::string("unexpected exception: ") + e.what());
        return violations;
    }

    // --- termination / exit-code contract -----------------------------
    if (serial.failed != parallel.failed) {
        violate("determinism",
                "1-thread and parallel runs disagree on job failure");
        return violations;
    }

    // --- crash recovery: resume equivalence + torn-journal hardening --
    // A dcrash= scenario already ran through the journal kill/resume
    // loop above; the resumed run must be indistinguishable from the
    // same scenario with its driver crashes removed, and the journal
    // image captured at the moment of the kill must survive arbitrary
    // truncation (recover a sealed prefix or reject loudly — never
    // crash, never invent an epoch).
    if (s.plan.hasDriverCrash()) {
        Scenario uninterrupted = s;
        uninterrupted.plan.driver_crashes.clear();
        RunOutcome base;
        try {
            base = runScenario(uninterrupted, 1);
        } catch (const std::exception& e) {
            violate("termination",
                    std::string("dcrash-free baseline threw: ") + e.what());
            return violations;
        }
        if (base.failed != serial.failed) {
            violate("resume-equivalence",
                    "resumed and uninterrupted runs disagree on job "
                    "failure");
        } else if (base.failed) {
            if (base.error != serial.error) {
                violate("resume-equivalence",
                        "failure messages differ: '" + serial.error +
                            "' vs '" + base.error + "'");
            }
        } else {
            std::string diff =
                resultsMismatch(serial.result, base.result);
            if (!diff.empty()) {
                violate("resume-equivalence",
                        "resumed run differs from the uninterrupted "
                        "one: " +
                            diff);
            }
        }

        const std::string& image = serial.crash_journal;
        if (!image.empty()) {
            size_t full_epochs = 0;
            try {
                journal::LoadedJournal full = journal::parseJournal(image);
                full_epochs = full.epochs.size();
            } catch (const std::exception& e) {
                violate("torn-journal",
                        std::string("crash-time journal image does not "
                                    "parse: ") +
                            e.what());
            }
            // ~100 cut points spread over the image (the exhaustive
            // per-byte sweep lives in the journal format tests; the
            // soak's job is catching regressions on real crash images).
            size_t cuts = std::min<size_t>(image.size(), 96);
            size_t last_epochs = 0;
            for (size_t c = 0; c <= cuts && cuts > 0; ++c) {
                size_t len = image.size() * c / cuts;
                std::string prefix = image.substr(0, len);
                char where[48];
                std::snprintf(where, sizeof(where), "cut at byte %zu",
                              len);
                try {
                    journal::LoadedJournal loaded =
                        journal::parseJournal(prefix);
                    if (loaded.epochs.size() > full_epochs ||
                        loaded.epochs.size() < last_epochs) {
                        violate("torn-journal",
                                std::string(where) +
                                    ": recovered epoch count is not a "
                                    "monotone prefix of the full image");
                        break;
                    }
                    last_epochs = loaded.epochs.size();
                    std::unique_ptr<journal::JobJournal> recovered =
                        journal::JobJournal::resumeBytes(prefix);
                    size_t expect = loaded.epochs.size() -
                                    loaded.resume_markers;
                    if (recovered->epochsToVerify() != expect) {
                        violate("torn-journal",
                                std::string(where) +
                                    ": resume does not verify exactly "
                                    "the sealed epochs");
                        break;
                    }
                } catch (const journal::JournalError&) {
                    // Contractual rejection — only legitimate before
                    // any epoch was recoverable (a severed header).
                    if (last_epochs != 0) {
                        violate("torn-journal",
                                std::string(where) +
                                    ": rejected after epochs were "
                                    "recoverable at an earlier cut");
                        break;
                    }
                } catch (const std::exception& e) {
                    violate("torn-journal",
                            std::string(where) +
                                ": non-journal exception: " + e.what());
                    break;
                }
            }
        }
    }

    if (serial.failed) {
        if (s.mode != ft::FailureMode::kRetry) {
            violate("exit-code",
                    "job failed under " + std::string(ft::toString(s.mode)) +
                        " mode (only retry may exhaust attempts): " +
                        serial.error);
        }
        if (serial.error != parallel.error) {
            violate("determinism", "failure messages differ: '" +
                                       serial.error + "' vs '" +
                                       parallel.error + "'");
        }
        std::string diff =
            countersMismatch(serial.counters, parallel.counters);
        if (!diff.empty()) {
            violate("determinism", "counters at failure differ: " + diff);
        }
        // The teardown kills or drops every task still in flight, so a
        // failed run conserves exactly like a successful one.
        std::string conservation =
            serial.counters.conservationViolation(s.reducers);
        if (!conservation.empty()) {
            violate("conservation", "failed run: " + conservation);
        }
        return violations;
    }
    if (s.mode == ft::FailureMode::kRetry && !s.has_target &&
        serial.counters.maps_completed != serial.counters.maps_total) {
        // Retry semantics are all-or-abort: a "successful" run that
        // silently lost maps is the wrong-but-zero-exit bug.
        char buf[128];
        std::snprintf(
            buf, sizeof(buf),
            "retry-mode run reported success with %llu/%llu maps",
            static_cast<unsigned long long>(serial.counters.maps_completed),
            static_cast<unsigned long long>(serial.counters.maps_total));
        violate("exit-code", buf);
    }

    // --- determinism: 1 vs N threads, bit-identical -------------------
    if (serial.result.runtime != parallel.result.runtime) {
        violate("determinism",
                formatKv("runtime", serial.result.runtime,
                         parallel.result.runtime));
    }
    if (serial.result.energy_wh != parallel.result.energy_wh) {
        violate("determinism",
                formatKv("energy_wh", serial.result.energy_wh,
                         parallel.result.energy_wh));
    }
    std::string diff =
        countersMismatch(serial.result.counters, parallel.result.counters);
    if (!diff.empty()) {
        violate("determinism", "counters differ: " + diff);
    }
    auto serial_map = serial.result.toMap();
    auto parallel_map = parallel.result.toMap();
    if (serial_map.size() != parallel_map.size()) {
        violate("determinism",
                formatKv("output keys",
                         static_cast<double>(serial_map.size()),
                         static_cast<double>(parallel_map.size())));
    } else {
        for (const auto& [key, rec] : serial_map) {
            auto it = parallel_map.find(key);
            if (it == parallel_map.end()) {
                violate("determinism", "key '" + key +
                                           "' missing from parallel run");
                break;
            }
            const mr::OutputRecord& other = it->second;
            if (rec.value != other.value || rec.lower != other.lower ||
                rec.upper != other.upper ||
                rec.has_bound != other.has_bound) {
                violate("determinism",
                        "key '" + key + "' differs: " +
                            formatKv("value", rec.value, other.value));
                break;
            }
        }
    }

    // --- counter conservation -----------------------------------------
    std::string conservation =
        serial.result.counters.conservationViolation(s.reducers);
    if (!conservation.empty()) {
        violate("conservation", conservation);
    }

    // --- statistical soundness: the absorb identity -------------------
    // Whenever the run's per-task samples can be replayed, the reported
    // headline estimate and CI must equal the analytic two-stage
    // estimator over the completed clusters: a failed/absorbed task
    // widens the bound *exactly* like a dropped cluster.
    if (s.plan.bad_record_prob == 0.0 && !s.has_target) {
        const mr::OutputRecord* headline = headlineRecord(serial.result);
        if (headline != nullptr &&
            serial.result.counters.maps_completed >= 2) {
            const apps::AggregationWorkload& workload = workloadFor(s);
            std::unique_ptr<hdfs::BlockDataset> data =
                workload.make_dataset(s.blocks, s.items, s.job_seed);
            bool count_op =
                workload.op == core::MultiStageSamplingReducer::Op::kCount;
            std::string replay_error;
            std::vector<stats::ClusterSample> clusters = replayClusters(
                workload, *data, s, serial.result, headline->key,
                count_op, replay_error);
            if (!replay_error.empty()) {
                violate("ci-widening", "replay failed: " + replay_error);
            } else {
                stats::Estimate expected =
                    count_op ? stats::TwoStageEstimator::estimateCount(
                                   clusters, serial.result.counters
                                                 .maps_total,
                                   kConfidence)
                             : stats::TwoStageEstimator::estimateSum(
                                   clusters, serial.result.counters
                                                 .maps_total,
                                   kConfidence);
                if (!closeEnough(headline->value, expected.value)) {
                    violate("ci-widening",
                            "key '" + headline->key + "' " +
                                formatKv("estimate", headline->value,
                                         expected.value));
                } else if (!closeEnough(headline->errorBound(),
                                        expected.error_bound)) {
                    violate(
                        "ci-widening",
                        "key '" + headline->key +
                            "' CI half-width does not match the "
                            "analytic dropped-cluster estimator: " +
                            formatKv("bound", headline->errorBound(),
                                     expected.error_bound));
                }
            }
        }
    }
    return violations;
}

std::optional<Violation>
ChaosOracle::coverageBattery(uint64_t seed, int trials) const
{
    if (trials <= 0) {
        return std::nullopt;
    }
    const apps::AggregationWorkload& workload = *apps::findAggregationWorkload("projectpop");
    int valid = 0;
    int hits = 0;
    for (int trial = 0; trial < trials; ++trial) {
        Rng rng = Rng(seed).derive(0xBA77E + trial);

        Scenario s;
        s.family_seed = seed;
        s.index = static_cast<uint64_t>(trial);
        s.workload = workload.name;
        s.blocks = 36;
        s.items = 24;
        s.reducers = 1;
        s.threads = 1;
        s.job_seed = 1 + rng.uniformInt(1000000000);
        s.sampling = 0.5;
        s.mode = ft::FailureMode::kAbsorb;
        s.timeout_ms = 0.0;
        s.plan.task_crash_prob = 0.15;
        s.plan.chunk_corrupt_prob = 0.1;
        s.plan.seed = 1 + static_cast<uint64_t>(trial);

        RunOutcome outcome = runScenario(s, 1);
        if (outcome.failed) {
            continue;  // absorb mode never fails; flagged by check()
        }
        const mr::OutputRecord* headline = headlineRecord(outcome.result);
        if (headline == nullptr) {
            continue;
        }
        std::unique_ptr<hdfs::BlockDataset> data =
            workload.make_dataset(s.blocks, s.items, s.job_seed);
        mr::JobConfig config = scenarioJobConfig(workload, s, 1);
        mr::JobResult precise = apps::runPreciseReference(
            workload, *data, config, sim::ClusterConfig::xeon10(),
            s.job_seed);
        const mr::OutputRecord* exact = precise.find(headline->key);
        if (exact == nullptr) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "trial %d: headline key '%s' missing from the "
                          "precise reference",
                          trial, headline->key.c_str());
            return Violation{"coverage", buf};
        }
        ++valid;
        double deviation = std::fabs(headline->value - exact->value);
        if (deviation <=
            headline->errorBound() * (1.0 + 1e-12) + 1e-9) {
            ++hits;
        }
    }
    if (valid < trials / 2) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "only %d/%d battery trials produced a bounded "
                      "estimate",
                      valid, trials);
        return Violation{"coverage", buf};
    }
    double rate = static_cast<double>(hits) / static_cast<double>(valid);
    double tolerance =
        3.0 * std::sqrt(kConfidence * (1.0 - kConfidence) /
                        static_cast<double>(valid));
    double threshold = kConfidence - tolerance;
    if (rate < threshold) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "CI covered the exact answer in %d/%d trials "
                      "(%.3f), below the binomial floor %.3f for "
                      "confidence %.2f",
                      hits, valid, rate, threshold, kConfidence);
        return Violation{"coverage", buf};
    }
    return std::nullopt;
}

Scenario
ChaosOracle::mutationProbe(Mutation mutation)
{
    Scenario s;
    s.workload = "projectpop";
    s.blocks = 40;
    s.items = 12;
    s.reducers = 2;
    s.threads = 4;
    s.job_seed = 12345;
    s.sampling = 1.0;
    s.mode = ft::FailureMode::kAbsorb;
    s.max_attempts = 4;
    s.checkpoint_interval = 8;
    s.heartbeat_ms = 500.0;
    s.timeout_ms = 2000.0;
    switch (mutation) {
        case Mutation::kNone:
        case Mutation::kCounters:
        case Mutation::kDeterminism:
            break;  // a healthy faulted run exercises both checks
        case Mutation::kCiWidening:
            // A permanent revocation storm mid-wave is the *only* fault:
            // the maps orphaned by the revoked servers are absorbed,
            // guaranteeing a nonzero CI for the halving to corrupt — and
            // forcing the shrinker to keep the revoke key in the minimal
            // reproducer (dropping it makes the run exact again).
            {
                ft::FaultPlan::Revocation storm;
                storm.count = 3;
                storm.at = 3.0;
                storm.down_for = -1.0;
                s.plan.revocations.push_back(storm);
            }
            s.plan.seed = 7;
            break;
        case Mutation::kExitCode:
            // Guaranteed retry exhaustion: the failure the mutated
            // oracle swallows.
            s.mode = ft::FailureMode::kRetry;
            s.plan.task_crash_prob = 1.0;
            s.max_attempts = 2;
            break;
    }
    return s;
}

}  // namespace approxhadoop::chaos
