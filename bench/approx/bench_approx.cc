/**
 * @file
 * bench_approx: host-time benchmark of the approximation pipeline, end
 * to end and layer by layer.
 *
 * Four workloads run through the public entry points
 * (core::ApproxJobRunner, service::JobService), each stressing different
 * layers: a warm precise wiki run (map/reduce kernels), an access-log
 * target-error run with a pilot wave (lazy sampled synthesis, controller,
 * estimators), a faulty journaled pagepop run (reducer checkpoints,
 * journal epochs, refetch and restore), and a multi-tenant service run
 * (per-job fixed costs). See BENCHMARK.md for why each was chosen.
 *
 * Per workload, one child process runs ops back to back, closed loop with
 * one client, for at least kMinTimedOps ops and at least --seconds. An op
 * is one mr::Job run or one whole JobService::run(); only the op is
 * timed. Its inputs are built before the clock starts, and that build is
 * the op's set-up: a fresh dataset (or JobService) per op, except on the
 * warm workload, whose one dataset is built and its block cache filled
 * kSetups times before the first op. A fixed calibration unit runs
 * before each set-up and op, and the timed phase reports its times scaled
 * to a reference host speed (see calibrationUnitMs), so that the drift of
 * a shared host cancels out. Memory is measured apart: each of
 * the first kMemoryVariants inputs runs one op in a child of its own,
 * whose peak RSS the parent reads through wait4; peak_rss_mb is their
 * median. Another child runs the traced phase: traced ops
 * alternating with untraced ones, all at one exec thread, where
 * decorators around the layers' public interfaces (layer_trace.h) give
 * each layer's self time; it also runs each of those inputs once at
 * kCheckThreads exec threads.
 *
 * Every op's digest (op_stats.h) must equal the first digest of its input,
 * so traced, one-thread and two-thread ops must agree with the timed
 * ones, and for a seed listed in kExpectedDigests the run's digest must
 * equal the committed one; otherwise the run fails.
 *
 * Usage:
 *   bench_approx [--workload NAME]... [--seed S] [--seconds T]
 *                [--trace 0|1] [--json PATH] [--trace-out DIR] [--smoke]
 *
 *   --trace 0    timed phase only; the last line carries the end-to-end
 *                metrics
 *   --trace 1    timed and traced phases; the last line carries the
 *                per-layer metrics
 *   (no --trace) both phases; the last line carries every metric
 *   --smoke      tiny shapes, 5 timed ops and 2 traced pairs; also
 *                self-checks the statistics helpers and re-parses the
 *                --json and --trace-out output
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status: 0 ok, 1 a failed or mismatching op, 2 bad usage.
 */
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/aggregation_registry.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "ft/fault_plan.h"
#include "ft/recovery_policy.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "journal/journal.h"
#include "layer_trace.h"
#include "mapreduce/job.h"
#include "obs/json.h"
#include "op_stats.h"
#include "service/arrival.h"
#include "service/job_service.h"
#include "service/service_spec.h"
#include "sim/cluster.h"

using namespace approxhadoop;
using namespace approxhadoop::benchapprox;

namespace {

using Clock = std::chrono::steady_clock;

/** Timed ops per workload: enough for p90 to leave 10 samples beyond. */
constexpr size_t kMinTimedOps = 100;
constexpr size_t kSmokeTimedOps = 5;
/** Traced ops (each paired with an untraced one) in the traced phase. */
constexpr size_t kTracedPairs = 5;
constexpr size_t kSmokeTracedPairs = 2;
/** Exec threads of the traced phase's determinism check ops. */
constexpr uint32_t kCheckThreads = 2;
/**
 * Inputs whose one-op processes peak_rss_mb is the median over. The
 * timed child's own peak would be the maximum over all its inputs, set
 * by whichever draw happens to be heaviest: on access_target_pilot it
 * moved by 15% (IQR over median) across ten seeds.
 */
constexpr uint32_t kMemoryVariants = 15;
/** Set-ups of the warm workload; setup_s is their median. */
constexpr size_t kSetups = 5;
constexpr size_t kSmokeSetups = 1;
constexpr double kDefaultSeconds = 20.0;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------------

/**
 * On a shared host the same op's wall time drifts by 10-30% over tens of
 * seconds, as other tenants contend for the core's caches; a loop of
 * register-only arithmetic barely moves, a loop of random accesses into
 * an L2-sized table moves more than the ops. The timed phase therefore
 * runs one calibration unit, fixed work owned by this file and no
 * src/ code, right before every op and every set-up, and scales that
 * interval's wall time by kReferenceUnitMs / (the unit's time): the time
 * a host running the unit in kReferenceUnitMs would have measured. The
 * unit is three quarters table accesses and one quarter multiply chain,
 * the mix whose drift tracked the four workloads' closest. Scaling each
 * interval by its own unit cut the ten-seed spread of op_wall_ms_p50 from
 * up to 0.17 to at most 0.05 in a noisy hour (BENCHMARK.md).
 */
constexpr double kReferenceUnitMs = 10.0;
constexpr size_t kCalibTableWords = size_t{1} << 15;  // 256 KiB
constexpr size_t kCalibTableSteps = 4000000;
constexpr size_t kCalibChainSteps = 1000000;

/** Keeps the calibration's result observable so it is not elided. */
volatile uint64_t g_calib_sink = 0;

/** Runs one calibration unit and returns its wall time in ms. */
double
calibrationUnitMs()
{
    static std::vector<uint64_t> table(kCalibTableWords);
    constexpr size_t kMask = kCalibTableWords - 1;
    uint64_t x = g_calib_sink | 1;
    Clock::time_point t0 = Clock::now();
    for (size_t j = 0; j < kCalibTableSteps; ++j) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        table[(x >> 20) & kMask] += x;
        table[j & kMask] ^= x >> 7;
    }
    for (size_t j = 0; j < kCalibChainSteps; ++j) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        x ^= x >> 29;
    }
    double ms = msSince(t0);
    g_calib_sink = x + table[x & kMask];
    return ms;
}

/** @p ms measured right after a unit that took @p unit_ms, at the
 *  reference host speed. */
double
atReferenceSpeed(double ms, double unit_ms)
{
    return ms * kReferenceUnitMs / unit_ms;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/** One aggregation job, as the timed ops run it. */
struct JobShape
{
    const char* app = "";
    bool precise = false;
    uint64_t blocks = 0;
    uint64_t items = 0;
    uint32_t reducers = 1;
    /** Dataset built once in set-up and its block cache filled by the
     *  warm-up op; otherwise every op reads a freshly built dataset. */
    bool warm = false;
    core::ApproxConfig approx;
    /** FaultPlan spec without the seed clause ("" = fault-free). */
    const char* faults = "";
    ft::FailureMode failure_mode = ft::FailureMode::kRetry;
    /** Journal epoch every N completed maps (0 = no journal). */
    uint64_t journal_interval = 0;
};

struct Workload
{
    const char* name = "";
    uint32_t threads = 1;
    /**
     * Input variants: op i reads variant i % variants, each seeded from
     * the run's seed (variant 0 by the seed itself). Where the work an op
     * does depends on its input (controller decisions, arrival streams),
     * several variants per run keep the run's median from resting on a
     * single draw; every variant still runs often enough to check that
     * its repeats agree.
     */
    uint32_t variants = 1;
    /** JobService spec without the seed clause; empty for job workloads. */
    std::string service_spec;
    /** Jobs in each service op's arrival stream (see ServiceBench). */
    size_t service_jobs = 0;
    JobShape job;
};

/** Input variants of the workloads whose work depends on the input:
 *  kMinTimedOps ops run each of them twice. */
constexpr uint32_t kVariants = 50;
constexpr uint32_t kSmokeVariants = 2;

std::vector<Workload>
workloadTable(bool smoke)
{
    std::vector<Workload> table;
    uint32_t variants = smoke ? kSmokeVariants : kVariants;

    // One warm dataset: filling K block caches would multiply set-up by
    // K, and a precise run's work barely depends on its input.
    Workload wiki;
    wiki.name = "wiki_precise_warm";
    wiki.job.app = "wikilength";
    wiki.job.precise = true;
    wiki.job.blocks = smoke ? 40 : 800;
    wiki.job.items = smoke ? 40 : 400;
    wiki.job.warm = true;
    table.push_back(wiki);

    Workload access;
    access.name = "access_target_pilot";
    access.threads = 2;
    access.variants = variants;
    access.job.app = "projectpop";
    access.job.blocks = smoke ? 120 : 2000;
    access.job.items = smoke ? 40 : 400;
    access.job.approx.target_relative_error = 0.015;
    access.job.approx.pilot.enabled = true;
    access.job.approx.pilot.maps = smoke ? 8 : 20;
    access.job.approx.pilot.sampling_ratio = 0.05;
    table.push_back(access);

    // One exec thread: at two, the ten-seed spread of its op wall was
    // 14-21% on a shared 4-vCPU host (it allocates ~100 MB of checkpoints
    // and epochs per op), against 4-10% at one.
    Workload pagepop;
    pagepop.name = "pagepop_journal_faults";
    pagepop.variants = variants;
    pagepop.job.app = "pagepop";
    pagepop.job.blocks = smoke ? 60 : 600;
    pagepop.job.items = smoke ? 40 : 400;
    pagepop.job.reducers = 2;
    pagepop.job.approx.sampling_ratio = 0.1;
    pagepop.job.approx.drop_ratio = 0.3;
    pagepop.job.faults = "corrupt=0.05,rcrash=0.05";
    pagepop.job.failure_mode = ft::FailureMode::kAbsorb;
    pagepop.job.journal_interval = 4;
    table.push_back(pagepop);

    Workload svc;
    svc.name = "service_mixed";
    svc.variants = variants;
    svc.service_spec =
        std::string("tenants=2,arrival=0.06,duration=") +
        (smoke ? "200" : "800") + ",blocks=" + (smoke ? "24" : "60") +
        ",items=8,reducers=2,target=0.05,pressure=2,degrade=2,"
        "maxscale=4,endgame=25,preempt=1,"
        "workloads=wikilength+projectpop";
    svc.service_jobs = smoke ? 12 : 48;
    table.push_back(svc);
    return table;
}

/** Seed of input variant @p v of a run seeded with @p seed (splitmix64
 *  of the pair; variant 0 is the seed itself). */
uint64_t
variantSeed(uint64_t seed, uint32_t v)
{
    if (v == 0) {
        return seed;
    }
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * v;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Committed run digests (runDigest) of the full-shape workloads. */
struct ExpectedDigest
{
    const char* workload;
    uint64_t seed;
    uint64_t digest;
};
constexpr ExpectedDigest kExpectedDigests[] = {
    {"wiki_precise_warm", 7, 0x1e78758fd128ce7aULL},
    {"access_target_pilot", 7, 0x53b209af0fd2989aULL},
    {"pagepop_journal_faults", 7, 0xb1dfde6fb63140f1ULL},
    {"service_mixed", 7, 0xd6d4b746a902c4d4ULL},
};

std::optional<uint64_t>
expectedDigest(const std::string& workload, uint64_t seed)
{
    for (const ExpectedDigest& e : kExpectedDigests) {
        if (workload == e.workload && seed == e.seed) {
            return e.digest;
        }
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

/** What one op produced (counts are read from op 0 only). */
struct OpOutcome
{
    /** Building the op's inputs, before its clock starts. */
    double setup_ms = 0.0;
    double wall_ms = 0.0;
    /** Process CPU time over the same interval as wall_ms (untraced). */
    double cpu_s = 0.0;
    uint64_t digest = 0;
    /** Named exact counts: Counters of the job, or summed over the
     *  service's jobs. */
    std::map<std::string, double> counts;
};

void
addCounters(const mr::Counters& c, std::map<std::string, double>& out)
{
    auto add = [&out](const char* name, double v) { out[name] += v; };
    add("mapreduce.maps_completed", static_cast<double>(c.maps_completed));
    add("mapreduce.maps_dropped", static_cast<double>(c.maps_dropped));
    add("mapreduce.attempts_launched",
        static_cast<double>(c.map_attempts_launched));
    add("mapreduce.records_shuffled",
        static_cast<double>(c.records_shuffled));
    add("mapreduce.chunks_delivered",
        static_cast<double>(c.chunks_delivered));
    add("integrity.chunks_corrupted",
        static_cast<double>(c.chunks_corrupted));
    add("integrity.chunk_refetches", static_cast<double>(c.chunk_refetches));
    add("core.reduce_attempts_failed",
        static_cast<double>(c.reduce_attempts_failed));
    add("core.chunks_replayed", static_cast<double>(c.chunks_replayed));
}

/** A workload's inputs and its op. */
class Bench
{
  public:
    virtual ~Bench() = default;
    /** Runs one op on input @p variant; traced through @p tracer (as op
     *  @p variant) when non-null. */
    virtual OpOutcome run(uint32_t variant, uint32_t threads,
                          Tracer* tracer) = 0;
};

class JobBench final : public Bench
{
  public:
    /** For a warm shape, constructing is the workload's set-up: it builds
     *  the dataset every op reads and fills its block cache with one
     *  untimed op. */
    JobBench(const JobShape& shape, uint64_t seed)
        : shape_(shape), seed_(seed),
          workload_(*apps::findAggregationWorkload(shape.app))
    {
        if (shape.faults[0] != '\0') {
            faults_ = ft::FaultPlan::parse(shape.faults);
        }
        if (shape_.warm) {
            data_ = workload_.make_dataset(shape_.blocks, shape_.items,
                                           seed_);
            run(0, 1, nullptr);
        }
    }

    OpOutcome run(uint32_t variant, uint32_t threads, Tracer* tracer) override
    {
        Clock::time_point setup0 = Clock::now();
        uint64_t seed = variantSeed(seed_, variant);
        std::unique_ptr<hdfs::BlockDataset> fresh;
        const hdfs::BlockDataset* data = data_.get();
        if (!shape_.warm) {
            fresh = workload_.make_dataset(shape_.blocks, shape_.items, seed);
            data = fresh.get();
        }
        mr::JobConfig config =
            workload_.job_config(shape_.items, shape_.reducers);
        config.seed = seed;
        config.num_exec_threads = threads;
        config.fault_plan = faults_;
        config.fault_plan.seed = seed;
        config.failure_mode = shape_.failure_mode;
        std::unique_ptr<journal::JobJournal> journal;
        if (shape_.journal_interval > 0) {
            journal = journal::JobJournal::createInMemory(
                runSpec(seed, threads, config.fault_plan));
            config.journal_map_interval = shape_.journal_interval;
        }
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode namenode(cluster.numServers(), 3, seed);
        core::ApproxJobRunner runner(cluster, *data, namenode);
        runner.setEpochSink(journal.get());

        OpOutcome outcome;
        outcome.setup_ms = msSince(setup0);
        mr::JobResult result;
        if (tracer == nullptr) {
            double cpu0 = cpuSeconds();
            Clock::time_point t0 = Clock::now();
            result = shape_.precise
                         ? runner.runPrecise(
                               std::move(config), workload_.mapper_factory(),
                               workload_.precise_reducer_factory())
                         : runner.runAggregation(std::move(config),
                                                 shape_.approx,
                                                 workload_.mapper_factory(),
                                                 workload_.op);
            outcome.wall_ms = msSince(t0);
            outcome.cpu_s = cpuSeconds() - cpu0;
        } else {
            {
                Tracer::Scope op = tracer->beginOp(variant);
                result =
                    shape_.precise
                        ? tracedRunPrecise(
                              cluster, *data, namenode, std::move(config),
                              workload_.mapper_factory(),
                              workload_.precise_reducer_factory(),
                              journal.get(), *tracer)
                        : tracedRunAggregation(
                              cluster, *data, namenode, std::move(config),
                              shape_.approx, workload_.mapper_factory(),
                              workload_.op, journal.get(), *tracer);
            }
            outcome.wall_ms =
                static_cast<double>(tracer->totals().op_ns) / 1e6;
        }
        outcome.digest = jobDigest(result);
        addCounters(result.counters, outcome.counts);
        outcome.counts["sim.runtime_s"] = result.runtime;
        outcome.counts["journal.bytes"] =
            journal ? static_cast<double>(journal->bytes().size()) : 0.0;
        return outcome;
    }

  private:
    journal::RunSpec runSpec(uint64_t seed, uint32_t threads,
                             const ft::FaultPlan& faults) const
    {
        journal::RunSpec spec;
        spec.app = shape_.app;
        spec.precise = shape_.precise;
        spec.blocks = shape_.blocks;
        spec.items = shape_.items;
        spec.seed = seed;
        spec.reducers = shape_.reducers;
        spec.threads = threads;
        spec.cluster = "xeon10";
        spec.sampling = shape_.approx.sampling_ratio;
        spec.drop = shape_.approx.drop_ratio;
        spec.failure_mode = ft::toString(shape_.failure_mode);
        spec.fault_plan = faults.spec();
        spec.map_interval = shape_.journal_interval;
        return spec;
    }

    JobShape shape_;
    uint64_t seed_;
    const apps::AggregationWorkload& workload_;
    ft::FaultPlan faults_;
    /** The warm dataset, read by every op; null otherwise. */
    std::unique_ptr<hdfs::BlockDataset> data_;
};

/**
 * One op = one whole JobService::run(). Each variant's arrival stream is
 * the service's own seeded Poisson stream, conditioned on holding exactly
 * service_jobs jobs: the first seed from the variant's seed on whose
 * stream the service's ArrivalGenerator yields that many. Without the
 * condition the job count alone (Poisson, ~15% spread) would decide an
 * op's cost; per-job cost varies by a few percent. The search picks the
 * inputs, like variantSeed, so it is not timed; an op's set-up is
 * constructing its JobService. The service has no hooks for decorators,
 * so it is never traced.
 */
class ServiceBench final : public Bench
{
  public:
    ServiceBench(const Workload& w, uint64_t seed) : jobs_(w.service_jobs)
    {
        service::ServiceSpec spec = service::parseServiceSpec(w.service_spec);
        for (uint32_t v = 0; v < w.variants; ++v) {
            spec.seed = conditionedSeed(spec, variantSeed(seed, v));
            specs_.push_back(spec);
        }
    }

    OpOutcome run(uint32_t variant, uint32_t, Tracer*) override
    {
        OpOutcome outcome;
        Clock::time_point setup0 = Clock::now();
        service::JobService svc(specs_.at(variant));
        outcome.setup_ms = msSince(setup0);
        double cpu0 = cpuSeconds();
        Clock::time_point t0 = Clock::now();
        service::ServiceReport report = svc.run();
        outcome.wall_ms = msSince(t0);
        outcome.cpu_s = cpuSeconds() - cpu0;
        if (report.jobs_submitted != jobs_) {
            throw std::runtime_error("service ran " +
                                     std::to_string(report.jobs_submitted) +
                                     " jobs, expected " +
                                     std::to_string(jobs_));
        }
        outcome.digest = textDigest(report.toJson());
        uint64_t completed = 0;
        uint64_t degraded = 0;
        for (const service::JobService::JobOutcome& o : svc.outcomes()) {
            completed += o.completed ? 1 : 0;
            degraded += o.ever_degraded ? 1 : 0;
            addCounters(o.result.counters, outcome.counts);
        }
        outcome.counts["service.jobs_completed"] =
            static_cast<double>(completed);
        outcome.counts["service.jobs_degraded"] =
            static_cast<double>(degraded);
        outcome.counts["service.jobs_preempted"] =
            static_cast<double>(report.jobs_preempted);
        outcome.counts["sim.runtime_s"] = report.sim_makespan;
        return outcome;
    }

  private:
    uint64_t conditionedSeed(service::ServiceSpec spec, uint64_t seed) const
    {
        constexpr int kMaxTries = 100000;
        for (int i = 0; i < kMaxTries; ++i, ++seed) {
            spec.seed = seed;
            if (service::ArrivalGenerator(spec, spec.workloads)
                    .generate()
                    .size() == jobs_) {
                return seed;
            }
        }
        throw std::runtime_error("no arrival stream with " +
                                 std::to_string(jobs_) + " jobs");
    }

    size_t jobs_;
    std::vector<service::ServiceSpec> specs_;
};

std::unique_ptr<Bench>
makeBench(const Workload& w, uint64_t seed)
{
    if (!w.service_spec.empty()) {
        return std::make_unique<ServiceBench>(w, seed);
    }
    return std::make_unique<JobBench>(w.job, seed);
}

// ---------------------------------------------------------------------------
// Phases (each runs in its own child process)
// ---------------------------------------------------------------------------

/** What a phase hands back to the parent: named values and op tallies. */
struct PhaseResult
{
    std::map<std::string, double> values;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Per input variant, the digest of its first op; every later op of
     *  the variant must match it. */
    std::map<uint32_t, uint64_t> digests;
    std::string error;

    std::string encode() const
    {
        std::string out;
        char line[512];
        for (const auto& [name, value] : values) {
            std::snprintf(line, sizeof(line), "v %s %.17g\n", name.c_str(),
                          value);
            out += line;
        }
        for (const auto& [variant, digest] : digests) {
            std::snprintf(line, sizeof(line), "d %u %016" PRIx64 "\n",
                          variant, digest);
            out += line;
        }
        std::snprintf(line, sizeof(line), "n %" PRIu64 " %" PRIu64 "\n",
                      attempted, failed);
        out += line;
        if (!error.empty()) {
            out += "e " + error + "\n";
        }
        return out;
    }

    static PhaseResult decode(const std::string& text)
    {
        PhaseResult r;
        size_t pos = 0;
        while (pos < text.size()) {
            size_t eol = text.find('\n', pos);
            std::string line = text.substr(pos, eol - pos);
            pos = eol == std::string::npos ? text.size() : eol + 1;
            char name[256];
            double value = 0.0;
            unsigned variant = 0;
            uint64_t digest = 0;
            if (std::sscanf(line.c_str(), "v %255s %lf", name, &value) == 2) {
                r.values[name] = value;
            } else if (std::sscanf(line.c_str(), "d %u %" SCNx64, &variant,
                                   &digest) == 2) {
                r.digests[variant] = digest;
            } else if (line.rfind("n ", 0) == 0) {
                std::sscanf(line.c_str(), "n %" SCNu64 " %" SCNu64,
                            &r.attempted, &r.failed);
            } else if (line.rfind("e ", 0) == 0) {
                r.error = line.substr(2);
            }
        }
        return r;
    }
};

/**
 * Runs one op and tallies it: an op that throws, or whose digest differs
 * from the first op of its variant, counts as failed.
 */
std::optional<OpOutcome>
runOp(Bench& bench, uint32_t variant, uint32_t threads, Tracer* tracer,
      PhaseResult& r)
{
    ++r.attempted;
    std::optional<OpOutcome> op;
    try {
        op = bench.run(variant, threads, tracer);
    } catch (const std::exception& e) {
        ++r.failed;
        if (r.error.empty()) {
            r.error = std::string("op threw: ") + e.what();
        }
        return std::nullopt;
    }
    auto [it, first] = r.digests.emplace(variant, op->digest);
    if (!first && it->second != op->digest) {
        ++r.failed;
        if (r.error.empty()) {
            r.error = "op digest of variant " + std::to_string(variant) +
                      " differs from its first op's";
        }
        return std::nullopt;
    }
    return op;
}

/** One digest for a whole run: XXH64 over the variants' digests. */
uint64_t
runDigest(const std::map<uint32_t, uint64_t>& digests)
{
    integrity::Hasher64 h;
    for (const auto& [variant, digest] : digests) {
        h.update(static_cast<uint64_t>(variant));
        h.update(digest);
    }
    return h.digest();
}

struct Options
{
    std::vector<std::string> workloads;
    uint64_t seed = 7;
    std::optional<double> seconds;
    /** -1: both phases, every metric on the last line. */
    int trace = -1;
    std::string json_path;
    std::string trace_dir;
    bool smoke = false;
};

/**
 * Timed phase: ops closed loop at the workload's thread count. setup_s
 * is the median set-up: over kSetups constructions of the warm
 * workload's bench, or else over the ops' own input builds. A
 * calibration unit runs right before each set-up and each op, and each
 * of their times is reported at the reference host speed.
 */
PhaseResult
timedPhase(const Workload& w, const Options& opt)
{
    PhaseResult r;
    std::vector<double> setup_s;
    std::vector<double> unit_ms;
    std::unique_ptr<Bench> bench;
    if (!w.job.warm) {
        bench = makeBench(w, opt.seed);
    }
    size_t setups = !w.job.warm ? 0 : opt.smoke ? kSmokeSetups : kSetups;
    for (size_t i = 0; i < setups; ++i) {
        bench.reset();
        unit_ms.push_back(calibrationUnitMs());
        Clock::time_point t0 = Clock::now();
        bench = makeBench(w, opt.seed);
        setup_s.push_back(atReferenceSpeed(msSince(t0), unit_ms.back()) /
                          1e3);
    }

    size_t min_ops = opt.smoke ? kSmokeTimedOps : kMinTimedOps;
    double budget_ms =
        1e3 * opt.seconds.value_or(opt.smoke ? 0.0 : kDefaultSeconds);
    std::vector<double> walls;
    std::vector<double> raw_walls;
    double cpu_s = 0.0;
    Clock::time_point start = Clock::now();
    for (uint32_t i = 0;
         r.attempted < min_ops || msSince(start) < budget_ms; ++i) {
        unit_ms.push_back(calibrationUnitMs());
        std::optional<OpOutcome> op =
            runOp(*bench, i % w.variants, w.threads, nullptr, r);
        if (!op.has_value()) {
            continue;
        }
        walls.push_back(atReferenceSpeed(op->wall_ms, unit_ms.back()));
        raw_walls.push_back(op->wall_ms);
        cpu_s += op->cpu_s;
        if (!w.job.warm) {
            setup_s.push_back(
                atReferenceSpeed(op->setup_ms, unit_ms.back()) / 1e3);
        }
        if (i == 0) {
            for (const auto& [name, value] : op->counts) {
                r.values[name] = value;
            }
        }
    }
    double wall_sum = 0.0;
    for (double ms : raw_walls) {
        wall_sum += ms;
    }
    r.values["setup_s"] = median(setup_s);
    r.values["op_wall_ms_p50"] = median(walls);
    if (std::optional<double> p90 = percentile(walls, 90.0)) {
        r.values["op_wall_ms_p90"] = *p90;
    }
    r.values["op_wall_ms_iqr"] = iqr(walls);
    r.values["op_wall_ms_p50_raw"] = median(raw_walls);
    r.values["host.calib_unit_ms"] = median(unit_ms);
    r.values["common.thread_pool.cpu_per_wall"] =
        wall_sum > 0.0 ? cpu_s / (wall_sum / 1e3) : 0.0;
    return r;
}

/**
 * Traced phase: traced ops alternating with untraced ones on the same
 * input variant, all at one exec thread, each pair followed by a
 * kCheckThreads op whose digest alone counts. Per-layer values are
 * medians over the traced ops.
 */
PhaseResult
tracedPhase(const Workload& w, const Options& opt)
{
    PhaseResult r;
    std::unique_ptr<Bench> bench = makeBench(w, opt.seed);
    Tracer tracer;
    size_t pairs = opt.smoke ? kSmokeTracedPairs : kTracedPairs;
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    std::vector<LayerTotals> totals;
    for (uint32_t i = 0; i < pairs; ++i) {
        uint32_t variant = i % w.variants;
        std::optional<OpOutcome> plain =
            runOp(*bench, variant, 1, nullptr, r);
        if (plain.has_value()) {
            untraced_ms.push_back(plain->wall_ms);
        }
        std::optional<OpOutcome> traced =
            runOp(*bench, variant, 1, &tracer, r);
        if (traced.has_value()) {
            traced_ms.push_back(traced->wall_ms);
            totals.push_back(tracer.totals());
        }
        runOp(*bench, variant, kCheckThreads, nullptr, r);
    }

    auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
    auto medianOf = [&totals](const std::function<double(
                                  const LayerTotals&)>& get) {
        std::vector<double> v;
        for (const LayerTotals& t : totals) {
            v.push_back(get(t));
        }
        return median(v);
    };
    for (size_t l = 0; l < kNumLayers; ++l) {
        r.values[std::string(layerName(static_cast<Layer>(l))) +
                 ".self_ms"] =
            medianOf([&](const LayerTotals& t) { return ms(t.self_ns[l]); });
    }
    r.values["mapreduce.driver_residual.self_ms"] =
        medianOf([&](const LayerTotals& t) {
            int64_t spans = 0;
            for (int64_t ns : t.self_ns) {
                spans += ns;
            }
            return ms(t.op_ns - spans);
        });
    r.values["hdfs.read_items.records"] = medianOf(
        [](const LayerTotals& t) { return double(t.read_records); });
    r.values["hdfs.read_items.full_block_frac"] =
        medianOf([](const LayerTotals& t) {
            return t.read_calls == 0 ? 0.0
                                     : double(t.read_full_block_calls) /
                                           double(t.read_calls);
        });
    r.values["integrity.checksum.records"] = medianOf(
        [](const LayerTotals& t) { return double(t.checksum_records); });
    r.values["core.reduce_consume.chunks"] = medianOf(
        [](const LayerTotals& t) { return double(t.consume_chunks); });
    r.values["core.controller.calls"] = medianOf(
        [](const LayerTotals& t) { return double(t.controller_calls); });
    r.values["core.reduce_checkpoint.bytes"] = medianOf(
        [](const LayerTotals& t) { return double(t.checkpoint_bytes); });
    r.values["journal.epochs"] =
        medianOf([](const LayerTotals& t) { return double(t.epochs); });

    // Overhead compares like with like: the checksum replay is work the
    // traced op adds on purpose, so it is taken out first.
    std::vector<double> traced_net;
    for (size_t i = 0; i < totals.size(); ++i) {
        traced_net.push_back(
            traced_ms[i] -
            ms(totals[i].self_ns[static_cast<size_t>(Layer::kChecksum)]));
    }
    double untraced = median(untraced_ms);
    r.values["trace.overhead_frac"] =
        untraced > 0.0 ? median(traced_net) / untraced - 1.0 : 0.0;

    if (!opt.trace_dir.empty()) {
        std::string path = opt.trace_dir + "/" + w.name + ".trace.json";
        std::FILE* f = std::fopen(path.c_str(), "w");
        std::string json = tracer.chromeTraceJson();
        if (f == nullptr ||
            std::fwrite(json.data(), 1, json.size(), f) != json.size() ||
            std::fclose(f) != 0) {
            r.error = "cannot write " + path;
            ++r.failed;
        }
    }
    return r;
}

/**
 * Memory phase: one op on input @p variant in a process of its own, so
 * the process's peak RSS is that of building the inputs and running one
 * job, as a user running that job would see it.
 */
PhaseResult
memoryPhase(const Workload& w, const Options& opt, uint32_t variant)
{
    PhaseResult r;
    std::unique_ptr<Bench> bench = makeBench(w, opt.seed);
    runOp(*bench, variant, w.threads, nullptr, r);
    return r;
}

/** A phase's result plus the peak RSS of the process that ran it. */
struct ChildOutcome
{
    PhaseResult result;
    double peak_rss_mb = 0.0;
};

/**
 * Runs @p phase in a forked child and waits for it. The parent never
 * starts a thread, so forking is safe; the child's exec-thread pools are
 * joined before it exits.
 */
ChildOutcome
runInChild(const std::function<PhaseResult()>& phase)
{
    ChildOutcome out;
    int fds[2];
    if (pipe(fds) != 0) {
        out.result.error = std::string("pipe: ") + std::strerror(errno);
        return out;
    }
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0) {
        out.result.error = std::string("fork: ") + std::strerror(errno);
        close(fds[0]);
        close(fds[1]);
        return out;
    }
    if (pid == 0) {
        close(fds[0]);
        PhaseResult r;
        try {
            r = phase();
        } catch (const std::exception& e) {
            r.error = std::string("phase threw: ") + e.what();
        }
        std::string text = r.encode();
        size_t off = 0;
        while (off < text.size()) {
            ssize_t n = write(fds[1], text.data() + off, text.size() - off);
            if (n <= 0 && errno != EINTR) {
                break;
            }
            off += n > 0 ? static_cast<size_t>(n) : 0;
        }
        close(fds[1]);
        std::fflush(nullptr);
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            text.append(buf, static_cast<size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    out.result = PhaseResult::decode(text);
    // Linux reports ru_maxrss in KiB.
    out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        out.result.error = "phase process died (status " +
                           std::to_string(status) + ")";
    }
    return out;
}

// ---------------------------------------------------------------------------
// Metrics and reporting
// ---------------------------------------------------------------------------

struct MetricSpec
{
    const char* name;
    const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"op_wall_ms_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"hdfs.read_items.self_ms", "ms"},
    {"hdfs.read_items.records", "count"},
    {"hdfs.read_items.full_block_frac", "ratio"},
    {"apps.map_batch.self_ms", "ms"},
    {"core.input_select.self_ms", "ms"},
    {"mapreduce.partition.self_ms", "ms"},
    {"integrity.checksum.self_ms", "ms"},
    {"integrity.checksum.records", "count"},
    {"core.reduce_consume.self_ms", "ms"},
    {"core.reduce_consume.chunks", "count"},
    {"core.reduce_finalize.self_ms", "ms"},
    {"core.controller.self_ms", "ms"},
    {"core.controller.calls", "count"},
    {"core.reduce_checkpoint.self_ms", "ms"},
    {"core.reduce_checkpoint.bytes", "B"},
    // Reducer::restore spans stay in the Chrome trace but get no metric:
    // at rcrash=0.05 most traced ops restore nothing, so its median is 0.
    {"journal.on_epoch.self_ms", "ms"},
    {"journal.epochs", "count"},
    {"journal.bytes", "B"},
    {"mapreduce.driver_residual.self_ms", "ms"},
    {"common.thread_pool.cpu_per_wall", "ratio"},
    {"mapreduce.maps_completed", "count"},
    {"mapreduce.maps_dropped", "count"},
    {"mapreduce.attempts_launched", "count"},
    {"mapreduce.attempt_useful_frac", "ratio"},
    {"mapreduce.records_shuffled", "count"},
    {"mapreduce.chunks_delivered", "count"},
    {"integrity.chunks_corrupted", "count"},
    {"integrity.chunk_refetches", "count"},
    {"core.reduce_attempts_failed", "count"},
    {"core.chunks_replayed", "count"},
    {"sim.runtime_s", "sim_s"},  // simulated seconds: exact, not host time
    {"service.jobs_completed", "count"},
    {"service.jobs_degraded", "count"},
    {"service.jobs_preempted", "count"},
    {"op_wall_ms_p90", "ms"},
    {"op_wall_ms_iqr", "ms"},
    {"op_wall_ms_p50_raw", "ms"},  // as measured, not speed-scaled
    {"host.calib_unit_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/** Everything measured for one workload. */
struct WorkloadReport
{
    std::string name;
    std::map<std::string, double> values;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t digest = 0;
    std::vector<std::string> errors;
    bool traced = false;
};

/**
 * Adds a later phase's op tallies and errors to @p rep. Its digests pin
 * what differs from the timed ops (a fresh process; tracing; the thread
 * count) as free of any effect on results: one that differs from the
 * timed ops' for the same input counts as a failed op.
 */
void
mergePhase(WorkloadReport& rep, const std::string& phase,
           const PhaseResult& r,
           const std::map<uint32_t, uint64_t>& timed_digests)
{
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    if (!r.error.empty()) {
        rep.errors.push_back(phase + ": " + r.error);
    }
    for (const auto& [variant, digest] : r.digests) {
        auto it = timed_digests.find(variant);
        if (it != timed_digests.end() && it->second != digest) {
            ++rep.failed;
            rep.errors.push_back("variant " + std::to_string(variant) +
                                 ": " + phase +
                                 " digest differs from the timed ops'");
        }
    }
}

WorkloadReport
measure(const Workload& w, const Options& opt)
{
    WorkloadReport rep;
    rep.name = w.name;
    ChildOutcome timed =
        runInChild([&w, &opt] { return timedPhase(w, opt); });
    rep.values = timed.result.values;
    rep.attempted = timed.result.attempted;
    rep.failed = timed.result.failed;
    rep.digest = runDigest(timed.result.digests);
    if (!timed.result.error.empty()) {
        rep.errors.push_back("timed: " + timed.result.error);
    }
    if (rep.attempted == 0) {
        rep.attempted = 1;
        rep.failed = 1;
    }

    // Layer metrics default to 0: a layer the op never calls did no
    // work. The service cannot be decorated, so its whole op is residual.
    // A refused p90 (too few ops) stays absent.
    for (const MetricSpec& m : kPerLayer) {
        if (std::strcmp(m.name, "op_wall_ms_p90") != 0) {
            rep.values.emplace(m.name, 0.0);
        }
    }
    double launched = rep.values["mapreduce.attempts_launched"];
    rep.values["mapreduce.attempt_useful_frac"] =
        launched > 0.0 ? rep.values["mapreduce.maps_completed"] / launched
                       : 0.0;
    if (!w.service_spec.empty()) {
        rep.values["mapreduce.driver_residual.self_ms"] =
            rep.values["op_wall_ms_p50_raw"];
    }

    if (opt.trace != 1) {
        std::vector<double> peaks;
        uint32_t inputs = std::min(w.variants, kMemoryVariants);
        for (uint32_t v = 0; v < inputs; ++v) {
            ChildOutcome mem = runInChild(
                [&w, &opt, v] { return memoryPhase(w, opt, v); });
            peaks.push_back(mem.peak_rss_mb);
            mergePhase(rep, "memory", mem.result, timed.result.digests);
        }
        rep.values["peak_rss_mb"] = median(peaks);
    }

    if (opt.trace != 0 && w.service_spec.empty()) {
        rep.traced = true;
        ChildOutcome traced =
            runInChild([&w, &opt] { return tracedPhase(w, opt); });
        for (const auto& [name, value] : traced.result.values) {
            rep.values[name] = value;
        }
        mergePhase(rep, "traced", traced.result, timed.result.digests);
    }

    std::optional<uint64_t> expected =
        opt.smoke ? std::nullopt : expectedDigest(w.name, opt.seed);
    if (expected.has_value() && rep.digest != *expected) {
        ++rep.failed;
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "digest %016" PRIx64 " != committed %016" PRIx64,
                      rep.digest, *expected);
        rep.errors.push_back(buf);
    }
    return rep;
}

/** The metrics reported for @p trace, in table order. */
std::vector<MetricSpec>
selectedMetrics(int trace)
{
    std::vector<MetricSpec> out;
    if (trace != 1) {
        out.insert(out.end(), std::begin(kEndToEnd), std::end(kEndToEnd));
    }
    if (trace != 0) {
        out.insert(out.end(), std::begin(kPerLayer), std::end(kPerLayer));
    }
    return out;
}

void
printReport(const WorkloadReport& rep, const Workload& w, const Options& opt)
{
    std::printf("== %s  seed %" PRIu64 "  exec threads %u  digest %016" PRIx64
                "  ops %" PRIu64 " (failed %" PRIu64 ")\n",
                rep.name.c_str(), opt.seed, w.threads, rep.digest,
                rep.attempted, rep.failed);
    for (const MetricSpec& m : selectedMetrics(opt.trace)) {
        auto it = rep.values.find(m.name);
        if (it != rep.values.end()) {
            std::printf("  %-36s %16.6g %s\n", m.name, it->second, m.unit);
        }
    }
    for (const std::string& e : rep.errors) {
        std::printf("  ERROR: %s\n", e.c_str());
    }
}

/** The one-line result; metric names are prefixed with the workload
 *  name when more than one workload ran. */
std::string
resultLine(const std::vector<WorkloadReport>& reports, int trace)
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    for (const WorkloadReport& r : reports) {
        attempted += r.attempted;
        failed += r.failed;
    }
    std::string line = "{\"correct\": ";
    line += failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const WorkloadReport& r : reports) {
        std::string prefix = reports.size() > 1 ? r.name + "." : "";
        for (const MetricSpec& m : selectedMetrics(trace)) {
            auto it = r.values.find(m.name);
            if (it == r.values.end()) {
                continue;
            }
            line += first ? "" : ", ";
            first = false;
            line += obs::JsonWriter::quoted(prefix + m.name) +
                    ": {\"value\": " + obs::JsonWriter::number(it->second) +
                    ", \"unit\": " + obs::JsonWriter::quoted(m.unit) + "}";
        }
    }
    line += "}}";
    return line;
}

std::string
jsonReport(const std::vector<WorkloadReport>& reports, const Options& opt)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("schema", "approxhadoop-bench-approx/1");
    w.field("seed", opt.seed);
    w.field("smoke", opt.smoke);
    w.beginArray("workloads");
    for (const WorkloadReport& r : reports) {
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016" PRIx64, r.digest);
        w.beginObject();
        w.field("name", r.name);
        w.field("digest", digest);
        w.field("attempted", r.attempted);
        w.field("failed", r.failed);
        w.beginObject("metrics");
        for (const MetricSpec& m : selectedMetrics(opt.trace)) {
            auto it = r.values.find(m.name);
            if (it == r.values.end()) {
                continue;
            }
            w.beginObject(m.name);
            w.field("value", it->second);
            w.field("unit", m.unit);
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
writeFile(const std::string& path, const std::string& text)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

std::optional<obs::JsonValue>
parseFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
        return std::nullopt;
    }
    std::string text;
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);
    return obs::parseJson(text);
}

// ---------------------------------------------------------------------------
// Smoke self-checks
// ---------------------------------------------------------------------------

/** Checks the statistics helpers' contracts; returns failures. */
std::vector<std::string>
checkStatsHelpers()
{
    std::vector<std::string> failures;
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i) {
        hundred.push_back(i);
    }
    std::optional<double> p90 = percentile(hundred, 90.0);
    size_t beyond = 0;
    for (double v : hundred) {
        beyond += p90.has_value() && v > *p90 ? 1 : 0;
    }
    if (!p90.has_value() || beyond != 10) {
        failures.push_back("p90 of 100 samples must leave exactly 10 "
                           "beyond it");
    }
    if (percentile(std::vector<double>(hundred.begin(),
                                       hundred.begin() + 20),
                   90.0)
            .has_value()) {
        failures.push_back("p90 of 20 samples must be refused");
    }
    if (iqr(hundred) != 50.0) {
        failures.push_back("iqr of 1..100 must be 75 - 25");
    }
    mr::JobResult result;
    result.output.push_back(
        mr::OutputRecord{"k", 10.0, true, 9.0, 11.0});
    uint64_t before = jobDigest(result);
    uint64_t bits = 0;
    std::memcpy(&bits, &result.output[0].upper, sizeof(bits));
    bits ^= 1;
    std::memcpy(&result.output[0].upper, &bits, sizeof(bits));
    if (jobDigest(result) == before) {
        failures.push_back("flipping one bit of an output bound must "
                           "change the digest");
    }
    return failures;
}

/** Re-parses the smoke run's --json and --trace-out output. */
std::vector<std::string>
checkArtifacts(const Options& opt,
               const std::vector<WorkloadReport>& reports)
{
    std::vector<std::string> failures;
    if (!opt.json_path.empty()) {
        std::optional<obs::JsonValue> doc = parseFile(opt.json_path);
        if (!doc.has_value() ||
            doc->at("workloads").array.size() != reports.size()) {
            failures.push_back(opt.json_path + " does not parse back");
        } else {
            for (size_t i = 0; i < reports.size(); ++i) {
                const obs::JsonValue& m =
                    doc->at("workloads").array[i].at("metrics");
                double p50 = m.at("op_wall_ms_p50").at("value").number;
                if (p50 != reports[i].values.at("op_wall_ms_p50")) {
                    failures.push_back(opt.json_path +
                                       ": op_wall_ms_p50 does not "
                                       "round-trip");
                }
            }
        }
    }
    if (!opt.trace_dir.empty()) {
        for (const WorkloadReport& r : reports) {
            if (!r.traced) {
                continue;
            }
            std::string path = opt.trace_dir + "/" + r.name + ".trace.json";
            std::optional<obs::JsonValue> doc = parseFile(path);
            if (!doc.has_value() || doc->at("traceEvents").array.empty()) {
                failures.push_back(path + " does not parse back");
            }
        }
    }
    return failures;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

void
usage(const char* argv0, const std::vector<Workload>& table)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME]... [--seed S] [--seconds T]\n"
                 "          [--trace 0|1] [--json PATH] [--trace-out DIR] "
                 "[--smoke]\nworkloads:",
                 argv0);
    for (const Workload& w : table) {
        std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
}

bool
parseUnsigned(const char* text, uint64_t& out)
{
    if (text == nullptr || *text < '0' || *text > '9') {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0') {
        return false;
    }
    out = v;
    return true;
}

/** Parses argv; nullopt on bad usage. */
std::optional<Options>
parseArgs(int argc, char** argv, const std::vector<Workload>& table)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--smoke") {
            opt.smoke = true;
            continue;
        }
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (value == nullptr) {
            std::fprintf(stderr, "%s: missing value\n", flag.c_str());
            return std::nullopt;
        }
        ++i;
        uint64_t n = 0;
        if (flag == "--workload") {
            bool known = false;
            for (const Workload& w : table) {
                known = known || value == std::string(w.name);
            }
            if (!known) {
                std::fprintf(stderr, "unknown workload '%s'\n", value);
                return std::nullopt;
            }
            opt.workloads.push_back(value);
        } else if (flag == "--seed" && parseUnsigned(value, n)) {
            opt.seed = n;
        } else if (flag == "--seconds" && parseUnsigned(value, n) &&
                   n <= 3600) {
            opt.seconds = static_cast<double>(n);
        } else if (flag == "--trace" && parseUnsigned(value, n) && n <= 1) {
            opt.trace = static_cast<int>(n);
        } else if (flag == "--json") {
            opt.json_path = value;
        } else if (flag == "--trace-out") {
            opt.trace_dir = value;
        } else {
            std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(),
                         value);
            return std::nullopt;
        }
    }
    return opt;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::vector<Workload> full = workloadTable(false);
    std::optional<Options> parsed = parseArgs(argc, argv, full);
    if (!parsed.has_value()) {
        usage(argv[0], full);
        return 2;
    }
    Options opt = *parsed;
    const std::vector<Workload> table = workloadTable(opt.smoke);

    std::vector<std::string> failures;
    if (opt.smoke) {
        failures = checkStatsHelpers();
    }
    if (!opt.trace_dir.empty()) {
        // A failure shows up as the traced phase's "cannot write".
        std::error_code ignored;
        std::filesystem::create_directories(opt.trace_dir, ignored);
    }
    std::vector<WorkloadReport> reports;
    for (const Workload& w : table) {
        bool selected = opt.workloads.empty();
        for (const std::string& name : opt.workloads) {
            selected = selected || name == w.name;
        }
        if (!selected) {
            continue;
        }
        reports.push_back(measure(w, opt));
        printReport(reports.back(), w, opt);
        std::fflush(stdout);
    }

    if (!opt.json_path.empty() &&
        !writeFile(opt.json_path, jsonReport(reports, opt) + "\n")) {
        failures.push_back("cannot write " + opt.json_path);
    }
    if (opt.smoke) {
        std::vector<std::string> more = checkArtifacts(opt, reports);
        failures.insert(failures.end(), more.begin(), more.end());
    }
    for (const std::string& f : failures) {
        std::printf("FAIL: %s\n", f.c_str());
    }
    if (!failures.empty() && !reports.empty()) {
        ++reports.front().failed;
    }
    std::printf("%s\n", resultLine(reports, opt.trace).c_str());
    bool ok = failures.empty();
    for (const WorkloadReport& r : reports) {
        ok = ok && r.failed == 0;
    }
    return ok ? 0 : 1;
}
