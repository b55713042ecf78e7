/**
 * @file
 * approxrun — command-line driver for the ApproxHadoop reproduction.
 *
 * Runs any of the paper's applications on the simulated cluster with the
 * approximation settings given on the command line, and prints the
 * result records (with confidence intervals), runtime, energy, and job
 * counters. Examples:
 *
 *   approxrun projectpop --sampling 0.01
 *   approxrun wikilength --drop 0.5 --sampling 0.1 --reps 3
 *   approxrun pagepop --target 0.01 --pilot 80:0.05
 *   approxrun dcplacement --target 0.05
 *   approxrun video --user-defined 0.5
 *   approxrun projectpop --precise --cluster atom60 --blocks 3552
 */
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/aggregation_registry.h"
#include "apps/dc_placement_app.h"
#include "apps/frame_encoder_app.h"
#include "common/logging.h"
#include "common/spec.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "ft/fault_plan.h"
#include "ft/recovery_policy.h"
#include "hdfs/namenode.h"
#include "journal/journal.h"
#include "obs/observability.h"
#include "obs/report.h"
#include "sim/cluster.h"
#include "workloads/dc_placement.h"

using namespace approxhadoop;

namespace {

struct Options
{
    std::string app;
    core::ApproxConfig approx;
    bool precise = false;
    bool s3 = false;
    bool verbose = false;
    uint64_t blocks = 0;  // 0 = app default
    uint64_t items = 0;
    uint32_t reducers = 1;
    uint32_t threads = 1;
    uint64_t seed = 42;
    std::string cluster = "xeon10";
    int top = 10;
    ft::FaultPlan fault_plan;
    ft::FailureMode failure_mode = ft::FailureMode::kRetry;
    // Unset: keep the JobConfig default.
    std::optional<double> heartbeat_interval_ms;
    std::optional<double> task_timeout_ms;
    std::optional<uint32_t> max_attempts;
    std::optional<uint64_t> checkpoint_interval;
    bool selfcheck = false;
    std::string report_json;  // --report-json FILE ("" = off)
    std::string trace_out;    // --trace-out FILE ("" = off)
    std::string journal;      // --journal FILE ("" = off)
    std::string resume;       // --resume FILE ("" = fresh run)
    uint64_t journal_interval = 0;  // --journal-interval N
};

/**
 * Observability sink shared by every job of the invocation; created in
 * main() when --report-json or --trace-out is given, and file-scope so
 * the JobFailedError path can still emit artifacts for the partial run.
 */
std::unique_ptr<obs::Observability> g_obs;

/** Exit codes: distinguishable failure classes for scripts and CI. */
enum ExitCode {
    kExitOk = 0,
    kExitBadUsage = 2,       // unknown app/flag, malformed value, or a
                             // config rejected at job start (e.g. a fault
                             // plan naming a server outside the fleet)
    kExitJobFailed = 3,      // job aborted after retry exhaustion
    kExitSelfcheckFailed = 4 // reported CI does not cover the exact answer
};

using spec::Count;
using spec::Real;
using Arg = const std::string&;

constexpr double kInf = std::numeric_limits<double>::infinity();
const Real kRatio{"a ratio", 0.0, 1.0, true};
const Count kNonNegative{"a non-negative integer"};
const Count kPositive{"an integer", 1};
const Count kThreadsOrReducers{"an integer", 1, 1024};
const Count kTopRows{"a non-negative integer", 0, 1000000};

/** @p row, also accepted after `--resume FILE`. */
spec::Row<Options>
resumable(spec::Row<Options> row)
{
    row.resume = true;
    return row;
}

/**
 * The flag table: one row per option, read by the parser, usage() and
 * `--resume` (rows marked `resume` may also follow `--resume FILE`).
 * Values are strict: the whole token must be a finite number in range,
 * or the flag is rejected (exit 2) — atof-style garbage-to-zero would
 * turn a typo like `--sampling 0..1` into a different experiment.
 */
const spec::Table<Options>&
flags()
{
    static const spec::Table<Options> kFlags = {
        spec::toggle("--precise", "run without any approximation",
                     &Options::precise),
        {"--sampling", "R", "input data sampling ratio in (0,1]",
         [](Options& o, Arg v) { o.approx.sampling_ratio = kRatio.read(v); }},
        {"--drop", "R", "map dropping ratio in [0,1)",
         [](Options& o, Arg v) {
             o.approx.drop_ratio = Real{"a ratio", 0, 1, false, true}.read(v);
         }},
        {"--target", "X", "target relative error > 0 (e.g. 0.01)",
         [](Options& o, Arg v) {
             o.approx.target_relative_error =
                 Real{"a relative error", 0, kInf, true}.read(v);
         }},
        {"--confidence", "C", "confidence level in (0,1) (default 0.95)",
         [](Options& o, Arg v) {
             o.approx.confidence =
                 Real{"a confidence level", 0, 1, true, true}.read(v);
         }},
        {"--pilot", "N:R", "pilot wave of N maps at ratio R",
         [](Options& o, Arg v) {
             std::vector<std::string> parts = spec::split(v, ':');
             if (parts.size() != 2) {
                 throw spec::BadValue("N:R (pilot maps : sampling ratio)", v);
             }
             o.approx.pilot.maps =
                 Count{"N:R with N an integer", 1}.read(parts[0]);
             o.approx.pilot.sampling_ratio =
                 Real{"N:R with R a ratio", 0, 1, true}.read(parts[1]);
             o.approx.pilot.enabled = true;
         }},
        {"--user-defined", "F",
         "fraction of approximate map variants,\nin [0,1]",
         [](Options& o, Arg v) {
             o.approx.user_defined_fraction = Real{"a fraction", 0, 1}.read(v);
         }},
        {"--blocks", "N", "input blocks (= map tasks), N >= 1",
         [](Options& o, Arg v) { o.blocks = kPositive.read(v); }},
        {"--items", "N", "items per block, N >= 1",
         [](Options& o, Arg v) { o.items = kPositive.read(v); }},
        {"--reducers", "N", "reduce tasks in [1, 1024] (default 1)",
         [](Options& o, Arg v) {
             o.reducers = static_cast<uint32_t>(kThreadsOrReducers.read(v));
         }},
        resumable({"--threads", "N",
                   "host threads for real map work (default 1;\n"
                   "results are identical at any setting)",
                   [](Options& o, Arg v) {
                       o.threads =
                           static_cast<uint32_t>(kThreadsOrReducers.read(v));
                   }}),
        {"--cluster", "SPEC",
         "xeon10 (default), atom60, or a mixed\n"
         "fleet in the cluster grammar, e.g.\n10xeon+20atom",
         [](Options& o, Arg v) {
             (void)sim::ClusterConfig::parse(v);
             o.cluster = v;
         }},
        {"--seed", "S", "experiment seed (non-negative integer)",
         [](Options& o, Arg v) { o.seed = kNonNegative.read(v); }},
        {"--fault-plan", "SPEC", "inject failures (SPEC grammar below)",
         [](Options& o, Arg v) { o.fault_plan = ft::FaultPlan::parse(v); }},
        {"--failure-mode", "M", "retry | absorb | auto (default retry)",
         [](Options& o, Arg v) { o.failure_mode = ft::parseFailureMode(v); }},
        {"--max-attempts", "N",
         "map attempts before the job aborts,\nin [1, 1000000] (default 4)",
         [](Options& o, Arg v) {
             o.max_attempts = static_cast<uint32_t>(
                 Count{"an integer", 1, 1000000}.read(v));
         }},
        {"--checkpoint-interval", "N",
         "reducer checkpoint every N chunks\n(0 disables; default 8)",
         [](Options& o, Arg v) {
             o.checkpoint_interval = kNonNegative.read(v);
         }},
        {"--heartbeat-interval", "MS",
         "task heartbeat period, simulated ms\n(> 0; default 1000)",
         [](Options& o, Arg v) {
             o.heartbeat_interval_ms =
                 Real{"a period in ms", 0, kInf, true}.read(v);
         }},
        {"--task-timeout", "MS",
         "declare a silent task dead after MS\n"
         "since its last heartbeat (default 10000;\n"
         "<= 0: instantaneous detection)",
         [](Options& o, Arg v) {
             o.task_timeout_ms = Real{"a timeout in ms"}.read(v);
         }},
        spec::toggle("--selfcheck",
                     "also run a fault-free precise reference\n"
                     "and fail (exit 4) unless the headline\n"
                     "key's CI covers the exact answer",
                     &Options::selfcheck),
        resumable({"--report-json", "FILE",
                   "write a machine-readable job report\n"
                   "(JSON; schema approxhadoop-job-report/1)",
                   [](Options& o, Arg v) { o.report_json = spec::path(v); }}),
        resumable({"--trace-out", "FILE",
                   "write a Chrome trace-event timeline\n"
                   "(load in chrome://tracing or Perfetto)",
                   [](Options& o, Arg v) { o.trace_out = spec::path(v); }}),
        {"--journal", "FILE",
         "record a crash-consistent run journal\n"
         "(aggregation apps only); required for\n"
         "dcrash= fault plans, whose driver kills\n"
         "restart and resume in-process",
         [](Options& o, Arg v) { o.journal = spec::path(v); }},
        {"--journal-interval", "N",
         "also seal a journal epoch every N map\n"
         "completions (0 = wave boundaries only)",
         [](Options& o, Arg v) { o.journal_interval = kNonNegative.read(v); }},
        spec::toggle("--s3", "suspend drained servers (energy mode)",
                     &Options::s3),
        resumable({"--top", "K", "result rows to print (default 10)",
                   [](Options& o, Arg v) {
                       o.top = static_cast<int>(kTopRows.read(v));
                   }}),
        resumable(spec::toggle("--verbose", "framework INFO logging",
                               &Options::verbose)),
    };
    return kFlags;
}

void
usage()
{
    std::string resume_flags;
    for (const spec::Row<Options>& row : flags()) {
        if (row.resume) {
            resume_flags += std::string(" ") + row.name;
        }
    }
    std::printf(
        "usage: approxrun <app> [options]\n"
        "\n"
        "apps:\n"
        "  %s\n"
        "                                 (multi-stage sampling "
        "aggregations)\n"
        "  dcplacement                    (simulated annealing, GEV)\n"
        "  video                          (user-defined approximation)\n"
        "\n"
        "options:\n"
        "%s"
        "\n"
        "  --list-workloads      print the aggregation-workload\n"
        "                        registry (name, op, default shape)\n"
        "                        and exit 0\n"
        "\n"
        "  approxrun --resume FILE [options]\n"
        "                        resume a journaled run after a driver\n"
        "                        crash; every job-configuration knob is\n"
        "                        read back from FILE, so the only options\n"
        "                        are%s\n"
        "\n"
        "--fault-plan SPEC grammar, %s\n"
        "\n"
        "exit codes: 0 ok, 2 bad usage (including an unreadable,\n"
        "corrupt, or divergent journal), 3 job failed (retries\n"
        "exhausted), 4 selfcheck CI coverage failure\n",
        apps::aggregationWorkloadNames().c_str(),
        spec::help(flags(), 24).c_str(), resume_flags.c_str(),
        ft::FaultPlan::helpText().c_str());
}

/** `approxrun --list-workloads`: dump the aggregation registry —
 *  the same table the chaos harness and the service simulator draw
 *  their job mixes from — one row per workload, and exit 0. */
int
listWorkloads()
{
    std::printf("%-14s %-8s %8s %8s\n", "workload", "op", "blocks",
                "items");
    for (const apps::AggregationWorkload& w :
         apps::aggregationWorkloads()) {
        const char* op = "?";
        switch (w.op) {
            case core::MultiStageSamplingReducer::Op::kSum:
                op = "sum";
                break;
            case core::MultiStageSamplingReducer::Op::kCount:
                op = "count";
                break;
            case core::MultiStageSamplingReducer::Op::kAverage:
                op = "average";
                break;
            case core::MultiStageSamplingReducer::Op::kRatio:
                op = "ratio";
                break;
        }
        std::printf("%-14s %-8s %8llu %8llu\n", w.name.c_str(), op,
                    static_cast<unsigned long long>(w.default_blocks),
                    static_cast<unsigned long long>(w.default_items));
    }
    return 0;
}

void
printResult(const Options& opt, const mr::JobResult& result)
{
    std::vector<mr::OutputRecord> rows = result.output;
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.value > b.value;
    });
    std::printf("%-24s %16s %16s\n", "key", "value", "95% CI");
    int printed = 0;
    for (const auto& r : rows) {
        if (printed++ >= opt.top) {
            break;
        }
        if (r.has_bound && std::isfinite(r.errorBound())) {
            std::printf("%-24s %16.2f %15.2f\n", r.key.c_str(), r.value,
                        r.errorBound());
        } else {
            std::printf("%-24s %16.2f %16s\n", r.key.c_str(), r.value,
                        r.has_bound ? "unbounded" : "-");
        }
    }
    if (rows.size() > static_cast<size_t>(opt.top)) {
        std::printf("... (%zu keys total)\n", rows.size());
    }
    std::printf("\nruntime %.1fs | energy %.2f Wh | %s\n", result.runtime,
                result.energy_wh, result.counters.summary().c_str());
}

void
applyCommonConfig(const Options& opt, mr::JobConfig& config)
{
    config.seed = opt.seed;
    config.cluster_spec = opt.cluster;
    config.s3_when_drained = opt.s3;
    config.num_exec_threads = opt.threads;
    config.fault_plan = opt.fault_plan;
    config.failure_mode = opt.failure_mode;
    config.heartbeat_interval_ms =
        opt.heartbeat_interval_ms.value_or(config.heartbeat_interval_ms);
    config.task_timeout_ms =
        opt.task_timeout_ms.value_or(config.task_timeout_ms);
    config.recovery.max_attempts =
        opt.max_attempts.value_or(config.recovery.max_attempts);
    config.reducer_checkpoint_interval = opt.checkpoint_interval.value_or(
        config.reducer_checkpoint_interval);
}

/**
 * Journal header for this invocation: everything `approxrun --resume`
 * needs to re-execute the run bit-identically. @p blocks / @p items are
 * the *resolved* input shape (workload defaults applied), so the resumed
 * run never re-consults defaults that may have changed.
 */
journal::RunSpec
makeRunSpec(const Options& opt, uint64_t blocks, uint64_t items,
            const mr::JobConfig& config)
{
    journal::RunSpec s;
    s.app = opt.app;
    s.precise = opt.precise;
    s.blocks = blocks;
    s.items = items;
    s.seed = opt.seed;
    s.reducers = opt.reducers;
    s.threads = opt.threads;
    s.cluster = opt.cluster;
    s.sampling = opt.approx.sampling_ratio;
    s.drop = opt.approx.drop_ratio;
    s.has_target = opt.approx.target_relative_error.has_value();
    s.target = opt.approx.target_relative_error.value_or(0.0);
    s.confidence = opt.approx.confidence;
    s.pilot_maps = opt.approx.pilot.enabled ? opt.approx.pilot.maps : 0;
    s.pilot_ratio = opt.approx.pilot.sampling_ratio;
    s.s3 = opt.s3;
    s.failure_mode = ft::toString(opt.failure_mode);
    s.max_attempts = config.recovery.max_attempts;
    s.checkpoint_interval = config.reducer_checkpoint_interval;
    s.heartbeat_ms = config.heartbeat_interval_ms;
    s.timeout_ms = config.task_timeout_ms;
    s.fault_plan = opt.fault_plan.spec();
    s.endgame_left_percent = config.endgame_left_percent;
    s.map_interval = opt.journal_interval;
    return s;
}

/** Inverse of makeRunSpec: reconstructs the full CLI configuration of
 *  the journaled run. @throws std::invalid_argument on a header naming
 *  an unknown failure mode or fault-plan key. */
Options
optionsFromSpec(const journal::RunSpec& spec)
{
    Options opt;
    opt.app = spec.app;
    opt.precise = spec.precise;
    opt.blocks = spec.blocks;
    opt.items = spec.items;
    opt.seed = spec.seed;
    opt.reducers = spec.reducers;
    opt.threads = spec.threads;
    opt.cluster = spec.cluster;
    opt.approx.sampling_ratio = spec.sampling;
    opt.approx.drop_ratio = spec.drop;
    if (spec.has_target) {
        opt.approx.target_relative_error = spec.target;
    }
    opt.approx.confidence = spec.confidence;
    if (spec.pilot_maps > 0) {
        opt.approx.pilot.enabled = true;
        opt.approx.pilot.maps = spec.pilot_maps;
        opt.approx.pilot.sampling_ratio = spec.pilot_ratio;
    }
    opt.s3 = spec.s3;
    opt.failure_mode = ft::parseFailureMode(spec.failure_mode);
    opt.max_attempts = spec.max_attempts;
    opt.checkpoint_interval = spec.checkpoint_interval;
    opt.heartbeat_interval_ms = spec.heartbeat_ms;
    opt.task_timeout_ms = spec.timeout_ms;
    if (!spec.fault_plan.empty()) {
        opt.fault_plan = ft::FaultPlan::parse(spec.fault_plan);
    }
    opt.journal_interval = spec.map_interval;
    return opt;
}

bool
writeTextFile(const std::string& path, const std::string& text)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     std::strerror(errno));
        return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
}

/** Writes --report-json and --trace-out artifacts (whichever are set). */
void
emitObsArtifacts(const Options& opt, const obs::JobReport& report)
{
    if (!opt.report_json.empty()) {
        writeTextFile(opt.report_json, report.toJson());
    }
    if (!opt.trace_out.empty() && g_obs != nullptr) {
        writeTextFile(opt.trace_out, g_obs->trace.toChromeJson());
    }
}

/**
 * Validates the approximate result against a fault-free precise run of
 * the same job: the headline key (largest predicted absolute error, the
 * key the paper reports) must have a confidence interval that covers the
 * exact answer. CI uses this to assert end-to-end statistical soundness
 * under fault injection.
 */
int
selfcheckAgainst(const mr::JobResult& approx, const mr::JobResult& precise)
{
    const mr::OutputRecord* worst = nullptr;
    for (const mr::OutputRecord& r : approx.output) {
        if (!r.has_bound || !std::isfinite(r.errorBound())) {
            continue;
        }
        if (worst == nullptr || r.errorBound() > worst->errorBound()) {
            worst = &r;
        }
    }
    if (worst == nullptr) {
        std::fprintf(stderr,
                     "selfcheck: no key carries a finite error bound\n");
        return kExitSelfcheckFailed;
    }
    const mr::OutputRecord* exact = precise.find(worst->key);
    if (exact == nullptr) {
        std::fprintf(stderr,
                     "selfcheck: headline key '%s' missing from the "
                     "precise reference\n",
                     worst->key.c_str());
        return kExitSelfcheckFailed;
    }
    double deviation = std::fabs(worst->value - exact->value);
    if (deviation > worst->errorBound()) {
        std::fprintf(stderr,
                     "selfcheck FAILED: key '%s' estimate %.4f +/- %.4f "
                     "does not cover exact %.4f\n",
                     worst->key.c_str(), worst->value, worst->errorBound(),
                     exact->value);
        return kExitSelfcheckFailed;
    }
    std::printf("selfcheck OK: key '%s' estimate %.4f +/- %.4f covers "
                "exact %.4f\n",
                worst->key.c_str(), worst->value, worst->errorBound(),
                exact->value);
    return kExitOk;
}

/**
 * Runs one registry aggregation workload. All eleven aggregation apps
 * dispatch through the registry (src/apps/aggregation_registry.h), the
 * same table the chaos harness fuzzes, so the CLI and the fuzzer can
 * never disagree about what a workload means.
 */
int
runAggregationWorkload(const Options& opt,
                       const apps::AggregationWorkload& workload)
{
    uint64_t blocks = opt.blocks ? opt.blocks : workload.default_blocks;
    uint64_t items = opt.items ? opt.items : workload.default_items;

    // Crash-consistent journaling (src/journal/): record mode seals the
    // run spec up front; resume mode reloads the sealed prefix and
    // verifies the re-executed run against it epoch by epoch. A dcrash=
    // fault unwinds the attempt with DriverKilledError; the loop below
    // then resumes from the journal exactly like a freshly launched
    // `approxrun --resume FILE` after a real process kill.
    std::string journal_path =
        !opt.resume.empty() ? opt.resume : opt.journal;
    std::unique_ptr<journal::JobJournal> jj;
    if (!opt.resume.empty()) {
        jj = journal::JobJournal::resumeFile(journal_path);
    } else if (!opt.journal.empty()) {
        mr::JobConfig probe = workload.job_config(items, opt.reducers);
        applyCommonConfig(opt, probe);
        jj = journal::JobJournal::create(
            journal_path, makeRunSpec(opt, blocks, items, probe));
    }

    for (;;) {
        std::unique_ptr<hdfs::BlockDataset> data =
            workload.make_dataset(blocks, items, opt.seed);
        mr::JobConfig config = workload.job_config(items, opt.reducers);
        applyCommonConfig(opt, config);
        if (jj != nullptr) {
            config.driver_crash_skip = jj->resumeCount();
            config.journal_map_interval = jj->spec().map_interval;
        }
        sim::Cluster cluster(sim::ClusterConfig::parse(opt.cluster));
        hdfs::NameNode nn(cluster.numServers(), 3, opt.seed);
        core::ApproxJobRunner runner(cluster, *data, nn);
        runner.setObservability(g_obs.get());
        runner.setEpochSink(jj.get());
        mr::JobResult result;
        try {
            result = opt.precise
                         ? runner.runPrecise(
                               config, workload.mapper_factory(),
                               workload.precise_reducer_factory())
                         : runner.runAggregation(config, opt.approx,
                                                 workload.mapper_factory(),
                                                 workload.op);
        } catch (const journal::DriverKilledError& e) {
            std::fprintf(stderr, "%s; resuming from journal '%s'\n",
                         e.what(), journal_path.c_str());
            // Close the dead incarnation's journal handle before
            // re-reading the file, and drop its partial observability:
            // resume re-executes from the start, so the next attempt
            // produces the complete trace on its own.
            jj.reset();
            jj = journal::JobJournal::resumeFile(journal_path);
            if (g_obs != nullptr) {
                g_obs = std::make_unique<obs::Observability>();
            }
            continue;
        }
        printResult(opt, result);
        if (g_obs != nullptr) {
            emitObsArtifacts(opt, obs::JobReport::build(opt.app, config,
                                                        result,
                                                        g_obs.get()));
        }
        if (opt.selfcheck && !opt.precise) {
            mr::JobResult precise = apps::runPreciseReference(
                workload, *data, config,
                sim::ClusterConfig::parse(opt.cluster), opt.seed);
            return selfcheckAgainst(result, precise);
        }
        return kExitOk;
    }
}

int
runApp(const Options& opt)
{
    // --- Multi-stage-sampling aggregations (registry dispatch) --------------
    if (const apps::AggregationWorkload* workload =
            apps::findAggregationWorkload(opt.app)) {
        return runAggregationWorkload(opt, *workload);
    }

    // Journaling covers the registry aggregation workloads only: those
    // are the jobs the chaos harness kills and resumes, and the only
    // ones whose full configuration round-trips through a RunSpec.
    if (!opt.journal.empty() || !opt.resume.empty()) {
        std::fprintf(stderr,
                     "--journal/--resume support the registry aggregation "
                     "workloads only, not '%s'\n",
                     opt.app.c_str());
        return kExitBadUsage;
    }

    // --- DC Placement (GEV) ---------------------------------------------------
    if (opt.app == "dcplacement") {
        workloads::DCPlacementParams pp;
        pp.sa_iterations = 400;
        pp.seed = opt.seed;
        auto problem =
            std::make_shared<const workloads::DCPlacementProblem>(pp);
        uint64_t maps = opt.blocks ? opt.blocks : 80;
        uint64_t seeds_per_map = opt.items ? opt.items : 2;
        auto seeds =
            workloads::makeDCPlacementSeeds(maps, seeds_per_map, opt.seed);
        sim::ClusterConfig cc = sim::ClusterConfig::parse(opt.cluster);
        cc.map_slots_per_server = 4;
        sim::Cluster cluster(cc);
        hdfs::NameNode nn(cluster.numServers(), 3, opt.seed);
        core::ApproxJobRunner runner(cluster, *seeds, nn);
        runner.setObservability(g_obs.get());
        mr::JobConfig config = apps::DCPlacementApp::jobConfig(
            seeds_per_map, opt.reducers);
        applyCommonConfig(opt, config);
        mr::JobResult result =
            opt.precise
                ? runner.runPrecise(
                      config, apps::DCPlacementApp::mapperFactory(problem),
                      apps::DCPlacementApp::preciseReducerFactory())
                : runner.runExtreme(
                      config, opt.approx,
                      apps::DCPlacementApp::mapperFactory(problem), true);
        printResult(opt, result);
        if (g_obs != nullptr) {
            emitObsArtifacts(opt, obs::JobReport::build(
                                      opt.app, config, result, g_obs.get()));
        }
        return 0;
    }

    // --- Video encoding (user-defined approximation) --------------------------
    if (opt.app == "video") {
        uint64_t blocks = opt.blocks ? opt.blocks : 160;
        uint64_t frames = opt.items ? opt.items : 120;
        auto data = apps::FrameEncoderApp::makeFrames(blocks, frames,
                                                      opt.seed);
        sim::Cluster cluster(sim::ClusterConfig::parse(opt.cluster));
        hdfs::NameNode nn(cluster.numServers(), 3, opt.seed);
        core::ApproxJobRunner runner(cluster, *data, nn);
        runner.setObservability(g_obs.get());
        mr::JobConfig config =
            apps::FrameEncoderApp::jobConfig(frames, opt.reducers);
        applyCommonConfig(opt, config);
        mr::JobResult result = runner.runUserDefined(
            config, opt.approx, apps::FrameEncoderApp::mapperFactory(),
            apps::FrameEncoderApp::reducerFactory());
        printResult(opt, result);
        if (g_obs != nullptr) {
            emitObsArtifacts(opt, obs::JobReport::build(
                                      opt.app, config, result, g_obs.get()));
        }
        return 0;
    }

    std::fprintf(stderr,
                 "unknown app '%s'; valid apps:\n  %s dcplacement video\n",
                 opt.app.c_str(),
                 apps::aggregationWorkloadNames().c_str());
    return kExitBadUsage;
}

/** Shared tail of main(): logging, observability, dispatch, and the
 *  failure-class exit-code mapping. */
int
runWithOptions(const Options& opt)
{
    Logger::instance().setLevel(opt.verbose ? LogLevel::kInfo
                                            : LogLevel::kWarn);
    if (!opt.report_json.empty() || !opt.trace_out.empty()) {
        g_obs = std::make_unique<obs::Observability>();
    }
    try {
        return runApp(opt);
    } catch (const mr::JobFailedError& e) {
        // Retry exhaustion under FailureMode::kRetry: report what faults
        // led up to the abort, with a distinct exit code for scripts.
        std::fprintf(stderr, "job failed: %s\n", e.what());
        std::fprintf(stderr, "fault summary: %s\n",
                     e.counters.faultSummary().c_str());
        if (g_obs != nullptr) {
            // The JobConfig that failed is out of scope here; rebuild the
            // determinism-relevant knobs from the CLI options so the
            // failed-run report still records them.
            mr::JobConfig config;
            config.name = opt.app;
            config.num_reducers = opt.reducers;
            applyCommonConfig(opt, config);
            emitObsArtifacts(opt,
                             obs::JobReport::fromFailure(
                                 opt.app, config, e.what(), e.counters,
                                 g_obs.get()));
        }
        return kExitJobFailed;
    } catch (const journal::JournalError& e) {
        // Unreadable/corrupt journal, or a resumed run diverging from
        // its sealed prefix: bad input, never a crash.
        std::fprintf(stderr, "journal error: %s\n", e.what());
        return kExitBadUsage;
    } catch (const std::invalid_argument& e) {
        // Config rejected at job start (e.g. `server=ID` outside the
        // fleet): a usage error, not a runtime failure.
        std::fprintf(stderr, "config error: %s\n", e.what());
        return kExitBadUsage;
    }
}

/**
 * `approxrun --resume FILE [...]`: reconstructs the full configuration
 * from the journal header. Only the flags marked `resume` (presentation
 * knobs, and --threads, which never changes results) may follow —
 * everything that shapes the job is journaled and authoritative.
 */
int
loadResume(int argc, char** argv, Options& opt)
{
    if (argc < 3) {
        std::fprintf(stderr, "missing value for --resume\n");
        usage();
        return kExitBadUsage;
    }
    try {
        journal::LoadedJournal loaded =
            journal::parseJournal(journal::readJournalFile(argv[2]));
        opt = optionsFromSpec(loaded.spec);
    } catch (const journal::JournalError& e) {
        std::fprintf(stderr, "journal error: %s\n", e.what());
        return kExitBadUsage;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "journal error: header invalid: %s\n",
                     e.what());
        return kExitBadUsage;
    }
    opt.resume = argv[2];
    return kExitOk;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::string(argv[1]) == "--list-workloads") {
        return listWorkloads();
    }
    Options opt;
    bool resume = argc >= 2 && std::string(argv[1]) == "--resume";
    if (resume) {
        if (int rc = loadResume(argc, argv, opt); rc != kExitOk) {
            return rc;
        }
    } else if (argc >= 2) {
        opt.app = argv[1];
    }
    if (argc < 2 ||
        !spec::parseFlags(argc, argv, resume ? 3 : 2, flags(), opt, resume)) {
        usage();
        return kExitBadUsage;
    }
    if (resume) {
        return runWithOptions(opt);
    }
    if (opt.fault_plan.hasDriverCrash() && opt.journal.empty()) {
        std::fprintf(stderr,
                     "--fault-plan dcrash= requires --journal FILE: "
                     "driver-crash recovery resumes from the journal\n");
        return kExitBadUsage;
    }
    if (opt.journal_interval != 0 && opt.journal.empty()) {
        std::fprintf(stderr, "--journal-interval requires --journal\n");
        return kExitBadUsage;
    }
    return runWithOptions(opt);
}
