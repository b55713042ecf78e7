/**
 * @file
 * Journal recording overhead: runs the same aggregation job with and
 * without a crash-consistent journal attached (wave epochs plus a
 * 4-map interval, the densest sealing cadence a real run would use)
 * and reports the host-time ratio between the two.
 *
 * Like bench_parallel_scaling this measures *host* time — epoch
 * serialization, checksum stamping, and frame appends are the thing
 * being gated. The journaled run's simulated results are asserted
 * byte-identical to the unjournaled run's (recording is observation,
 * never perturbation), so the ratio cannot hide a behavior change.
 *
 * Usage:
 *   bench_journal_overhead                  full run
 *   bench_journal_overhead --smoke          seconds-scale CI smoke run
 *   bench_journal_overhead --json <path>    also emit the benchdiff report
 *
 * The --json report (schema "approxhadoop-bench/1") carries
 * journal_throughput_ratio_per_sec = cpu(off) / cpu(on), gated by
 * tools/benchdiff so journaling may cost at most a few percent, and
 * sim_* metrics (required to match the committed baseline exactly).
 *
 * The job takes tens of milliseconds, so the two sides are measured as
 * pairs run back to back, alternating which side goes first. Each rep
 * runs kPairsPerRep pairs and takes the ratio of the two sides' summed
 * process CPU time (every thread's); the gated value is the median of
 * the reps' ratios. CPU time rather than wall time, because on a shared
 * host a descheduled pool thread stalls a whole 4-thread wave: wall
 * ratios of one binary spread by more than the 5 % gate between runs,
 * CPU ratios by about 1 %. Wall medians are reported for context.
 */
#include <chrono>
#include <ctime>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/aggregation_registry.h"
#include "bench_util.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "journal/journal.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

using namespace approxhadoop;

namespace {

/** Back-to-back journal-off/journal-on pairs per rep. */
constexpr int kPairsPerRep = 8;

struct Shape
{
    uint64_t blocks;
    uint64_t items;
    uint32_t reducers;
    uint64_t seed;
    uint32_t threads;
    uint64_t map_interval;  // extra epoch every N map completions
};

struct RunOutcome
{
    double wall_ms = 0.0;
    /** CPU time of the whole process (all threads) during the run. */
    double cpu_ms = 0.0;
    mr::JobResult result;
    uint64_t journal_bytes = 0;
    uint64_t epochs_sealed = 0;
};

double
processCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

journal::RunSpec
specFor(const Shape& shape)
{
    journal::RunSpec spec;
    spec.app = "wikilength";
    spec.blocks = shape.blocks;
    spec.items = shape.items;
    spec.seed = shape.seed;
    spec.reducers = shape.reducers;
    spec.threads = shape.threads;
    spec.sampling = 0.5;
    spec.failure_mode = "retry";
    spec.map_interval = shape.map_interval;
    return spec;
}

RunOutcome
runOnce(const Shape& shape, bool journaled)
{
    const apps::AggregationWorkload& w =
        *apps::findAggregationWorkload("wikilength");
    std::unique_ptr<hdfs::BlockDataset> data =
        w.make_dataset(shape.blocks, shape.items, shape.seed);
    mr::JobConfig config = w.job_config(shape.items, shape.reducers);
    config.seed = shape.seed;
    config.num_exec_threads = shape.threads;
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.5;

    std::unique_ptr<journal::JobJournal> jj;
    if (journaled) {
        jj = journal::JobJournal::createInMemory(specFor(shape));
        config.journal_map_interval = shape.map_interval;
    }

    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, shape.seed);
    core::ApproxJobRunner runner(cluster, *data, nn);
    runner.setEpochSink(jj.get());

    double cpu_start = processCpuMs();
    auto start = std::chrono::steady_clock::now();
    RunOutcome outcome;
    outcome.result =
        runner.runAggregation(config, approx, w.mapper_factory(), w.op);
    auto end = std::chrono::steady_clock::now();
    outcome.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    outcome.cpu_ms = processCpuMs() - cpu_start;
    if (jj != nullptr) {
        outcome.journal_bytes = jj->bytes().size();
        outcome.epochs_sealed =
            journal::parseJournal(jj->bytes()).epochs.size();
    }
    return outcome;
}

/** "" when the two runs match bit-for-bit; a diagnosis otherwise. */
std::string
resultsDiffer(const mr::JobResult& a, const mr::JobResult& b)
{
    if (a.runtime != b.runtime) {
        return "simulated runtime differs";
    }
    if (a.counters.serialize() != b.counters.serialize()) {
        return "counter image differs";
    }
    if (a.output.size() != b.output.size()) {
        return "output size differs";
    }
    for (size_t i = 0; i < a.output.size(); ++i) {
        if (a.output[i].key != b.output[i].key ||
            a.output[i].value != b.output[i].value ||
            a.output[i].lower != b.output[i].lower ||
            a.output[i].upper != b.output[i].upper) {
            return "output record " + std::to_string(i) + " differs";
        }
    }
    return "";
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--json <path>]\n",
                         argv[0]);
            return 2;
        }
    }

    Shape shape;
    shape.blocks = smoke ? 80 : 400;
    shape.items = smoke ? 60 : 200;
    shape.reducers = 2;
    shape.seed = 7;
    shape.threads = 4;
    shape.map_interval = 4;
    int reps = smoke ? 1 : benchutil::repetitions(5);

    benchutil::printTitle(
        "journal-overhead",
        smoke ? "journal-on vs journal-off host time (smoke)"
              : "journal-on vs journal-off host time");
    std::printf("%10s %12s %12s %12s %8s %10s %8s\n", "mode",
                "wall med ms", "cpu med ms", "sim s", "epochs", "bytes",
                "ratio");

    int pairs = smoke ? 1 : kPairsPerRep;
    std::vector<double> off_walls;
    std::vector<double> on_walls;
    std::vector<double> off_cpus;
    std::vector<double> on_cpus;
    std::vector<double> rep_ratios;
    RunOutcome off;
    RunOutcome on;
    // One untimed pair first, so neither side pays the process's first
    // run (page faults, cold caches).
    runOnce(shape, false);
    runOnce(shape, true);
    for (int r = 0; r < reps; ++r) {
        double off_sum = 0.0;
        double on_sum = 0.0;
        for (int i = 0; i < pairs; ++i) {
            if ((r * pairs + i) % 2 == 0) {
                off = runOnce(shape, false);
                on = runOnce(shape, true);
            } else {
                on = runOnce(shape, true);
                off = runOnce(shape, false);
            }
            off_walls.push_back(off.wall_ms);
            on_walls.push_back(on.wall_ms);
            off_cpus.push_back(off.cpu_ms);
            on_cpus.push_back(on.cpu_ms);
            off_sum += off.cpu_ms;
            on_sum += on.cpu_ms;
            std::string diff = resultsDiffer(on.result, off.result);
            if (!diff.empty()) {
                std::fprintf(stderr,
                             "FAIL: journaled run perturbed the job: %s\n",
                             diff.c_str());
                return 1;
            }
        }
        rep_ratios.push_back(on_sum > 0.0 ? off_sum / on_sum : 0.0);
    }

    double off_med = benchutil::median(off_walls);
    double on_med = benchutil::median(on_walls);
    double off_cpu_med = benchutil::median(off_cpus);
    double on_cpu_med = benchutil::median(on_cpus);
    double ratio = benchutil::median(rep_ratios);
    std::printf("%10s %12.1f %12.1f %12.2f %8s %10s %8s\n", "off", off_med,
                off_cpu_med, off.result.runtime, "-", "-", "-");
    std::printf("%10s %12.1f %12.1f %12.2f %8llu %10llu %8.3f\n", "on",
                on_med, on_cpu_med, on.result.runtime,
                static_cast<unsigned long long>(on.epochs_sealed),
                static_cast<unsigned long long>(on.journal_bytes), ratio);
    std::printf("\njournaled and unjournaled runs bit-identical "
                "(%zu output records)\n",
                off.result.output.size());

    benchutil::BenchReport report("journal_overhead", reps);
    // Gated: the median rep's off/on CPU-time ratio, ~1.0 when sealing
    // is cheap. benchdiff's _per_sec convention (new >= old * (1 -
    // threshold)) turns a journaling slowdown into a perf-gate failure.
    report.metric("journal_throughput_ratio_per_sec", ratio);
    // Bit-exact: the journaled run's simulated results and the sealed
    // epoch/byte counts are pure functions of the job spec.
    report.metric("sim_runtime_s", on.result.runtime);
    report.metric("sim_epochs_sealed",
                  static_cast<double>(on.epochs_sealed));
    report.metric("sim_journal_bytes",
                  static_cast<double>(on.journal_bytes));
    report.metric("sim_output_records",
                  static_cast<double>(on.result.output.size()));
    // Informational context.
    report.metric("wall_ms_median_off", off_med);
    report.metric("wall_ms_median_on", on_med);
    report.metric("cpu_ms_median_off", off_cpu_med);
    report.metric("cpu_ms_median_on", on_cpu_med);
    if (json_path != nullptr && !report.write(json_path)) {
        return 1;
    }
    return 0;
}
