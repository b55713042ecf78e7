/**
 * @file
 * Figure 13 of the paper: runtime of Project and Page Popularity vs log
 * size (1 day ... 1 year; Table 2 block counts) on the 60-node Atom
 * cluster, precise vs a 1% target error bound. The paper reports the
 * approximate runs up to 32x (Project) and 20x (Page) faster at a year
 * of logs, with the gap widening as the input grows.
 *
 * Usage:
 *   bench_fig13_scaling                 print the figure's two panels
 *   bench_fig13_scaling --json <path>   also emit the benchdiff report
 *
 * The --json report (schema "approxhadoop-bench/1") carries a host
 * wall-clock throughput metric (simulated cluster-seconds executed per
 * host second, gated at 15% by tools/benchdiff) plus every simulated
 * runtime of the figure as a sim_* metric, which benchdiff requires to
 * match the committed baseline exactly: an optimization that shifts any
 * cell of Figure 13 changed behavior, not just speed.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "apps/log_apps.h"
#include "bench_util.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/namenode.h"
#include "sim/cluster.h"
#include "workloads/access_log.h"

using namespace approxhadoop;

namespace {

/** "1 day" -> "1_day" (metric names stay shell- and JSON-friendly). */
std::string
metricName(const char* prefix, const char* period, const char* mode)
{
    std::string name = prefix;
    name.push_back('_');
    for (const char* p = period; *p != '\0'; ++p) {
        name.push_back(*p == ' ' ? '_' : *p);
    }
    name.push_back('_');
    name.append(mode);
    return name;
}

template <typename App>
double
panel(const char* title, const char* prefix,
      benchutil::BenchReport& report)
{
    double sim_seconds = 0.0;
    std::printf("\n--- %s ---\n", title);
    std::printf("%-10s %8s %12s %12s %9s\n", "period", "#maps", "precise",
                "1% target", "speedup");
    for (const workloads::LogPeriod& period : workloads::logPeriods()) {
        workloads::AccessLogParams params;
        params.num_blocks = period.num_maps;
        params.entries_per_block = 200;  // scaled items per block
        auto log = workloads::makeAccessLog(params);

        double precise_runtime = 0.0;
        {
            sim::Cluster cluster(sim::ClusterConfig::atom60());
            hdfs::NameNode nn(cluster.numServers(), 3, 80);
            core::ApproxJobRunner runner(cluster, *log, nn);
            // Full execution (no sampling/dropping/overhead) through
            // the sampling reducer.
            core::ApproxConfig full;
            full.framework_overhead = 0.0;
            precise_runtime =
                runner
                    .runAggregation(
                        apps::logProcessingConfig("precise", 200), full,
                        App::mapperFactory(), App::kOp)
                    .runtime;
        }
        double target_runtime = 0.0;
        {
            sim::Cluster cluster(sim::ClusterConfig::atom60());
            hdfs::NameNode nn(cluster.numServers(), 3, 80);
            core::ApproxJobRunner runner(cluster, *log, nn);
            core::ApproxConfig approx;
            approx.target_relative_error = 0.01;
            approx.framework_overhead = 0.12;
            target_runtime =
                runner
                    .runAggregation(
                        apps::logProcessingConfig("target", 200), approx,
                        App::mapperFactory(), App::kOp)
                    .runtime;
        }
        report.metric(metricName(prefix, period.name, "precise_s"),
                      precise_runtime);
        report.metric(metricName(prefix, period.name, "target_s"),
                      target_runtime);
        sim_seconds += precise_runtime + target_runtime;
        std::printf("%-10s %8llu %11.0fs %11.0fs %8.1fx\n", period.name,
                    static_cast<unsigned long long>(period.num_maps),
                    precise_runtime, target_runtime,
                    precise_runtime / target_runtime);
    }
    return sim_seconds;
}

}  // namespace

int
main(int argc, char** argv)
{
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
            return 2;
        }
    }

    benchutil::printTitle(
        "Figure 13",
        "runtime vs log size (Table 2 periods), precise vs 1% target, "
        "60-node Atom cluster");
    benchutil::BenchReport report("fig13_scaling", 1);
    auto start = std::chrono::steady_clock::now();
    double sim_seconds = 0.0;
    sim_seconds +=
        panel<apps::ProjectPopularity>("Project Popularity", "sim_project",
                                       report);
    sim_seconds +=
        panel<apps::PagePopularity>("Page Popularity", "sim_page", report);
    auto end = std::chrono::steady_clock::now();
    double wall_s = std::chrono::duration<double>(end - start).count();

    // Throughput = simulated cluster-seconds produced per host second;
    // wall time alone would also gate, but this form stays meaningful if
    // a later change rescales the figure's workloads.
    report.metric("cluster_seconds_per_sec",
                  wall_s > 0.0 ? sim_seconds / wall_s : 0.0);
    report.metric("wall_s_total", wall_s);
    if (json_path != nullptr && !report.write(json_path)) {
        return 1;
    }
    return 0;
}
