/**
 * @file
 * The parallel executor's run-ahead window: at most two map outputs per
 * worker are submitted and not yet merged, the rest wait in
 * scheduled-finish order, and a task that completes before its turn
 * computes inline. Every scenario here starts far more tasks at once
 * (80 map slots) than the window holds at 2 or 8 threads, and ends many
 * of them before their turn — killed when the target error is met,
 * absorbed after a crash or a lost output, cancelled as a speculative
 * loser — so deferred entries are skipped, released slots are refilled,
 * and the job must still finish with a report byte-identical to the
 * serial run's.
 *
 * The "ComputeWindow" test-name prefix is matched by the TSan CI job.
 */
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/log_apps.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "ft/fault_plan.h"
#include "hdfs/namenode.h"
#include "obs/observability.h"
#include "obs/report.h"
#include "sim/cluster.h"
#include "workloads/access_log.h"

namespace approxhadoop {
namespace {

struct Scenario
{
    std::string fault_plan;
    ft::FailureMode mode = ft::FailureMode::kRetry;
    double sampling = 1.0;
    double drop = 0.0;
    bool target = false;
    double endgame_left_percent = 0.0;
};

struct WindowRun
{
    /** The JSON report without its wall-clock lines. */
    std::string report;
    mr::Counters counters;
};

/**
 * Runs projectpop over a 240-block access log at @p threads. The report
 * is built as if at one thread, so its `threads` field matches too.
 */
WindowRun
runAt(const Scenario& s, uint32_t threads)
{
    workloads::AccessLogParams params;
    params.num_blocks = 240;
    params.entries_per_block = 120;
    params.seed = 13;
    auto log = workloads::makeAccessLog(params);

    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 19);
    core::ApproxJobRunner runner(cluster, *log, nn);
    obs::Observability obs;
    runner.setObservability(&obs);

    mr::JobConfig config = apps::logProcessingConfig("projectpop", 120);
    config.seed = 31;
    config.num_exec_threads = threads;
    config.fault_plan = ft::FaultPlan::parse(s.fault_plan);
    config.failure_mode = s.mode;
    config.endgame_left_percent = s.endgame_left_percent;
    core::ApproxConfig approx;
    approx.sampling_ratio = s.sampling;
    approx.drop_ratio = s.drop;
    if (s.target) {
        approx.target_relative_error = 0.05;
        approx.pilot.enabled = true;
        approx.pilot.maps = 30;
        approx.pilot.sampling_ratio = 0.05;
    }
    mr::JobResult result =
        runner.runAggregation(config, approx,
                              apps::ProjectPopularity::mapperFactory(),
                              apps::ProjectPopularity::kOp);
    config.num_exec_threads = 1;
    std::istringstream in(
        obs::JobReport::build("projectpop", config, result, &obs).toJson());
    std::ostringstream out;
    for (std::string line; std::getline(in, line);) {
        if (line.find("\"wall_") == std::string::npos) {
            out << line << '\n';
        }
    }
    return {out.str(), result.counters};
}

/** Runs @p s serially and at 2 and 8 threads; returns the serial run. */
WindowRun
expectWindowInvisible(const Scenario& s)
{
    WindowRun serial = runAt(s, 1);
    for (uint32_t threads : {2u, 8u}) {
        SCOPED_TRACE(threads);
        EXPECT_EQ(runAt(s, threads).report, serial.report);
    }
    return serial;
}

TEST(ComputeWindowTest, TargetErrorKillsDeferredTasks)
{
    // Reaching the target kills every running map, most of which the
    // window never submitted.
    Scenario s;
    s.target = true;
    EXPECT_GT(expectWindowInvisible(s).counters.maps_killed, 0u);
}

TEST(ComputeWindowTest, CrashAndCorruptAbsorbDeferredTasks)
{
    // Crashed attempts and lost outputs are absorbed, releasing their
    // slot or their place in the queue without a merge.
    Scenario s;
    s.fault_plan = "crash=0.3,corrupt=0.4,seed=5";
    s.mode = ft::FailureMode::kAbsorb;
    s.sampling = 0.5;
    s.drop = 0.2;
    WindowRun serial = expectWindowInvisible(s);
    EXPECT_GT(serial.counters.maps_absorbed, 0u);
    EXPECT_GT(serial.counters.map_outputs_lost, 0u);
}

TEST(ComputeWindowTest, EndgameSpeculationCancelsLosers)
{
    // Stragglers get end-game twins; whichever attempt wins, the task's
    // one output is merged once and the loser's slot is freed.
    Scenario s;
    s.fault_plan = "straggler=0.2:6,crash=0.1,seed=9";
    s.endgame_left_percent = 30.0;
    WindowRun serial = expectWindowInvisible(s);
    EXPECT_GT(serial.counters.maps_endgame_speculated, 0u);
    EXPECT_GT(serial.counters.map_attempts_cancelled, 0u);
}

}  // namespace
}  // namespace approxhadoop
