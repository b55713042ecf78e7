/**
 * @file
 * The parallel executor's run-ahead window: at most eight map outputs per
 * worker are submitted and not yet merged, the rest wait in
 * scheduled-finish order, and a task that completes before its turn
 * computes inline. Every scenario here starts more tasks at once (80 map
 * slots) than the window holds at 2 or 8 threads (16 or 64), and ends many
 * of them before their turn — killed when the target error is met,
 * absorbed after a crash or a lost output, cancelled as a speculative
 * loser — so deferred entries are skipped, released slots are refilled,
 * and the job must still finish with a report byte-identical to the
 * serial run's. A submitted computation whose task ends before a worker
 * starts it is skipped without running the mapper.
 *
 * The "ComputeWindow" test-name prefix is matched by the TSan CI job.
 */
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/log_apps.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "ft/fault_plan.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
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

/**
 * Holds pool workers inside Mapper::setup until the driver opens it.
 * Every mapper but the first one created parks there, so once each
 * worker holds one, the computations still queued cannot start.
 */
struct Gate
{
    std::mutex mu;
    std::condition_variable cv;
    int created = 0;  ///< mappers made by the factory (driver thread)
    int setups = 0;   ///< setup() calls, i.e. computations started
    int parked = 0;
    bool open = false;
    bool timed_out = false;
};

class GatedMapper : public mr::Mapper
{
  public:
    GatedMapper(Gate& gate, bool parks) : gate_(gate), parks_(parks) {}

    void
    setup(mr::MapContext& /*ctx*/) override
    {
        std::unique_lock<std::mutex> lock(gate_.mu);
        ++gate_.setups;
        if (!parks_) {
            return;
        }
        ++gate_.parked;
        gate_.cv.notify_all();
        // The bound only turns a broken premise (the driver waiting on a
        // parked computation) into a failure instead of a hang.
        if (!gate_.cv.wait_for(lock, std::chrono::seconds(60),
                               [this] { return gate_.open; })) {
            gate_.timed_out = true;
        }
    }

    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        ctx.write(record, 1.0);
    }

  private:
    Gate& gate_;
    bool parks_;
};

/**
 * At the first completion, waits until @p workers computations are
 * parked, ends every other task, then opens the gate.
 */
class EndAllWhileParked : public mr::JobController
{
  public:
    EndAllWhileParked(Gate& gate, int workers)
        : gate_(gate), workers_(workers)
    {
    }

    void
    onMapComplete(mr::JobHandle& job, const mr::MapTaskInfo& /*task*/) override
    {
        if (job.completedMaps() != 1) {
            return;
        }
        std::unique_lock<std::mutex> lock(gate_.mu);
        gate_.cv.wait(lock, [this] {
            return gate_.parked == workers_ || gate_.timed_out;
        });
        job.dropAllRemaining();
        gate_.open = true;
        gate_.cv.notify_all();
    }

  private:
    Gate& gate_;
    int workers_;
};

TEST(ComputeWindowTest, EndedTasksSkipUnstartedComputations)
{
    // Noise-free equal costs: every first-wave attempt finishes at the
    // same time, in start order, so the first completion is the first
    // computation submitted -- the one mapper that does not park.
    for (uint32_t threads : {2u, 8u}) {
        SCOPED_TRACE(threads);
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 7);
        hdfs::InMemoryDataset data(std::vector<std::string>(120, "k"), 1);
        mr::JobConfig config;
        config.name = "skip-released";
        config.map_cost.t0 = 10.0;
        config.map_cost.noise_sigma = 0.0;
        config.seed = 5;
        config.num_exec_threads = threads;

        Gate gate;
        EndAllWhileParked controller(gate, static_cast<int>(threads));
        mr::Job job(cluster, data, nn, config);
        job.setMapperFactory([&gate] {
            return std::make_unique<GatedMapper>(gate, gate.created++ > 0);
        });
        job.setReducerFactory(
            [] { return std::make_unique<mr::SumReducer>(); });
        job.setController(&controller);
        mr::JobResult result = job.run();

        ASSERT_FALSE(gate.timed_out);
        EXPECT_EQ(result.counters.maps_completed, 1u);
        EXPECT_EQ(result.counters.records_shuffled, 1u);
        // The first computation and one parked per worker ran; every
        // other submitted one was skipped once its task was killed.
        EXPECT_EQ(gate.setups, 1 + static_cast<int>(threads));
        EXPECT_GT(gate.created, gate.setups);
    }
}

}  // namespace
}  // namespace approxhadoop
