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
 * serial run's. A submitted computation whose task ends before a thread
 * starts it is skipped without running the mapper. The driver computes
 * while it would wait, so a job finishes even when every worker is held.
 *
 * The "ComputeWindow" test-name prefix is matched by the TSan CI job.
 */
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
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
 * The JSON report of @p result without its wall-clock lines, built as if
 * at one thread so its `threads` field matches the serial run's too.
 */
std::string
reportWithoutWallClock(const std::string& app, mr::JobConfig config,
                       const mr::JobResult& result, obs::Observability& obs)
{
    config.num_exec_threads = 1;
    std::istringstream in(
        obs::JobReport::build(app, config, result, &obs).toJson());
    std::ostringstream out;
    for (std::string line; std::getline(in, line);) {
        if (line.find("\"wall_") == std::string::npos) {
            out << line << '\n';
        }
    }
    return out.str();
}

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
    return {reportWithoutWallClock("projectpop", config, result, obs),
            result.counters};
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

TEST(ComputeWindowTest, LostOutputsAreResubmitted)
{
    // A lost output fails its task, whose retry submits the computation
    // again: a second entry for the same task behind the consumed one.
    Scenario s;
    s.fault_plan = "corrupt=0.4,seed=5";
    s.mode = ft::FailureMode::kRetry;
    WindowRun serial = expectWindowInvisible(s);
    EXPECT_GT(serial.counters.map_outputs_lost, 0u);
    EXPECT_EQ(serial.counters.maps_absorbed, 0u);
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
 * Holds pool workers inside Mapper::setup until the driver opens it. A
 * gated mapper parks only on a pool thread: the driver, which computes
 * while it would wait, runs gated computations straight through, since
 * only it can open the gate.
 */
struct Gate
{
    std::mutex mu;
    std::condition_variable cv;
    const std::thread::id driver = std::this_thread::get_id();
    int created = 0;  ///< mappers made by the factory (driver thread)
    int setups = 0;   ///< setup() calls, i.e. computations started
    int driver_setups = 0;  ///< gated setup() calls on the driver
    int parked = 0;
    int setups_at_open = 0;
    bool open = false;
    bool timed_out = false;

    /** Waits (driver thread) until @p workers computations are parked;
     *  bounded like the park itself. */
    void
    awaitParked(int workers)
    {
        std::unique_lock<std::mutex> lock(mu);
        if (!cv.wait_for(lock, std::chrono::seconds(60), [&] {
                return parked == workers || timed_out;
            })) {
            timed_out = true;
        }
    }

    /** Opens the gate (driver thread). */
    void
    release()
    {
        std::lock_guard<std::mutex> lock(mu);
        setups_at_open = setups;
        open = true;
        cv.notify_all();
    }
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
        if (std::this_thread::get_id() == gate_.driver) {
            ++gate_.driver_setups;
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
 * parked; at completion @p end_at, ends every other task, then opens the
 * gate.
 */
class EndAllWhileParked : public mr::JobController
{
  public:
    EndAllWhileParked(Gate& gate, int workers, uint64_t end_at = 1)
        : gate_(gate), workers_(workers), end_at_(end_at)
    {
    }

    void
    onMapComplete(mr::JobHandle& job, const mr::MapTaskInfo& /*task*/) override
    {
        if (job.completedMaps() == 1) {
            gate_.awaitParked(workers_);
        }
        if (job.completedMaps() == end_at_) {
            job.dropAllRemaining();
            gate_.release();
        }
    }

  private:
    Gate& gate_;
    int workers_;
    uint64_t end_at_;
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
        const int workers = static_cast<int>(threads);
        EndAllWhileParked controller(gate, workers);
        mr::Job job(cluster, data, nn, config);
        job.setMapperFactory([&gate, workers] {
            // By now the first computation and one gated one per worker
            // are queued. Once every worker has parked, the first is
            // done before the driver reads it, so the driver never
            // computes while waiting, nor runs a gated computation.
            if (gate.created == 1 + workers) {
                gate.awaitParked(workers);
            }
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
        // other submitted one was skipped once its task was killed, and
        // none started after that.
        EXPECT_EQ(gate.driver_setups, 0);
        EXPECT_EQ(gate.setups, 1 + workers);
        EXPECT_EQ(gate.setups, gate.setups_at_open);
        EXPECT_GT(gate.created, gate.setups);
    }
}

/**
 * Runs 120 ten-record blocks on two Atom servers (four slots each, at
 * 0.35 the Xeons' speed) and nine Xeons, killing every task left at
 * completion @p end_at. Every mapper is gated, so each worker parks in
 * the first computation it takes. Pass 1 of the scheduler fills the Atom
 * slots first, so at 2 and 8 workers the parked computations belong to
 * Atom tasks, all still running at the kill; every output the job merges
 * is computed by the driver.
 */
WindowRun
runWithParkedWorkers(uint32_t threads, uint64_t end_at, Gate& gate)
{
    sim::Cluster cluster(sim::ClusterConfig::parse("2atom+9xeon"));
    hdfs::NameNode nn(cluster.numServers(), 3, 7);
    std::vector<std::string> records;
    for (int i = 0; i < 1200; ++i) {
        records.push_back(std::string("k").append(std::to_string(i % 7)));
    }
    hdfs::InMemoryDataset data(records, 10);
    mr::JobConfig config;
    config.name = "parked-workers";
    config.map_cost.noise_sigma = 0.0;
    config.seed = 5;
    config.num_exec_threads = threads;

    const int workers = threads > 1 ? static_cast<int>(threads) : 0;
    EndAllWhileParked controller(gate, workers, end_at);
    obs::Observability obs;
    mr::Job job(cluster, data, nn, config);
    job.setObservability(&obs);
    job.setMapperFactory(
        [&gate] { return std::make_unique<GatedMapper>(gate, true); });
    job.setReducerFactory([] { return std::make_unique<mr::SumReducer>(); });
    job.setController(&controller);
    mr::JobResult result = job.run();
    return {reportWithoutWallClock("parked-workers", config, result, obs),
            result.counters};
}

TEST(ComputeWindowTest, DriverComputesWhileWorkersPark)
{
    constexpr uint64_t kEndAt = 60;
    Gate serial_gate;
    WindowRun serial = runWithParkedWorkers(1, kEndAt, serial_gate);
    ASSERT_EQ(serial.counters.maps_completed, kEndAt);
    EXPECT_GT(serial.counters.maps_killed, 0u);
    for (uint32_t threads : {2u, 8u}) {
        SCOPED_TRACE(threads);
        Gate gate;
        EXPECT_EQ(runWithParkedWorkers(threads, kEndAt, gate).report,
                  serial.report);
        ASSERT_FALSE(gate.timed_out);
        // Each worker parked once, for the whole map phase, and the
        // driver computed every merged output itself.
        EXPECT_EQ(gate.parked, static_cast<int>(threads));
        EXPECT_EQ(gate.setups - gate.driver_setups,
                  static_cast<int>(threads));
        EXPECT_EQ(gate.driver_setups, static_cast<int>(kEndAt));
        EXPECT_EQ(gate.setups, gate.setups_at_open);
    }
}

}  // namespace
}  // namespace approxhadoop
