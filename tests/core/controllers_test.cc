#include <bit>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/log_apps.h"
#include "core/approx_config.h"
#include "core/approx_input_format.h"
#include "core/approx_job.h"
#include "core/extreme_target_controller.h"
#include "core/ratio_controller.h"
#include "core/sampling_reducer.h"
#include "core/target_error_controller.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "integrity/checksum.h"
#include "mapreduce/job.h"
#include "obs/observability.h"
#include "sim/cluster.h"
#include "workloads/access_log.h"

namespace approxhadoop::core {
namespace {

class ConstantMapper : public mr::Mapper
{
  public:
    void
    map(const std::string&, mr::MapContext& ctx) override
    {
        ctx.write("k", 1.0);
    }
};

/** Mapper whose values vary, so variance (and hence CIs) are nonzero. */
class VaryingMapper : public mr::Mapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        ctx.write("k", std::stod(record));
    }
};

mr::JobConfig
fastConfig()
{
    mr::JobConfig config;
    config.num_reducers = 1;
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.01;
    config.map_cost.t_process = 0.01;
    config.map_cost.noise_sigma = 0.0;
    config.map_cost.straggler_prob = 0.0;
    config.speculation = false;
    return config;
}

hdfs::GeneratedDataset
dataset(uint64_t blocks, uint64_t items)
{
    return hdfs::GeneratedDataset(
        blocks, items, [](uint64_t, uint64_t) { return "x"; });
}

TEST(UserRatioControllerTest, DropsRequestedFraction)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    auto ds = dataset(40, 10);
    UserRatioController controller(0.25);
    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<ConstantMapper>(); });
    job.setReducerFactory([] { return std::make_unique<mr::SumReducer>(); });
    job.setController(&controller);
    mr::JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_dropped, 10u);
    EXPECT_EQ(result.counters.maps_completed, 30u);
}

TEST(UserRatioControllerTest, ZeroRatioDropsNothing)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 2);
    auto ds = dataset(20, 10);
    UserRatioController controller(0.0);
    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<ConstantMapper>(); });
    job.setReducerFactory([] { return std::make_unique<mr::SumReducer>(); });
    job.setController(&controller);
    EXPECT_EQ(job.run().counters.maps_dropped, 0u);
}

/**
 * Runs a target-error job over a uniform dataset and returns (result,
 * controller achieved flag).
 */
mr::JobResult
runTargetJob(double target, uint64_t blocks, uint64_t items,
             bool* achieved = nullptr, bool pilot = false)
{
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;  // 16 slots -> several waves
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 3);
    auto ds = dataset(blocks, items);

    auto reducer = std::make_unique<MultiStageSamplingReducer>(
        MultiStageSamplingReducer::Op::kCount, 0.95);
    MultiStageSamplingReducer* raw = reducer.get();

    ApproxConfig approx;
    approx.target_relative_error = target;
    if (pilot) {
        approx.pilot.enabled = true;
        approx.pilot.maps = 8;
        approx.pilot.sampling_ratio = 0.2;
    }
    TargetErrorController controller(approx, {raw});

    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<ConstantMapper>(); });
    bool given = false;
    job.setReducerFactory([&reducer, &given]() -> std::unique_ptr<mr::Reducer> {
        EXPECT_FALSE(given);
        given = true;
        return std::move(reducer);
    });
    job.setInputFormat(std::make_shared<ApproxTextInputFormat>());
    job.setController(&controller);
    mr::JobResult result = job.run();
    if (achieved != nullptr) {
        *achieved = controller.targetAchieved();
    }
    return result;
}

TEST(TargetErrorControllerTest, LooseTargetDropsAggressively)
{
    bool achieved = false;
    mr::JobResult result = runTargetJob(0.10, 64, 50, &achieved);
    EXPECT_TRUE(achieved);
    EXPECT_GT(result.counters.maps_dropped + result.counters.maps_killed,
              0u);
    // Output must still carry a bound within the target.
    const mr::OutputRecord* rec = result.find("k");
    ASSERT_NE(rec, nullptr);
    EXPECT_LE(rec->relativeError(), 0.10 + 1e-9);
    // And the estimate should be near the truth (64 * 50 = 3200).
    EXPECT_NEAR(rec->value, 3200.0, 0.10 * 3200.0);
}

TEST(TargetErrorControllerTest, ImpossibleTargetRunsPrecise)
{
    // With genuinely varying data, an (effectively) zero error target
    // can only be met by the full census, so nothing may be dropped or
    // sampled and the output is exact.
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 33);
    hdfs::GeneratedDataset ds(32, 40, [](uint64_t b, uint64_t i) {
        return std::to_string(1.0 + ((b * 37 + i * 11) % 17) / 7.0);
    });
    double truth = 0.0;
    for (uint64_t b = 0; b < 32; ++b) {
        for (uint64_t i = 0; i < 40; ++i) {
            truth += std::stod(ds.item(b, i));
        }
    }

    auto reducer = std::make_unique<MultiStageSamplingReducer>(
        MultiStageSamplingReducer::Op::kSum, 0.95);
    MultiStageSamplingReducer* raw = reducer.get();
    ApproxConfig approx;
    approx.target_relative_error = 1e-12;
    TargetErrorController controller(approx, {raw});

    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<VaryingMapper>(); });
    job.setReducerFactory([&reducer]() -> std::unique_ptr<mr::Reducer> {
        return std::move(reducer);
    });
    job.setInputFormat(std::make_shared<ApproxTextInputFormat>());
    job.setController(&controller);
    mr::JobResult result = job.run();

    EXPECT_EQ(result.counters.maps_completed, 32u);
    EXPECT_EQ(result.counters.items_processed, 32u * 40u);
    const mr::OutputRecord* rec = result.find("k");
    ASSERT_NE(rec, nullptr);
    EXPECT_NEAR(rec->value, truth, 1e-6);
}

TEST(TargetErrorControllerTest, EstimateAlwaysWithinBoundOfTruth)
{
    // Property over several targets: the final CI covers the true value.
    for (double target : {0.02, 0.05, 0.15}) {
        mr::JobResult result = runTargetJob(target, 48, 60);
        const mr::OutputRecord* rec = result.find("k");
        ASSERT_NE(rec, nullptr);
        double truth = 48.0 * 60.0;
        EXPECT_LE(rec->lower, truth) << "target " << target;
        EXPECT_GE(rec->upper, truth) << "target " << target;
    }
}

TEST(TargetErrorControllerTest, PilotWaveRunsAndReleases)
{
    bool achieved = false;
    mr::JobResult result = runTargetJob(0.05, 64, 50, &achieved, true);
    // All tasks reached a terminal state and the job completed.
    EXPECT_EQ(result.counters.maps_total, 64u);
    const mr::OutputRecord* rec = result.find("k");
    ASSERT_NE(rec, nullptr);
    EXPECT_NEAR(rec->value, 3200.0, 0.15 * 3200.0);
    // The pilot sampled at 20%, so the overall processed fraction must
    // be well below the full census.
    EXPECT_LT(result.counters.items_processed, 64u * 50u);
}

/** IEEE-754 bit pattern of @p v, so a pinned double compares exactly. */
uint64_t
bitsOf(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** An obs::ReplanRecord with every double held as its bit pattern. */
struct PinnedReplan
{
    uint64_t sim_time;
    std::string trigger;
    uint64_t completed;
    uint64_t running;
    uint64_t pending;
    bool feasible;
    uint64_t maps_to_run;
    uint64_t sampling_ratio;
    uint64_t predicted_error;
    uint64_t target_error;
    uint64_t predicted_ret;
    uint64_t failure_overhead;
};

/** What a target-error run decided and what it wrote. */
struct PinnedRun
{
    std::vector<PinnedReplan> replans;
    /** Failed maps the controller absorbed or sent back for retry. */
    uint64_t maps_absorbed;
    uint64_t maps_retried;
    /** XXH64 over every output record (key, value, bound flag, CI). */
    uint64_t output_digest;
};

/**
 * Multi-key ProjectPopularity count job over a 2-reducer access log
 * with a relative error target. @p faults runs it under map crashes
 * in FailureMode::kAuto (so onMapFailure rules on each failure);
 * otherwise it opens with a coarse pilot wave.
 */
PinnedRun
runPinnedTargetJob(bool faults)
{
    workloads::AccessLogParams params;
    params.num_blocks = 160;
    params.entries_per_block = 200;
    auto log = workloads::makeAccessLog(params);
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 11);
    ApproxJobRunner runner(cluster, *log, nn);
    obs::Observability obs;
    runner.setObservability(&obs);

    mr::JobConfig config =
        apps::logProcessingConfig("pinned", params.entries_per_block, 2);
    ApproxConfig approx;
    approx.decision_interval = 8;
    if (faults) {
        approx.target_relative_error = 0.03;
        config.fault_plan = ft::FaultPlan::parse("crash=0.25,seed=7");
        config.failure_mode = ft::FailureMode::kAuto;
    } else {
        approx.target_relative_error = 0.05;
        approx.pilot.enabled = true;
        approx.pilot.maps = 20;
        approx.pilot.sampling_ratio = 0.3;
    }
    mr::JobResult result = runner.runAggregation(
        config, approx, apps::ProjectPopularity::mapperFactory(),
        apps::ProjectPopularity::kOp);

    PinnedRun run;
    for (const obs::ReplanRecord& r : obs.trace.replans()) {
        run.replans.push_back(
            {bitsOf(r.sim_time), r.trigger, r.completed, r.running,
             r.pending, r.feasible, r.maps_to_run, bitsOf(r.sampling_ratio),
             bitsOf(r.predicted_error), bitsOf(r.target_error),
             bitsOf(r.predicted_ret), bitsOf(r.failure_overhead)});
    }
    run.maps_absorbed = result.counters.maps_absorbed;
    run.maps_retried = result.counters.maps_retried;
    integrity::Hasher64 hasher;
    hasher.update(static_cast<uint64_t>(result.output.size()));
    for (const mr::OutputRecord& rec : result.output) {
        hasher.update(rec.key);
        hasher.update(rec.value);
        hasher.update(static_cast<uint64_t>(rec.has_bound));
        hasher.update(rec.lower);
        hasher.update(rec.upper);
    }
    run.output_digest = hasher.digest();
    return run;
}

void
expectSameRun(const PinnedRun& got, const PinnedRun& want)
{
    ASSERT_EQ(got.replans.size(), want.replans.size());
    for (size_t i = 0; i < want.replans.size(); ++i) {
        SCOPED_TRACE("replan " + std::to_string(i));
        const PinnedReplan& g = got.replans[i];
        const PinnedReplan& w = want.replans[i];
        EXPECT_EQ(g.sim_time, w.sim_time);
        EXPECT_EQ(g.trigger, w.trigger);
        EXPECT_EQ(g.completed, w.completed);
        EXPECT_EQ(g.running, w.running);
        EXPECT_EQ(g.pending, w.pending);
        EXPECT_EQ(g.feasible, w.feasible);
        EXPECT_EQ(g.maps_to_run, w.maps_to_run);
        EXPECT_EQ(g.sampling_ratio, w.sampling_ratio);
        EXPECT_EQ(g.predicted_error, w.predicted_error);
        EXPECT_EQ(g.target_error, w.target_error);
        EXPECT_EQ(g.predicted_ret, w.predicted_ret);
        EXPECT_EQ(g.failure_overhead, w.failure_overhead);
    }
    EXPECT_EQ(got.maps_absorbed, want.maps_absorbed);
    EXPECT_EQ(got.maps_retried, want.maps_retried);
    EXPECT_EQ(got.output_digest, want.output_digest);
}

// Golden decision sequences: a refactor of the controller's or the
// reducer's bound arithmetic must reproduce every plan, every
// absorb/retry ruling and every output bound bit for bit. Rows are
// {sim_time, trigger, completed, running, pending, feasible,
// maps_to_run, sampling_ratio, predicted_error, target_error,
// predicted_ret, failure_overhead}, doubles as bit patterns.
TEST(TargetErrorControllerTest, ReplanLogIsPinned)
{
    PinnedRun pilot{
        {
            {0x402d3efb15b314eaull, "pilot", 20, 0, 140,
             true, 70, 0x3fdd70a3d70a3d71ull,
             0x40727c32d26013feull, 0x4072800000000000ull,
             0x4081a5c792979e02ull, 0x0000000000000000ull},
            {0x4036a426ddc8a0c0ull, "replan", 24, 16, 50,
             true, 43, 0x3fdfae147ae147aeull,
             0x40727aa1917a41ffull, 0x40727f128cfc4a34ull,
             0x4076159b6e0a6cbeull, 0x0000000000000000ull},
            {0x4036e30f2c1b1420ull, "replan", 32, 16, 35,
             true, 35, 0x3fdc28f5c28f5c29ull,
             0x4072fd6bfb5b5b90ull, 0x407300590b21642full,
             0x4071753335272cdcull, 0x0000000000000000ull},
            {0x403edc55836b440bull, "replan", 40, 16, 27,
             true, 21, 0x3fdf5c28f5c28f5cull,
             0x40731f99be4411ffull, 0x407320cd11e04b90ull,
             0x4065a95e1b3f1519ull, 0x0000000000000000ull},
            {0x403f5386f6752630ull, "replan", 48, 16, 13,
             true, 13, 0x3fdf5c28f5c28f5cull,
             0x4072d7cc288d9b32ull, 0x4072d945e4a47216ull,
             0x405adb3aa0b346e6ull, 0x0000000000000000ull},
            {0x40436aac73aa6f05ull, "replan", 56, 16, 5,
             false, 5, 0x3ff0000000000000ull,
             0x0000000000000000ull, 0x0000000000000000ull,
             0x0000000000000000ull, 0x0000000000000000ull},
            {0x4049bb09ccee14beull, "achieved", 77, 0, 0,
             true, 0, 0x3ff0000000000000ull,
             0x4072a7c1f3488522ull, 0x4072d6bf5bf06dffull,
             0x0000000000000000ull, 0x0000000000000000ull},
        },
        0, 0, 0xb3ed42e10f4cbc3dull};
    expectSameRun(runPinnedTargetJob(false), pilot);

    PinnedRun faults{
        {
            {0x4035043b3c293336ull, "replan", 16, 16, 124,
             true, 29, 0x3fef0a3d70a3d70aull,
             0x4067ba99bb3c8c2dull, 0x4067bccccccccccdull,
             0x407a2358fff589b3ull, 0x400f000000000000ull},
            {0x403f7e1c5d8847baull, "replan", 24, 16, 20,
             false, 20, 0x3ff0000000000000ull,
             0x0000000000000000ull, 0x0000000000000000ull,
             0x0000000000000000ull, 0x4019d55555555557ull},
            {0x4042f26c73a44fefull, "replan", 32, 16, 12,
             false, 12, 0x3ff0000000000000ull,
             0x0000000000000000ull, 0x0000000000000000ull,
             0x0000000000000000ull, 0x4013600000000000ull},
            {0x404575798ed1a12dull, "replan", 40, 16, 4,
             false, 4, 0x3ff0000000000000ull,
             0x0000000000000000ull, 0x0000000000000000ull,
             0x0000000000000000ull, 0x4014266666666666ull},
            {0x404acd2519360309ull, "replan", 48, 11, 1,
             false, 1, 0x3ff0000000000000ull,
             0x0000000000000000ull, 0x0000000000000000ull,
             0x0000000000000000ull, 0x4014aaaaaaaaaaaaull},
            {0x405371b464ff78eeull, "replan", 56, 3, 1,
             false, 1, 0x3ff0000000000000ull,
             0x0000000000000000ull, 0x0000000000000000ull,
             0x0000000000000000ull, 0x401a924924924925ull},
        },
        5, 17, 0x5ade761210dfac56ull};
    expectSameRun(runPinnedTargetJob(true), faults);
}

class MinSeedMapper : public mr::Mapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        // Deterministic per-task minimum above a floor of 100.
        Rng rng(splitmix64(std::stoull(record)));
        double m = 1e18;
        for (int i = 0; i < 30; ++i) {
            m = std::min(m, 100.0 + rng.exponential(0.2));
        }
        ctx.write("min", m);
    }
};

TEST(ExtremeTargetControllerTest, StopsEarlyWhenCiTightens)
{
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 4);
    auto ds = hdfs::GeneratedDataset(
        200, 1,
        [](uint64_t b, uint64_t i) { return std::to_string(b * 7 + i); });

    auto reducer = std::make_unique<ApproxMinReducer>();
    ApproxMinReducer* raw = reducer.get();
    ApproxConfig approx;
    approx.target_relative_error = 0.10;
    ExtremeTargetController controller(approx, {raw});

    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<MinSeedMapper>(); });
    job.setReducerFactory([&reducer]() -> std::unique_ptr<mr::Reducer> {
        return std::move(reducer);
    });
    job.setController(&controller);
    mr::JobResult result = job.run();

    EXPECT_TRUE(controller.targetAchieved());
    EXPECT_LT(result.counters.maps_completed, 200u);
    const mr::OutputRecord* rec = result.find("min");
    ASSERT_NE(rec, nullptr);
    EXPECT_LE(rec->relativeError(), 0.10 + 1e-9);
}

TEST(ExtremeTargetControllerTest, WaitsForMinimumMaps)
{
    // min_maps_for_extreme must gate the first decision.
    sim::ClusterConfig cc;
    cc.num_servers = 2;
    cc.map_slots_per_server = 1;  // strictly sequential
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 5);
    auto ds = hdfs::GeneratedDataset(
        30, 1,
        [](uint64_t b, uint64_t i) { return std::to_string(b * 13 + i); });

    auto reducer = std::make_unique<ApproxMinReducer>();
    ApproxMinReducer* raw = reducer.get();
    ApproxConfig approx;
    approx.target_relative_error = 0.50;  // very loose
    approx.min_maps_for_extreme = 12;
    ExtremeTargetController controller(approx, {raw});

    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<MinSeedMapper>(); });
    job.setReducerFactory([&reducer]() -> std::unique_ptr<mr::Reducer> {
        return std::move(reducer);
    });
    job.setController(&controller);
    mr::JobResult result = job.run();
    EXPECT_GE(result.counters.maps_completed, 12u);
}

}  // namespace
}  // namespace approxhadoop::core
