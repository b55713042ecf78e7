#include "mapreduce/job.h"

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "sim/cluster.h"

namespace approxhadoop::mr {
namespace {

/** Emits <record, 1> so tests can see exactly which items were mapped. */
class IdentityMapper : public Mapper
{
  public:
    void
    map(const std::string& record, MapContext& ctx) override
    {
        ctx.write(record, 1.0);
    }
};

/** Mapper that records which task ids executed. */
class TaskTrackingMapper : public Mapper
{
  public:
    explicit TaskTrackingMapper(std::set<uint64_t>* executed)
        : executed_(executed)
    {
    }

    void
    map(const std::string&, MapContext& ctx) override
    {
        executed_->insert(ctx.taskId());
    }

  private:
    std::set<uint64_t>* executed_;
};

JobConfig
fastConfig()
{
    JobConfig config;
    config.name = "test";
    config.num_reducers = 2;
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.01;
    config.map_cost.t_process = 0.01;
    config.map_cost.noise_sigma = 0.0;
    config.map_cost.straggler_prob = 0.0;
    config.speculation = false;
    return config;
}

hdfs::InMemoryDataset
smallDataset()
{
    std::vector<std::string> records;
    for (int i = 0; i < 120; ++i) {
        records.push_back(std::string("k").append(std::to_string(i % 6)));
    }
    return hdfs::InMemoryDataset(records, 10);  // 12 blocks
}

TEST(JobTest, PreciseWordCountIsExact)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    JobResult result = job.run();

    EXPECT_EQ(result.counters.maps_total, 12u);
    EXPECT_EQ(result.counters.maps_completed, 12u);
    EXPECT_EQ(result.counters.items_processed, 120u);
    auto by_key = result.toMap();
    ASSERT_EQ(by_key.size(), 6u);
    for (const auto& [key, rec] : by_key) {
        EXPECT_DOUBLE_EQ(rec.value, 20.0) << key;
    }
    EXPECT_GT(result.runtime, 0.0);
    EXPECT_GT(result.energy_wh, 0.0);
}

TEST(JobTest, EveryTaskExecutesExactlyOnce)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 2);
    auto ds = smallDataset();
    std::set<uint64_t> executed;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([&] {
        return std::make_unique<TaskTrackingMapper>(&executed);
    });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    job.run();
    EXPECT_EQ(executed.size(), 12u);
}

TEST(JobTest, MultipleWavesWhenTasksExceedSlots)
{
    // 3 servers x 2 slots = 6 slots; 12 tasks = 2 waves.
    sim::ClusterConfig cc;
    cc.num_servers = 3;
    cc.map_slots_per_server = 2;
    cc.reduce_slots_per_server = 1;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 3);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    JobResult result = job.run();
    EXPECT_EQ(result.counters.waves, 2);
    // Two sequential waves: runtime at least twice one map duration.
    EXPECT_GE(result.runtime, 2.0 * 1.1);
}

TEST(JobTest, RuntimeScalesWithWaves)
{
    auto run_with_slots = [](int slots_per_server) {
        sim::ClusterConfig cc;
        cc.num_servers = 2;
        cc.map_slots_per_server = slots_per_server;
        sim::Cluster cluster(cc);
        hdfs::NameNode nn(cluster.numServers(), 2, 4);
        auto ds = smallDataset();
        Job job(cluster, ds, nn, fastConfig());
        job.setMapperFactory(
            [] { return std::make_unique<IdentityMapper>(); });
        job.setReducerFactory(
            [] { return std::make_unique<SumReducer>(); });
        return job.run().runtime;
    };
    // 6 total slots: two waves. 24 total slots: one wave. The two-wave
    // run pays at least one extra map duration (1.2 s) on top.
    EXPECT_GT(run_with_slots(3), run_with_slots(12) + 1.0);
}

TEST(JobTest, LocalityPreferred)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 5);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    JobResult result = job.run();
    // With 12 tasks, 80 slots, and replication 3 on 10 servers, most
    // tasks should run local.
    EXPECT_GT(result.counters.local_maps, result.counters.remote_maps);
}

TEST(JobTest, ResultIsIndependentOfClusterShape)
{
    auto run_on = [](uint32_t servers) {
        sim::ClusterConfig cc;
        cc.num_servers = servers;
        cc.map_slots_per_server = 2;
        sim::Cluster cluster(cc);
        hdfs::NameNode nn(cluster.numServers(), 2, 6);
        auto ds = smallDataset();
        Job job(cluster, ds, nn, fastConfig());
        job.setMapperFactory(
            [] { return std::make_unique<IdentityMapper>(); });
        job.setReducerFactory(
            [] { return std::make_unique<SumReducer>(); });
        return job.run();
    };
    auto a = run_on(2).toMap();
    auto b = run_on(9).toMap();
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, rec] : a) {
        EXPECT_DOUBLE_EQ(rec.value, b.at(key).value) << key;
    }
}

TEST(JobTest, RunTwiceThrows)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 7);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    job.run();
    EXPECT_THROW(job.run(), std::logic_error);
}

TEST(JobTest, MissingFactoriesThrow)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 8);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    EXPECT_THROW(job.run(), std::logic_error);
}

/** Controller that drops a fixed number of pending maps at job start. */
class DropAtStartController : public JobController
{
  public:
    explicit DropAtStartController(uint64_t count) : count_(count) {}

    void
    onJobStart(JobHandle& job) override
    {
        EXPECT_EQ(job.dropPendingMaps(count_), count_);
    }

  private:
    uint64_t count_;
};

TEST(JobTest, DroppedMapsDoNotExecute)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 9);
    auto ds = smallDataset();
    std::set<uint64_t> executed;
    DropAtStartController controller(5);
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([&] {
        return std::make_unique<TaskTrackingMapper>(&executed);
    });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    job.setController(&controller);
    JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_dropped, 5u);
    EXPECT_EQ(result.counters.maps_completed, 7u);
    EXPECT_EQ(executed.size(), 7u);
}

/** Controller that kills everything after the first map completes. */
class DropAllController : public JobController
{
  public:
    void
    onMapComplete(JobHandle& job, const MapTaskInfo&) override
    {
        if (!done_) {
            done_ = true;
            job.dropAllRemaining();
        }
    }

  private:
    bool done_ = false;
};

TEST(JobTest, DropAllRemainingStillCompletesJob)
{
    // Few slots so maps are staggered and some are still pending.
    sim::ClusterConfig cc;
    cc.num_servers = 2;
    cc.map_slots_per_server = 2;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 10);
    auto ds = smallDataset();
    DropAllController controller;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    job.setController(&controller);
    JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_completed, 1u);
    EXPECT_EQ(result.counters.maps_completed + result.counters.maps_killed +
                  result.counters.maps_dropped,
              12u);
    // Output only reflects the single completed map.
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
    }
    EXPECT_DOUBLE_EQ(total, 10.0);
}

/** Controller that verifies sampling-ratio plumbing end to end. */
class RatioProbeController : public JobController
{
  public:
    void
    onJobStart(JobHandle& job) override
    {
        job.setPendingSamplingRatio(0.5);
    }

    void
    onMapComplete(JobHandle& job, const MapTaskInfo& task) override
    {
        EXPECT_DOUBLE_EQ(task.sampling_ratio, 0.5);
        EXPECT_EQ(job.mapTask(task.task_id).state, TaskState::kCompleted);
    }
};

TEST(JobTest, SamplingRatioReachesTasksButTextFormatIgnoresIt)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 11);
    auto ds = smallDataset();
    RatioProbeController controller;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    job.setController(&controller);
    JobResult result = job.run();
    // TextInputFormat processes everything regardless of the ratio.
    EXPECT_EQ(result.counters.items_processed, 120u);
}

TEST(JobTest, WaveCompletionCallbackFires)
{
    class WaveCounter : public JobController
    {
      public:
        void
        onWaveComplete(JobHandle&, int wave) override
        {
            waves.push_back(wave);
        }
        std::vector<int> waves;
    };

    sim::ClusterConfig cc;
    cc.num_servers = 3;
    cc.map_slots_per_server = 2;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 12);
    auto ds = smallDataset();
    WaveCounter controller;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    job.setController(&controller);
    job.run();
    ASSERT_EQ(controller.waves.size(), 2u);
    EXPECT_EQ(controller.waves[0], 0);
    EXPECT_EQ(controller.waves[1], 1);
}

}  // namespace
}  // namespace approxhadoop::mr
