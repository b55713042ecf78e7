/**
 * @file
 * Regression tests for the kill/failure data path: output of killed,
 * crashed, or absorbed map attempts — including partial combiner
 * output — must never leak into the shuffle merge, and a retried task
 * must shuffle exactly once. Each mapper emits value 1 for its single
 * input item, so any leak or double delivery shows up as
 * sum != maps_completed.
 */
#include <memory>

#include <gtest/gtest.h>

#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "integrity/blob.h"
#include "mapreduce/combiner.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

namespace approxhadoop::mr {
namespace {

class OneMapper : public Mapper
{
  public:
    void
    map(const std::string& record, MapContext& ctx) override
    {
        ctx.write(record, 1.0);
    }
};

/** Kills every remaining map once @p after tasks have completed. */
class KillAfterController : public JobController
{
  public:
    explicit KillAfterController(uint64_t after) : after_(after) {}

    void
    onMapComplete(JobHandle& job, const MapTaskInfo& /*task*/) override
    {
        if (!fired_ && job.completedMaps() >= after_) {
            fired_ = true;
            job.dropAllRemaining();
        }
    }

  private:
    uint64_t after_;
    bool fired_ = false;
};

JobConfig
quickConfig()
{
    JobConfig config;
    config.name = "kill-path-test";
    config.map_cost.t0 = 10.0;
    config.map_cost.noise_sigma = 0.2;
    config.seed = 99;
    return config;
}

hdfs::InMemoryDataset
dataset(int blocks = 40)
{
    std::vector<std::string> records(blocks, "k");
    return hdfs::InMemoryDataset(records, 1);  // single-item blocks
}

struct RunSpec
{
    JobConfig config = quickConfig();
    JobController* controller = nullptr;
    std::shared_ptr<Combiner> combiner;
    int blocks = 40;
};

JobResult
runJob(RunSpec spec)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 7);
    auto ds = dataset(spec.blocks);
    Job job(cluster, ds, nn, spec.config);
    job.setMapperFactory([] { return std::make_unique<OneMapper>(); });
    job.setReducerFactory([] { return std::make_unique<SumReducer>(); });
    if (spec.controller != nullptr) {
        job.setController(spec.controller);
    }
    if (spec.combiner != nullptr) {
        job.setCombiner(spec.combiner);
    }
    return job.run();
}

double
sumValue(const JobResult& result)
{
    const OutputRecord* rec = result.find("k");
    return rec == nullptr ? 0.0 : rec->value;
}

TEST(KillPathTest, KilledTasksNeverShuffle)
{
    KillAfterController controller(5);
    RunSpec spec;
    spec.controller = &controller;
    JobResult result = runJob(std::move(spec));
    EXPECT_GT(result.counters.maps_killed + result.counters.maps_dropped,
              0u);
    // The shuffle saw exactly one record per *completed* task.
    EXPECT_DOUBLE_EQ(
        sumValue(result),
        static_cast<double>(result.counters.maps_completed));
    EXPECT_EQ(result.counters.records_shuffled,
              result.counters.maps_completed);
}

TEST(KillPathTest, CombinerOutputOfKilledTasksNeverLeaks)
{
    KillAfterController controller(5);
    RunSpec spec;
    spec.controller = &controller;
    spec.combiner = std::make_shared<SumCombiner>();
    JobResult result = runJob(std::move(spec));
    EXPECT_GT(result.counters.maps_killed + result.counters.maps_dropped,
              0u);
    EXPECT_DOUBLE_EQ(
        sumValue(result),
        static_cast<double>(result.counters.maps_completed));
}

TEST(KillPathTest, CrashedAttemptsNeverShuffleInAbsorbMode)
{
    RunSpec spec;
    spec.config.fault_plan = ft::FaultPlan::parse("crash=0.4");
    spec.config.failure_mode = ft::FailureMode::kAbsorb;
    JobResult result = runJob(std::move(spec));
    EXPECT_GT(result.counters.maps_absorbed, 0u);
    EXPECT_EQ(result.counters.maps_retried, 0u);
    EXPECT_EQ(result.counters.maps_completed +
                  result.counters.maps_absorbed,
              40u);
    EXPECT_DOUBLE_EQ(
        sumValue(result),
        static_cast<double>(result.counters.maps_completed));
}

TEST(KillPathTest, RetriedTasksShuffleExactlyOnce)
{
    RunSpec spec;
    spec.config.fault_plan = ft::FaultPlan::parse("crash=0.35");
    spec.config.failure_mode = ft::FailureMode::kRetry;
    JobResult result = runJob(std::move(spec));
    EXPECT_GT(result.counters.map_attempts_failed, 0u);
    EXPECT_GT(result.counters.maps_retried, 0u);
    EXPECT_EQ(result.counters.maps_completed, 40u);
    // Every task delivered once despite multiple attempts: a double
    // delivery would push the sum past 40.
    EXPECT_DOUBLE_EQ(sumValue(result), 40.0);
    EXPECT_GT(result.counters.wasted_attempt_seconds, 0.0);
}

/**
 * Checkpointable reducer that records the order in which map-task chunks
 * reach it. The order log is part of the checkpointed state, so a
 * restore rolls it back and the framework's replay re-extends it: the
 * final log equals the fault-free log iff replay preserves the serial
 * shuffle-merge order.
 */
class RecordingReducer : public Reducer
{
  public:
    RecordingReducer(std::shared_ptr<std::vector<uint64_t>> final_order,
                     std::shared_ptr<uint64_t> restores)
        : final_order_(std::move(final_order)),
          restores_(std::move(restores))
    {
    }

    void
    consume(const MapOutputChunk& chunk) override
    {
        order_.push_back(chunk.map_task);
        for (const Row& kv : chunk.records) {
            sum_ += kv.value;
        }
    }

    void
    finalize(ReduceContext& ctx) override
    {
        ctx.write("k", sum_);
        *final_order_ = order_;
    }

    bool
    checkpoint(std::string& state) const override
    {
        integrity::BlobWriter w;
        w.putDouble(sum_);
        w.putU64(order_.size());
        for (uint64_t t : order_) {
            w.putU64(t);
        }
        state = w.str();
        return true;
    }

    bool
    restore(const std::string& state) override
    {
        integrity::BlobReader r(state);
        sum_ = r.getDouble();
        order_.assign(r.getU64(), 0);
        for (uint64_t& t : order_) {
            t = r.getU64();
        }
        r.expectEnd();
        ++*restores_;
        return true;
    }

  private:
    double sum_ = 0.0;
    std::vector<uint64_t> order_;
    std::shared_ptr<std::vector<uint64_t>> final_order_;
    std::shared_ptr<uint64_t> restores_;
};

TEST(KillPathTest, ReplayAfterReducerRestartPreservesMergeOrder)
{
    auto runRecorded = [](const std::string& fault_spec,
                          std::vector<uint64_t>& order, Counters& counters) {
        auto final_order = std::make_shared<std::vector<uint64_t>>();
        auto restores = std::make_shared<uint64_t>(0);
        RunSpec spec;
        spec.config.fault_plan = ft::FaultPlan::parse(fault_spec);
        spec.config.reducer_checkpoint_interval = 5;
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 7);
        auto ds = dataset(spec.blocks);
        Job job(cluster, ds, nn, spec.config);
        job.setMapperFactory([] { return std::make_unique<OneMapper>(); });
        job.setReducerFactory([final_order, restores] {
            return std::make_unique<RecordingReducer>(final_order,
                                                      restores);
        });
        JobResult result = job.run();
        order = *final_order;
        counters = result.counters;
        EXPECT_DOUBLE_EQ(sumValue(result), 40.0);
        return *restores;
    };

    std::vector<uint64_t> clean_order;
    Counters clean_counters;
    uint64_t clean_restores =
        runRecorded("", clean_order, clean_counters);
    EXPECT_EQ(clean_restores, 0u);
    EXPECT_EQ(clean_order.size(), 40u);
    EXPECT_EQ(clean_counters.reduce_attempts_failed, 0u);

    std::vector<uint64_t> faulty_order;
    Counters faulty_counters;
    uint64_t faulty_restores =
        runRecorded("rcrash=1", faulty_order, faulty_counters);
    // rcrash=1 crashes every allowed reduce attempt but the last.
    EXPECT_GT(faulty_restores, 0u);
    EXPECT_GT(faulty_counters.reduce_attempts_failed, 0u);
    EXPECT_GT(faulty_counters.chunks_replayed, 0u);
    EXPECT_GT(faulty_counters.reducer_checkpoints, 0u);
    // Replay must re-deliver the retained chunks in their original
    // serial shuffle-merge order: the recovered order log is then
    // bit-identical to the fault-free one.
    EXPECT_EQ(faulty_order, clean_order);
    // records_shuffled counts first-time deliveries only, never replays.
    EXPECT_EQ(faulty_counters.records_shuffled,
              clean_counters.records_shuffled);
}

TEST(KillPathTest, KillDuringRetryBackoffCompletesTheJob)
{
    KillAfterController controller(3);
    RunSpec spec;
    spec.controller = &controller;
    spec.config.fault_plan = ft::FaultPlan::parse("crash=0.7");
    spec.config.failure_mode = ft::FailureMode::kRetry;
    spec.config.recovery.max_attempts = 100;  // never exhaust
    JobResult result = runJob(std::move(spec));
    const Counters& c = result.counters;
    // Tasks waiting out a retry backoff are killed cleanly with the rest.
    EXPECT_EQ(c.maps_completed + c.maps_killed + c.maps_dropped +
                  c.maps_absorbed,
              40u);
    EXPECT_DOUBLE_EQ(sumValue(result),
                     static_cast<double>(c.maps_completed));
}

}  // namespace
}  // namespace approxhadoop::mr
