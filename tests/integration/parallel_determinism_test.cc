/**
 * @file
 * Parallel-execution determinism: a job run with a thread pool must be
 * bit-identical — every estimate, confidence interval, counter, and
 * simulated timing — to the serial reference run, seed for seed. This is
 * the contract that lets num_exec_threads be a pure performance knob
 * with no statistical consequences.
 */
#include <gtest/gtest.h>

#include "apps/log_apps.h"
#include "apps/wiki_apps.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/namenode.h"
#include "sim/cluster.h"
#include "workloads/access_log.h"
#include "workloads/wiki_dump.h"

namespace approxhadoop {
namespace {

void
expectIdentical(const mr::JobResult& serial, const mr::JobResult& parallel)
{
    // Simulated time and energy must not notice host threading at all.
    EXPECT_EQ(serial.runtime, parallel.runtime);
    EXPECT_EQ(serial.energy_wh, parallel.energy_wh);

    EXPECT_EQ(serial.counters.maps_completed,
              parallel.counters.maps_completed);
    EXPECT_EQ(serial.counters.maps_dropped, parallel.counters.maps_dropped);
    EXPECT_EQ(serial.counters.maps_killed, parallel.counters.maps_killed);
    EXPECT_EQ(serial.counters.maps_speculated,
              parallel.counters.maps_speculated);
    EXPECT_EQ(serial.counters.items_processed,
              parallel.counters.items_processed);
    EXPECT_EQ(serial.counters.records_shuffled,
              parallel.counters.records_shuffled);
    EXPECT_EQ(serial.counters.waves, parallel.counters.waves);

    ASSERT_EQ(serial.output.size(), parallel.output.size());
    for (size_t i = 0; i < serial.output.size(); ++i) {
        const mr::OutputRecord& a = serial.output[i];
        const mr::OutputRecord& b = parallel.output[i];
        EXPECT_EQ(a.key, b.key);
        // Bitwise equality, not approximate: identical draws, identical
        // merge order, identical floating-point operation order.
        EXPECT_EQ(a.value, b.value) << "key " << a.key;
        EXPECT_EQ(a.has_bound, b.has_bound) << "key " << a.key;
        EXPECT_EQ(a.lower, b.lower) << "key " << a.key;
        EXPECT_EQ(a.upper, b.upper) << "key " << a.key;
    }
}

/**
 * Same estimates and confidence intervals, ignoring execution counters
 * and timing — what combining may legitimately change (shuffle volume,
 * reduce duration) versus what it must preserve.
 */
void
expectSameEstimates(const mr::JobResult& a, const mr::JobResult& b)
{
    ASSERT_EQ(a.output.size(), b.output.size());
    for (size_t i = 0; i < a.output.size(); ++i) {
        EXPECT_EQ(a.output[i].key, b.output[i].key);
        EXPECT_EQ(a.output[i].value, b.output[i].value);
        EXPECT_EQ(a.output[i].lower, b.output[i].lower);
        EXPECT_EQ(a.output[i].upper, b.output[i].upper);
    }
}

std::unique_ptr<hdfs::BlockDataset>
accessLog(uint64_t blocks, uint64_t entries, uint64_t seed)
{
    workloads::AccessLogParams params;
    params.num_blocks = blocks;
    params.entries_per_block = entries;
    params.seed = seed;
    return workloads::makeAccessLog(params);
}

mr::JobResult
runProjectPop(const hdfs::BlockDataset& log, const core::ApproxConfig& approx,
              uint32_t threads, uint64_t seed)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, seed);
    core::ApproxJobRunner runner(cluster, log, nn);
    mr::JobConfig config = apps::logProcessingConfig("projectpop", 120);
    config.seed = seed;
    config.num_exec_threads = threads;
    return runner.runAggregation(config, approx,
                                 apps::ProjectPopularity::mapperFactory(),
                                 apps::ProjectPopularity::kOp);
}

TEST(ParallelDeterminismTest, SampledAndDroppedJobIdenticalAt1And8Threads)
{
    auto log = accessLog(160, 120, 7);
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.25;
    approx.drop_ratio = 0.4;
    mr::JobResult serial = runProjectPop(*log, approx, 1, 1234);
    mr::JobResult parallel = runProjectPop(*log, approx, 8, 1234);
    EXPECT_GT(serial.counters.maps_dropped, 0u);
    EXPECT_LT(serial.counters.items_processed, serial.counters.items_total);
    expectIdentical(serial, parallel);
}

TEST(ParallelDeterminismTest, TargetErrorControllerDecisionsUnaffected)
{
    // The controller observes live estimates mid-job and kills/drops maps
    // when the bound is met; its decision points depend on the shuffle
    // order, which must not depend on host threads.
    auto log = accessLog(120, 120, 11);
    core::ApproxConfig approx;
    approx.target_relative_error = 0.10;
    approx.pilot.enabled = true;
    approx.pilot.maps = 40;
    approx.pilot.sampling_ratio = 0.05;
    mr::JobResult serial = runProjectPop(*log, approx, 1, 99);
    mr::JobResult parallel = runProjectPop(*log, approx, 8, 99);
    expectIdentical(serial, parallel);
}

TEST(ParallelDeterminismTest, MomentsCombinerIdenticalUnderParallelism)
{
    // The combiner runs on worker threads in parallel mode; with the
    // moments-preserving combiner the bounds must stay bit-identical to
    // both the serial run and the uncombined shuffle.
    workloads::WikiDumpParams params;
    params.num_blocks = 60;
    params.articles_per_block = 50;
    params.seed = 3;
    auto dump = workloads::makeWikiDump(params);
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.5;
    approx.drop_ratio = 0.2;

    auto run = [&](uint32_t threads, bool combine) {
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 5);
        core::ApproxJobRunner runner(cluster, *dump, nn);
        mr::JobConfig config = apps::WikiLength::jobConfig(50);
        config.seed = 21;
        config.num_exec_threads = threads;
        return runner.runAggregation(config, approx,
                                     apps::WikiLength::mapperFactory(),
                                     apps::WikiLength::kOp, combine);
    };
    mr::JobResult serial = run(1, true);
    mr::JobResult parallel = run(8, true);
    mr::JobResult uncombined = run(8, false);
    expectIdentical(serial, parallel);
    // Combining shrinks the shuffle (and with it reduce time), but the
    // estimates and bounds must not move.
    EXPECT_LT(parallel.counters.records_shuffled,
              uncombined.counters.records_shuffled);
    expectSameEstimates(uncombined, parallel);
}

TEST(ParallelDeterminismTest, MultiReducerCombineAndPartitionIdentical)
{
    // Map-side interning, combining and partitioning across three
    // reducers all run on pool workers; the controller then reads every
    // reducer's keys. None of it may depend on host threads.
    auto log = accessLog(400, 80, 23);
    core::ApproxConfig approx;
    approx.target_relative_error = 0.05;
    auto run = [&](uint32_t threads) {
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 8);
        core::ApproxJobRunner runner(cluster, *log, nn);
        mr::JobConfig config = apps::logProcessingConfig("pagepop", 80, 3);
        config.seed = 31;
        config.num_exec_threads = threads;
        return runner.runAggregation(config, approx,
                                     apps::PagePopularity::mapperFactory(),
                                     apps::PagePopularity::kOp,
                                     /*use_moments_combiner=*/true);
    };
    mr::JobResult serial = run(1);
    mr::JobResult parallel = run(8);
    EXPECT_GT(serial.output.size(), 3u);
    EXPECT_GT(serial.counters.maps_dropped, 0u);
    expectIdentical(serial, parallel);
}

TEST(ParallelDeterminismTest, ThreadCountSweepAllIdentical)
{
    auto log = accessLog(80, 100, 17);
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.5;
    mr::JobResult reference = runProjectPop(*log, approx, 1, 5);
    for (uint32_t threads : {2u, 3u, 8u}) {
        SCOPED_TRACE(threads);
        mr::JobResult run = runProjectPop(*log, approx, threads, 5);
        expectIdentical(reference, run);
    }
}

}  // namespace
}  // namespace approxhadoop
