/**
 * @file
 * Fault-injection integration tests (src/ft/ + mapreduce + stats):
 *
 *  - Retry mode reproduces the exact fault-free output;
 *  - estimates and confidence intervals are bit-identical across host
 *    thread counts under an active fault plan;
 *  - Absorb mode widens the CI exactly as dropping the same clusters
 *    would (verified against the two-stage estimator directly);
 *  - target-error jobs absorb failures without re-running them and the
 *    reported CI covers the precise answer;
 *  - server crashes fail over to the surviving servers;
 *  - injected stragglers trigger speculative execution.
 *
 * The "FaultRecovery" test-name prefix is matched by the TSan CI job.
 */
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx_config.h"
#include "core/approx_input_format.h"
#include "core/approx_job.h"
#include "core/target_error_controller.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"
#include "stats/two_stage.h"

namespace approxhadoop {
namespace {

constexpr uint64_t kBlocks = 60;
constexpr uint64_t kItemsPerBlock = 20;

/** Item value: small integers so sums are exact in any order. */
double
itemValue(uint64_t flat_index)
{
    return static_cast<double>(flat_index % 7 + 1);
}

std::vector<std::string>
records()
{
    std::vector<std::string> recs;
    recs.reserve(kBlocks * kItemsPerBlock);
    for (uint64_t i = 0; i < kBlocks * kItemsPerBlock; ++i) {
        recs.push_back(std::to_string(itemValue(i)));
    }
    return recs;
}

class ValueMapper : public mr::Mapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        ctx.write("total", std::atof(record.c_str()));
    }
};

mr::Job::MapperFactory
valueMapperFactory()
{
    return [] { return std::make_unique<ValueMapper>(); };
}

mr::JobConfig
baseConfig()
{
    mr::JobConfig config;
    config.name = "fault-recovery-test";
    config.map_cost.t0 = 10.0;
    config.map_cost.noise_sigma = 0.2;
    config.seed = 42;
    return config;
}

struct AggSpec
{
    std::string fault_plan;
    ft::FailureMode mode = ft::FailureMode::kRetry;
    double sampling = 1.0;
    uint32_t threads = 1;
    uint32_t max_attempts = 4;
    std::optional<double> target;
    uint64_t checkpoint_interval = 8;
};

mr::JobResult
runAggregation(const AggSpec& spec)
{
    hdfs::InMemoryDataset data(records(), kItemsPerBlock);
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 7);
    core::ApproxJobRunner runner(cluster, data, nn);
    mr::JobConfig config = baseConfig();
    config.fault_plan = ft::FaultPlan::parse(spec.fault_plan);
    config.failure_mode = spec.mode;
    config.num_exec_threads = spec.threads;
    config.recovery.max_attempts = spec.max_attempts;
    config.reducer_checkpoint_interval = spec.checkpoint_interval;
    core::ApproxConfig approx;
    approx.sampling_ratio = spec.sampling;
    approx.target_relative_error = spec.target;
    return runner.runAggregation(config, approx, valueMapperFactory(),
                                 core::MultiStageSamplingReducer::Op::kSum);
}

double
preciseTotal()
{
    double total = 0.0;
    for (uint64_t i = 0; i < kBlocks * kItemsPerBlock; ++i) {
        total += itemValue(i);
    }
    return total;
}

TEST(FaultRecoveryTest, RetryReproducesExactFaultFreeOutput)
{
    AggSpec clean;
    mr::JobResult fault_free = runAggregation(clean);

    AggSpec faulted;
    faulted.fault_plan = "crash=0.4";
    // The point here is exact output reproduction, not job failure:
    // give unlucky tasks enough attempts to eventually succeed.
    faulted.max_attempts = 20;
    mr::JobResult recovered = runAggregation(faulted);

    EXPECT_GT(recovered.counters.map_attempts_failed, 0u);
    EXPECT_GT(recovered.counters.maps_retried, 0u);
    EXPECT_EQ(recovered.counters.maps_completed, kBlocks);

    auto want = fault_free.toMap();
    auto got = recovered.toMap();
    ASSERT_EQ(want.size(), got.size());
    for (const auto& [key, rec] : want) {
        const mr::OutputRecord& r = got.at(key);
        EXPECT_EQ(rec.value, r.value) << key;
        EXPECT_EQ(rec.errorBound(), r.errorBound()) << key;
    }
    // Full completion at full sampling: the CI is exactly zero-width.
    EXPECT_EQ(got.at("total").errorBound(), 0.0);
    EXPECT_EQ(got.at("total").value, preciseTotal());
}

TEST(FaultRecoveryTest, EstimatesBitIdenticalAcrossThreadCounts)
{
    for (ft::FailureMode mode :
         {ft::FailureMode::kRetry, ft::FailureMode::kAbsorb}) {
        AggSpec one;
        one.fault_plan = "crash=0.3,straggler=0.1:6,server=2@40+30,seed=5";
        one.mode = mode;
        one.sampling = 0.5;
        one.threads = 1;
        AggSpec eight = one;
        eight.threads = 8;

        mr::JobResult serial = runAggregation(one);
        mr::JobResult parallel = runAggregation(eight);

        EXPECT_EQ(serial.runtime, parallel.runtime);
        EXPECT_EQ(serial.counters.maps_completed,
                  parallel.counters.maps_completed);
        EXPECT_EQ(serial.counters.maps_absorbed,
                  parallel.counters.maps_absorbed);
        EXPECT_EQ(serial.counters.maps_retried,
                  parallel.counters.maps_retried);
        EXPECT_EQ(serial.counters.map_attempts_failed,
                  parallel.counters.map_attempts_failed);
        EXPECT_EQ(serial.counters.server_crashes,
                  parallel.counters.server_crashes);
        EXPECT_EQ(serial.counters.records_shuffled,
                  parallel.counters.records_shuffled);
        EXPECT_GT(serial.counters.server_crashes, 0u);

        auto a = serial.toMap();
        auto b = parallel.toMap();
        ASSERT_EQ(a.size(), b.size());
        for (const auto& [key, rec] : a) {
            const mr::OutputRecord& r = b.at(key);
            // Bit-identical estimates and CI endpoints.
            EXPECT_EQ(rec.value, r.value) << key;
            EXPECT_EQ(rec.lower, r.lower) << key;
            EXPECT_EQ(rec.upper, r.upper) << key;
        }
    }
}

TEST(FaultRecoveryTest, AbsorbWidensBoundExactlyLikeDropping)
{
    AggSpec spec;
    spec.fault_plan = "crash=0.3";
    spec.mode = ft::FailureMode::kAbsorb;
    mr::JobResult result = runAggregation(spec);

    EXPECT_EQ(result.counters.maps_retried, 0u);
    ASSERT_GT(result.counters.maps_absorbed, 0u);
    EXPECT_EQ(result.counters.maps_completed +
                  result.counters.maps_absorbed,
              kBlocks);

    // Recompute the estimate directly: absorbed tasks are exactly
    // removed clusters, so feeding only the *completed* clusters to the
    // two-stage estimator must reproduce the job's estimate and CI.
    std::vector<stats::ClusterSample> clusters;
    for (const mr::MapTaskInfo& task : result.tasks) {
        if (task.state != mr::TaskState::kCompleted) {
            EXPECT_EQ(task.state, mr::TaskState::kAbsorbed);
            continue;
        }
        stats::ClusterSample c;
        c.units_total = kItemsPerBlock;
        c.units_sampled = kItemsPerBlock;
        for (uint64_t i = 0; i < kItemsPerBlock; ++i) {
            double v = itemValue(task.task_id * kItemsPerBlock + i);
            ++c.emitted;
            c.sum += v;
            c.sum_squares += v * v;
        }
        clusters.push_back(c);
    }
    stats::Estimate direct =
        stats::TwoStageEstimator::estimateSum(clusters, kBlocks, 0.95);

    const mr::OutputRecord* rec = result.find("total");
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(rec->has_bound);
    EXPECT_GT(rec->errorBound(), 0.0);  // clusters lost -> CI widened
    EXPECT_NEAR(rec->value, direct.value, 1e-9 * std::abs(direct.value));
    EXPECT_NEAR(rec->errorBound(), direct.error_bound,
                1e-9 * direct.error_bound);
    EXPECT_EQ(direct.clusters_sampled, result.counters.maps_completed);
}

TEST(FaultRecoveryTest, AbsorbMeetsTargetWithoutRerunningFailures)
{
    AggSpec spec;
    spec.fault_plan = "crash=0.2";
    spec.mode = ft::FailureMode::kAbsorb;
    spec.target = 0.1;
    mr::JobResult result = runAggregation(spec);

    // No failed map was ever re-executed...
    EXPECT_EQ(result.counters.maps_retried, 0u);
    // ...yet the job finished with a CI covering the precise answer.
    const mr::OutputRecord* rec = result.find("total");
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(rec->has_bound);
    EXPECT_LE(std::abs(rec->value - preciseTotal()), rec->errorBound());
}

TEST(FaultRecoveryTest, AutoModeCompletesTargetJobUnderFaults)
{
    AggSpec spec;
    spec.fault_plan = "crash=0.25,seed=3";
    spec.mode = ft::FailureMode::kAuto;
    spec.target = 0.1;
    mr::JobResult result = runAggregation(spec);

    const mr::Counters& c = result.counters;
    EXPECT_EQ(c.maps_completed + c.maps_absorbed + c.maps_dropped +
                  c.maps_killed,
              kBlocks);
    const mr::OutputRecord* rec = result.find("total");
    ASSERT_NE(rec, nullptr);
    EXPECT_LE(std::abs(rec->value - preciseTotal()), rec->errorBound());
}

TEST(FaultRecoveryTest, ReducerRecoveryBitIdenticalToFaultFree)
{
    // A crashed reduce attempt restores its last checkpoint and replays
    // the retained chunks; because checkpoint/restore round-trips the
    // estimator state bit-exactly and replay re-applies the identical
    // consume sequence, the recovered output must equal the fault-free
    // one bit for bit — at any host thread count.
    AggSpec clean;
    clean.sampling = 0.5;
    mr::JobResult fault_free = runAggregation(clean);
    EXPECT_EQ(fault_free.counters.reduce_attempts_failed, 0u);

    for (uint32_t threads : {1u, 8u}) {
        AggSpec faulted = clean;
        faulted.fault_plan = "rcrash=0.9,seed=11";
        faulted.threads = threads;
        faulted.checkpoint_interval = 5;
        mr::JobResult recovered = runAggregation(faulted);

        EXPECT_GT(recovered.counters.reduce_attempts_failed, 0u)
            << threads << " threads";
        EXPECT_GT(recovered.counters.chunks_replayed, 0u);
        EXPECT_GT(recovered.counters.reducer_checkpoints, 0u);
        // Replays never recount shuffle traffic.
        EXPECT_EQ(recovered.counters.records_shuffled,
                  fault_free.counters.records_shuffled);

        auto want = fault_free.toMap();
        auto got = recovered.toMap();
        ASSERT_EQ(want.size(), got.size());
        for (const auto& [key, rec] : want) {
            const mr::OutputRecord& r = got.at(key);
            EXPECT_EQ(rec.value, r.value) << key << " @" << threads;
            EXPECT_EQ(rec.lower, r.lower) << key << " @" << threads;
            EXPECT_EQ(rec.upper, r.upper) << key << " @" << threads;
        }
    }
}

TEST(FaultRecoveryTest, CorruptionAbsorbMatchesDroppedClusterEstimator)
{
    // A chunk whose checksum verification keeps failing loses the map
    // output; in absorb mode the producing task is reclassified as a
    // dropped cluster. The job's estimate must therefore match the
    // two-stage estimator fed only the completed clusters — corruption
    // and dropping are statistically the same removal.
    AggSpec spec;
    spec.fault_plan = "corrupt=0.6";
    spec.mode = ft::FailureMode::kAbsorb;
    mr::JobResult result = runAggregation(spec);

    EXPECT_GT(result.counters.chunks_corrupted, 0u);
    EXPECT_GT(result.counters.chunk_refetches, 0u);
    ASSERT_GT(result.counters.map_outputs_lost, 0u);
    EXPECT_EQ(result.counters.map_outputs_lost,
              result.counters.maps_absorbed);
    EXPECT_EQ(result.counters.maps_retried, 0u);
    EXPECT_EQ(result.counters.maps_completed +
                  result.counters.maps_absorbed,
              kBlocks);

    std::vector<stats::ClusterSample> clusters;
    for (const mr::MapTaskInfo& task : result.tasks) {
        if (task.state != mr::TaskState::kCompleted) {
            EXPECT_EQ(task.state, mr::TaskState::kAbsorbed);
            continue;
        }
        stats::ClusterSample c;
        c.units_total = kItemsPerBlock;
        c.units_sampled = kItemsPerBlock;
        for (uint64_t i = 0; i < kItemsPerBlock; ++i) {
            double v = itemValue(task.task_id * kItemsPerBlock + i);
            ++c.emitted;
            c.sum += v;
            c.sum_squares += v * v;
        }
        clusters.push_back(c);
    }
    stats::Estimate direct =
        stats::TwoStageEstimator::estimateSum(clusters, kBlocks, 0.95);

    const mr::OutputRecord* rec = result.find("total");
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(rec->has_bound);
    EXPECT_GT(rec->errorBound(), 0.0);
    EXPECT_NEAR(rec->value, direct.value, 1e-9 * std::abs(direct.value));
    EXPECT_NEAR(rec->errorBound(), direct.error_bound,
                1e-9 * direct.error_bound);
    EXPECT_EQ(direct.clusters_sampled, result.counters.maps_completed);
}

TEST(FaultRecoveryTest, CorruptionRetryReproducesExactOutput)
{
    // In retry mode a lost map output re-executes the producing task;
    // the refetched chunks verify clean and the final output is exactly
    // the fault-free one.
    AggSpec clean;
    mr::JobResult fault_free = runAggregation(clean);

    AggSpec faulted;
    faulted.fault_plan = "corrupt=0.5";
    faulted.max_attempts = 30;
    mr::JobResult recovered = runAggregation(faulted);

    EXPECT_GT(recovered.counters.map_outputs_lost, 0u);
    EXPECT_EQ(recovered.counters.maps_completed, kBlocks);
    auto want = fault_free.toMap();
    auto got = recovered.toMap();
    ASSERT_EQ(want.size(), got.size());
    for (const auto& [key, rec] : want) {
        EXPECT_EQ(rec.value, got.at(key).value) << key;
        EXPECT_EQ(rec.errorBound(), got.at(key).errorBound()) << key;
    }
}

TEST(FaultRecoveryTest, BadRecordsFoldIntoSamplingVariance)
{
    AggSpec spec;
    spec.fault_plan = "badrec=0.15";
    mr::JobResult result = runAggregation(spec);

    EXPECT_GT(result.counters.bad_records_skipped, 0u);
    EXPECT_EQ(result.counters.maps_completed, kBlocks);
    // Skipped records shrink m_i below M_i...
    uint64_t processed = 0;
    uint64_t skipped = 0;
    for (const mr::MapTaskInfo& task : result.tasks) {
        EXPECT_EQ(task.items_processed + task.records_skipped,
                  kItemsPerBlock)
            << "task " << task.task_id;
        processed += task.items_processed;
        skipped += task.records_skipped;
    }
    EXPECT_EQ(skipped, result.counters.bad_records_skipped);
    EXPECT_LT(processed, kBlocks * kItemsPerBlock);
    // ...which turns the zero-width full-sampling CI into a real one
    // via the within-cluster variance term M(M-m)s^2/m.
    const mr::OutputRecord* rec = result.find("total");
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(rec->has_bound);
    EXPECT_GT(rec->errorBound(), 0.0);
    EXPECT_LE(std::abs(rec->value - preciseTotal()), rec->errorBound());
}

// --- plain-Job scenarios (no approximation layer) --------------------------

class OneMapper : public mr::Mapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        ctx.write(record, 1.0);
    }
};

mr::JobResult
runPlainJob(mr::JobConfig config, int blocks = 40)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 7);
    std::vector<std::string> recs(blocks, "k");
    hdfs::InMemoryDataset ds(recs, 1);
    mr::Job job(cluster, ds, nn, std::move(config));
    job.setMapperFactory([] { return std::make_unique<OneMapper>(); });
    job.setReducerFactory([] { return std::make_unique<mr::SumReducer>(); });
    return job.run();
}

TEST(FaultRecoveryTest, ServerCrashFailsOverToSurvivors)
{
    mr::JobConfig config = baseConfig();
    config.fault_plan = ft::FaultPlan::parse("server=1@5");
    mr::JobResult result = runPlainJob(config);
    EXPECT_EQ(result.counters.server_crashes, 1u);
    EXPECT_GT(result.counters.map_attempts_failed, 0u);
    // Every task still completes, re-run on the surviving servers.
    EXPECT_EQ(result.counters.maps_completed, 40u);
    EXPECT_DOUBLE_EQ(result.find("k")->value, 40.0);
}

TEST(FaultRecoveryTest, RepairedServerRejoinsTheCluster)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 7);
    std::vector<std::string> recs(40, "k");
    hdfs::InMemoryDataset ds(recs, 1);
    mr::JobConfig config = baseConfig();
    config.fault_plan = ft::FaultPlan::parse("server=1@5+20");
    mr::Job job(cluster, ds, nn, config);
    job.setMapperFactory([] { return std::make_unique<OneMapper>(); });
    job.setReducerFactory([] { return std::make_unique<mr::SumReducer>(); });
    mr::JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_completed, 40u);
    EXPECT_EQ(cluster.server(1).state(), sim::ServerState::kActive);
}

TEST(FaultRecoveryTest, InjectedStragglersTriggerSpeculation)
{
    mr::JobConfig config = baseConfig();
    config.map_cost.noise_sigma = 0.0;
    config.fault_plan = ft::FaultPlan::parse("straggler=0.12:10");
    config.speculation = true;
    config.speculation_threshold = 1.3;
    mr::JobResult faulted = runPlainJob(config);
    EXPECT_GT(faulted.counters.maps_speculated, 0u);
    EXPECT_EQ(faulted.counters.maps_completed, 40u);
    EXPECT_DOUBLE_EQ(faulted.find("k")->value, 40.0);
}

TEST(FaultRecoveryTest, RetryModeFailsJobWhenAttemptsExhausted)
{
    mr::JobConfig config = baseConfig();
    config.fault_plan = ft::FaultPlan::parse("crash=1");
    config.failure_mode = ft::FailureMode::kRetry;
    EXPECT_THROW(runPlainJob(config), std::runtime_error);
}

TEST(FaultRecoveryTest, RetryExhaustionCountersConserveAtAnyThreadCount)
{
    // A failed job tears down through the same kill/drop paths as any
    // other: the counters JobFailedError carries account for every task
    // and attempt, identically at any thread count.
    std::vector<std::string> counters;
    for (uint32_t threads : {1u, 4u}) {
        AggSpec spec;
        spec.fault_plan = "crash=1";
        spec.max_attempts = 2;
        spec.threads = threads;
        try {
            runAggregation(spec);
            ADD_FAILURE() << "job survived at " << threads << " threads";
        } catch (const mr::JobFailedError& e) {
            EXPECT_STREQ(e.what(), "map task 0 failed 2 attempts (max_attempts exhausted)");
            EXPECT_EQ(e.counters.conservationViolation(1), "");
            counters.push_back(e.counters.serialize());
        }
    }
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0], counters[1]);
}

TEST(FaultRecoveryTest, HeadlessAutoAbsorbsWhenRetriesKeepFailing)
{
    mr::JobConfig config = baseConfig();
    config.fault_plan = ft::FaultPlan::parse("crash=1");
    config.failure_mode = ft::FailureMode::kAuto;
    mr::JobResult result = runPlainJob(config);
    // Nothing can ever complete; every task ends absorbed (the first
    // quarter under the auto cap, the rest after exhausting attempts).
    EXPECT_EQ(result.counters.maps_completed, 0u);
    EXPECT_EQ(result.counters.maps_absorbed, 40u);
    EXPECT_TRUE(result.output.empty());
}

// --- heartbeat-based failure detection --------------------------------------

TEST(FaultRecoveryTest, HeartbeatTimeoutDelaysCrashDetection)
{
    // Crashed attempts are only declared dead once the expiry timer
    // fires, so the same fault plan takes longer end to end when the
    // task timeout grows — and the waiting time is accounted.
    auto runWithTimeout = [](double timeout_ms) {
        mr::JobConfig config = baseConfig();
        config.fault_plan = ft::FaultPlan::parse("crash=0.4");
        config.failure_mode = ft::FailureMode::kRetry;
        config.recovery.max_attempts = 30;
        config.heartbeat_interval_ms = 500.0;
        config.task_timeout_ms = timeout_ms;
        return runPlainJob(config);
    };

    mr::JobResult oracle = runWithTimeout(0.0);  // instantaneous
    mr::JobResult fast = runWithTimeout(2000.0);
    mr::JobResult slow = runWithTimeout(60000.0);

    // Identical faults, identical recovered output in all three runs.
    for (const mr::JobResult* r : {&oracle, &fast, &slow}) {
        EXPECT_EQ(r->counters.maps_completed, 40u);
        EXPECT_DOUBLE_EQ(r->find("k")->value, 40.0);
        EXPECT_GT(r->counters.map_attempts_failed, 0u);
    }
    EXPECT_EQ(oracle.counters.timeouts_detected, 0u);
    EXPECT_EQ(oracle.counters.detection_wait_seconds, 0.0);
    EXPECT_GT(fast.counters.timeouts_detected, 0u);
    EXPECT_GT(slow.counters.detection_wait_seconds,
              fast.counters.detection_wait_seconds);
    // Detection latency is visible end to end.
    EXPECT_GT(fast.runtime, oracle.runtime);
    EXPECT_GT(slow.runtime, fast.runtime);
}

TEST(FaultRecoveryTest, ServerCrashDetectionWaitsForTimeout)
{
    auto runServerCrash = [](double timeout_ms) {
        mr::JobConfig config = baseConfig();
        config.fault_plan = ft::FaultPlan::parse("server=1@5");
        config.heartbeat_interval_ms = 500.0;
        config.task_timeout_ms = timeout_ms;
        return runPlainJob(config);
    };
    mr::JobResult oracle = runServerCrash(0.0);
    mr::JobResult delayed = runServerCrash(20000.0);
    for (const mr::JobResult* r : {&oracle, &delayed}) {
        EXPECT_EQ(r->counters.server_crashes, 1u);
        EXPECT_EQ(r->counters.maps_completed, 40u);
        EXPECT_DOUBLE_EQ(r->find("k")->value, 40.0);
    }
    EXPECT_EQ(oracle.counters.timeouts_detected, 0u);
    EXPECT_GT(delayed.counters.timeouts_detected, 0u);
    EXPECT_GT(delayed.runtime, oracle.runtime);
}

TEST(FaultRecoveryTest, ControllerPredictionsAccountForDetectionLatency)
{
    // The target-error optimizer folds expected failure overhead —
    // p/(1-p) * (detection latency + retry backoff) — into its
    // remaining-execution-time objective; a larger task timeout must
    // surface as a larger per-map overhead in the applied plan.
    // High between-cluster variance plus a tight target force the
    // controller to keep planning until almost every cluster is in —
    // well past the point where heartbeat timeouts have exposed the
    // attempt failure rate — instead of meeting the target at the
    // first-wave gate and dropping the tail before any crash is even
    // detected.
    auto overheadWithTimeout = [](double timeout_ms) {
        constexpr uint64_t kCtlBlocks = 200;
        std::vector<std::string> recs;
        for (uint64_t b = 0; b < kCtlBlocks; ++b) {
            for (uint64_t i = 0; i < kItemsPerBlock; ++i) {
                recs.push_back(std::to_string(b % 13 + 1));
            }
        }
        hdfs::InMemoryDataset data(recs, kItemsPerBlock);
        sim::ClusterConfig cc;
        cc.num_servers = 4;
        cc.map_slots_per_server = 4;  // 16 slots -> several waves
        sim::Cluster cluster(cc);
        hdfs::NameNode nn(cluster.numServers(), 3, 7);

        auto reducer = std::make_unique<core::MultiStageSamplingReducer>(
            core::MultiStageSamplingReducer::Op::kSum, 0.95);
        core::MultiStageSamplingReducer* raw = reducer.get();
        core::ApproxConfig approx;
        approx.target_relative_error = 0.01;
        approx.decision_interval = 1;
        core::TargetErrorController controller(approx, {raw});

        mr::JobConfig config = baseConfig();
        config.fault_plan = ft::FaultPlan::parse("crash=0.3,seed=2");
        config.failure_mode = ft::FailureMode::kAuto;
        config.recovery.max_attempts = 30;
        config.heartbeat_interval_ms = 1000.0;
        config.task_timeout_ms = timeout_ms;

        mr::Job job(cluster, data, nn, config);
        job.setMapperFactory(valueMapperFactory());
        bool given = false;
        job.setReducerFactory(
            [&reducer, &given]() -> std::unique_ptr<mr::Reducer> {
                EXPECT_FALSE(given);
                given = true;
                return std::move(reducer);
            });
        job.setInputFormat(std::make_shared<core::ApproxTextInputFormat>());
        job.setController(&controller);
        mr::JobResult result = job.run();
        EXPECT_GT(result.counters.map_attempts_failed, 0u);
        EXPECT_GT(result.counters.timeouts_detected, 0u);
        return controller.lastPlan().failure_overhead;
    };

    double fast = overheadWithTimeout(1000.0);
    double slow = overheadWithTimeout(50000.0);
    EXPECT_GT(fast, 0.0);
    // 50x the detection timeout -> strictly larger predicted overhead
    // (backoff term is shared, detection term scales).
    EXPECT_GT(slow, fast);
    EXPECT_GT(slow - fast, 10.0);  // ~49 s more detection latency * p/(1-p)
}

}  // namespace
}  // namespace approxhadoop
