#include "core/approx_job.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/user_defined.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "integrity/checksum.h"
#include "mapreduce/reducer.h"
#include "sim/cluster.h"

namespace approxhadoop::core {
namespace {

class OneMapper : public mr::Mapper
{
  public:
    void
    map(const std::string&, mr::MapContext& ctx) override
    {
        ctx.write("k", 1.0);
    }
};

class VariantProbeMapper : public UserDefinedApproxMapper
{
  public:
    void
    mapPrecise(const std::string&, mr::MapContext& ctx) override
    {
        ctx.write("precise", 1.0);
    }

    void
    mapApprox(const std::string&, mr::MapContext& ctx) override
    {
        ctx.write("approx", 1.0);
    }
};

mr::JobConfig
fastConfig(uint32_t reducers = 2)
{
    mr::JobConfig config;
    config.num_reducers = reducers;
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.005;
    config.map_cost.t_process = 0.005;
    config.map_cost.noise_sigma = 0.0;
    config.map_cost.straggler_prob = 0.0;
    config.speculation = false;
    return config;
}

hdfs::GeneratedDataset
dataset(uint64_t blocks = 32, uint64_t items = 40)
{
    return hdfs::GeneratedDataset(
        blocks, items, [](uint64_t, uint64_t) { return "x"; });
}

TEST(ApproxJobRunnerTest, PreciseRun)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    auto ds = dataset();
    ApproxJobRunner runner(cluster, ds, nn);
    mr::JobResult result = runner.runPrecise(
        fastConfig(), [] { return std::make_unique<OneMapper>(); },
        [] { return std::make_unique<mr::SumReducer>(); });
    EXPECT_DOUBLE_EQ(result.find("k")->value, 32.0 * 40.0);
}

TEST(ApproxJobRunnerTest, AggregationWithRatiosHasBounds)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 2);
    auto ds = dataset();
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.sampling_ratio = 0.25;
    approx.drop_ratio = 0.25;
    mr::JobResult result = runner.runAggregation(
        fastConfig(), approx, [] { return std::make_unique<OneMapper>(); },
        MultiStageSamplingReducer::Op::kCount);
    const mr::OutputRecord* rec = result.find("k");
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->has_bound);
    // Uniform data: the estimate must be very close to 1280.
    EXPECT_NEAR(rec->value, 1280.0, 100.0);
    EXPECT_EQ(result.counters.maps_dropped, 8u);
    EXPECT_EQ(result.counters.items_processed, 24u * 10u);
}

TEST(ApproxJobRunnerTest, MultipleReducersPartitionKeys)
{
    class MultiKeyMapper : public mr::Mapper
    {
      public:
        void
        map(const std::string&, mr::MapContext& ctx) override
        {
            for (int k = 0; k < 10; ++k) {
                ctx.write("key" + std::to_string(k), 1.0);
            }
        }
    };

    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 3);
    auto ds = dataset(16, 10);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.sampling_ratio = 0.5;
    mr::JobResult result = runner.runAggregation(
        fastConfig(4), approx,
        [] { return std::make_unique<MultiKeyMapper>(); },
        MultiStageSamplingReducer::Op::kCount);
    // All 10 keys survive across the 4 partitions.
    EXPECT_EQ(result.output.size(), 10u);
    for (const auto& rec : result.output) {
        EXPECT_NEAR(rec.value, 160.0, 1.0) << rec.key;
    }
}

TEST(ApproxJobRunnerTest, TargetModeReportsAchievement)
{
    // Multi-wave cluster: 16 slots for 64 maps, so the controller can
    // act after the first wave (single-wave jobs need a pilot).
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 4);
    auto ds = dataset(64, 50);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.target_relative_error = 0.10;
    mr::JobResult result = runner.runAggregation(
        fastConfig(1), approx, [] { return std::make_unique<OneMapper>(); },
        MultiStageSamplingReducer::Op::kCount);
    EXPECT_TRUE(runner.lastTargetAchieved());
    EXPECT_LT(result.counters.maps_completed, 64u);
}

TEST(ApproxJobRunnerTest, PreciseRunResetsTargetAchieved)
{
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 4);
    auto ds = dataset(64, 50);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.target_relative_error = 0.10;
    runner.runAggregation(fastConfig(1), approx,
                          [] { return std::make_unique<OneMapper>(); },
                          MultiStageSamplingReducer::Op::kCount);
    ASSERT_TRUE(runner.lastTargetAchieved());
    runner.runPrecise(
        fastConfig(1), [] { return std::make_unique<OneMapper>(); },
        [] { return std::make_unique<mr::SumReducer>(); });
    EXPECT_FALSE(runner.lastTargetAchieved());
}

TEST(ApproxJobRunnerTest, ThreeStageRejectsSettingsItWouldIgnore)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 8);
    auto ds = dataset();
    ApproxJobRunner runner(cluster, ds, nn);
    auto run = [&](const ApproxConfig& approx) {
        return runner.runThreeStageAggregation(
            fastConfig(1), approx, [] { return std::make_unique<OneMapper>(); },
            ThreeStageSamplingReducer::Op::kSum);
    };
    ApproxConfig target;
    target.target_relative_error = 0.05;
    EXPECT_THROW(run(target), std::invalid_argument);
    ApproxConfig variants;
    variants.user_defined_fraction = 0.5;
    EXPECT_THROW(run(variants), std::invalid_argument);
}

TEST(ApproxJobRunnerTest, RejectsSettingsTheModeWouldIgnore)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 8);
    auto ds = dataset();
    ApproxJobRunner runner(cluster, ds, nn);
    auto aggregation = [&](const ApproxConfig& approx) {
        return runner.runAggregation(
            fastConfig(1), approx, [] { return std::make_unique<OneMapper>(); },
            MultiStageSamplingReducer::Op::kSum);
    };
    auto extreme = [&](const ApproxConfig& approx) {
        return runner.runExtreme(
            fastConfig(1), approx,
            [] { return std::make_unique<OneMapper>(); }, true);
    };
    auto user_defined = [&](const ApproxConfig& approx) {
        return runner.runUserDefined(
            fastConfig(1), approx,
            [] { return std::make_unique<VariantProbeMapper>(); },
            [] { return std::make_unique<mr::SumReducer>(); });
    };

    // A target chooses the sampling and drop ratios itself.
    ApproxConfig target_sampling;
    target_sampling.target_relative_error = 0.05;
    target_sampling.sampling_ratio = 0.5;
    EXPECT_THROW(aggregation(target_sampling), std::invalid_argument);
    ApproxConfig target_drop;
    target_drop.target_relative_error = 0.05;
    target_drop.drop_ratio = 0.3;
    EXPECT_THROW(aggregation(target_drop), std::invalid_argument);
    EXPECT_THROW(extreme(target_drop), std::invalid_argument);

    // Only the aggregation target controller runs a pilot.
    ApproxConfig pilot_ratios;
    pilot_ratios.sampling_ratio = 0.5;
    pilot_ratios.pilot.enabled = true;
    pilot_ratios.pilot.maps = 4;
    EXPECT_THROW(aggregation(pilot_ratios), std::invalid_argument);
    ApproxConfig pilot_extreme;
    pilot_extreme.target_relative_error = 0.05;
    pilot_extreme.pilot.enabled = true;
    pilot_extreme.pilot.maps = 4;
    EXPECT_THROW(extreme(pilot_extreme), std::invalid_argument);
    EXPECT_THROW(user_defined(pilot_ratios), std::invalid_argument);

    // Only user-defined mappers have an approximate variant.
    ApproxConfig variants;
    variants.user_defined_fraction = 0.5;
    EXPECT_THROW(aggregation(variants), std::invalid_argument);
    EXPECT_THROW(extreme(variants), std::invalid_argument);

    // The settings each mode does read still run.
    ApproxConfig pilot_target;
    pilot_target.target_relative_error = 0.05;
    pilot_target.pilot.enabled = true;
    pilot_target.pilot.maps = 4;
    EXPECT_NO_THROW(aggregation(pilot_target));
    ApproxConfig variant_ratios;
    variant_ratios.sampling_ratio = 0.5;
    variant_ratios.user_defined_fraction = 0.5;
    EXPECT_NO_THROW(user_defined(variant_ratios));
}

TEST(ApproxJobRunnerTest, UserDefinedFractionControlsVariantMix)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 5);
    auto ds = dataset(100, 10);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.user_defined_fraction = 0.5;
    mr::JobResult result = runner.runUserDefined(
        fastConfig(1), approx,
        [] { return std::make_unique<VariantProbeMapper>(); },
        [] { return std::make_unique<mr::SumReducer>(); });
    const mr::OutputRecord* precise = result.find("precise");
    const mr::OutputRecord* approx_rec = result.find("approx");
    ASSERT_NE(precise, nullptr);
    ASSERT_NE(approx_rec, nullptr);
    // ~50/50 split of tasks, 10 records each.
    EXPECT_NEAR(precise->value + approx_rec->value, 1000.0, 1e-9);
    EXPECT_GT(approx_rec->value, 250.0);
    EXPECT_LT(approx_rec->value, 750.0);
}

TEST(ApproxJobRunnerTest, ExtremeRunFindsMinimum)
{
    class SeedMinMapper : public mr::Mapper
    {
      public:
        void
        map(const std::string&, mr::MapContext& ctx) override
        {
            Rng rng = ctx.rng();
            double m = 1e18;
            for (int i = 0; i < 25; ++i) {
                m = std::min(m, 10.0 + rng.exponential(0.5));
            }
            ctx.write("min", m);
        }
    };

    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 6);
    auto ds = dataset(120, 1);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.drop_ratio = 0.5;
    mr::JobResult result = runner.runExtreme(
        fastConfig(1), approx,
        [] { return std::make_unique<SeedMinMapper>(); }, true);
    const mr::OutputRecord* rec = result.find("min");
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->value, 5.0);
    EXPECT_LT(rec->value, 13.0);
    EXPECT_EQ(result.counters.maps_dropped, 60u);
}

TEST(ApproxJobRunnerTest, FrameworkOverheadLengthensRuntime)
{
    auto run_with_overhead = [](double overhead) {
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 7);
        auto ds = dataset();
        ApproxJobRunner runner(cluster, ds, nn);
        ApproxConfig approx;
        approx.sampling_ratio = 1.0;  // no approximation, just overhead
        approx.framework_overhead = overhead;
        return runner
            .runAggregation(fastConfig(1), approx,
                            [] { return std::make_unique<OneMapper>(); },
                            MultiStageSamplingReducer::Op::kCount)
            .runtime;
    };
    EXPECT_GT(run_with_overhead(0.12), run_with_overhead(0.0));
}

// --- Per-mode pins ---------------------------------------------------------
//
// Every runner mode on a small fixed workload, pinned to its exact bits:
// the runtime, the serialized counters (by XXH64) and every output
// record's value, lower and upper bound. A refactor of how jobs are
// assembled must leave each of these strings unchanged.

/** Record (b, i) is the integer (31b + 7i) mod 97. */
hdfs::GeneratedDataset
residues(uint64_t blocks, uint64_t items)
{
    return hdfs::GeneratedDataset(blocks, items, [](uint64_t b, uint64_t i) {
        return std::to_string((31 * b + 7 * i) % 97);
    });
}

/** Writes each record's integer under its residue mod 3. */
class ResidueMapper : public mr::Mapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        int v = std::stoi(record);
        ctx.write("r" + std::to_string(v % 3), v);
    }
};

/** Emits each record as a three-stage unit: 2 of 4 subunits observed. */
class ResidueUnitMapper : public mr::Mapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        double v = std::stod(record);
        ThreeStageEmitter::emitUnit(ctx, "u" + record.substr(0, 1), 4, 2, v,
                                    v * v / 2.0 + 1.0);
    }
};

/** One per-task minimum of 25 shifted exponential draws. */
class TaskMinMapper : public mr::Mapper
{
  public:
    void
    map(const std::string&, mr::MapContext& ctx) override
    {
        Rng rng = ctx.rng();
        double m = 1e18;
        for (int i = 0; i < 25; ++i) {
            m = std::min(m, 10.0 + rng.exponential(0.5));
        }
        ctx.write("min", m);
    }
};

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
bits(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return hex(b);
}

/** The bits a mode is pinned to, in one comparable line. */
std::string
signature(const mr::JobResult& result, bool target_achieved)
{
    std::string blob = result.counters.serialize();
    std::string s = "runtime=" + bits(result.runtime) +
                    " counters=" + hex(integrity::hash64(blob.data(),
                                                         blob.size())) +
                    " achieved=" + (target_achieved ? "1" : "0");
    for (const mr::OutputRecord& rec : result.output) {
        s += " " + rec.key + "=" + bits(rec.value) + "/" + bits(rec.lower) +
             "/" + bits(rec.upper);
    }
    return s;
}

/** 4 servers x 4 map slots: a 64-map job runs in four waves, so the
 *  target controllers get to act. */
sim::ClusterConfig
fourWaveCluster()
{
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    return cc;
}

struct ModePin
{
    const char* mode;
    sim::ClusterConfig cluster;
    uint64_t blocks;
    uint64_t items;
    /** Runs the mode; the runner is fresh for every pin. */
    mr::JobResult (*run)(ApproxJobRunner& runner);
    const char* expected;
};

void
PrintTo(const ModePin& pin, std::ostream* os)
{
    *os << pin.mode;
}

ApproxConfig
ratios(double sampling, double drop)
{
    ApproxConfig approx;
    approx.sampling_ratio = sampling;
    approx.drop_ratio = drop;
    return approx;
}

const ModePin kModePins[] = {
    {"precise", sim::ClusterConfig::xeon10(), 32, 40,
     [](ApproxJobRunner& runner) {
         return runner.runPrecise(
             fastConfig(2), [] { return std::make_unique<ResidueMapper>(); },
             [] { return std::make_unique<mr::SumReducer>(); });
     },
     "runtime=40031f3c9fa294e0 counters=4aee098f0500dff1 achieved=0 "
     "r0=40d45a4000000000/40d45a4000000000/40d45a4000000000 "
     "r2=40d3dd8000000000/40d3dd8000000000/40d3dd8000000000 "
     "r1=40d3a2c000000000/40d3a2c000000000/40d3a2c000000000"},
    {"aggregation_ratios", sim::ClusterConfig::xeon10(), 32, 40,
     [](ApproxJobRunner& runner) {
         return runner.runAggregation(
             fastConfig(2), ratios(0.5, 0.25),
             [] { return std::make_unique<ResidueMapper>(); },
             MultiStageSamplingReducer::Op::kSum);
     },
     "runtime=4002b80fd85736b3 counters=101d16fd96c2afa3 achieved=0 "
     "r1=40d4140000000000/40d1aab6a0260dbf/40d67d495fd9f241 "
     "r0=40d2740000000000/40d0370a309202b5/40d4b0f5cf6dfd4b "
     "r2=40d53a0000000000/40d2c494783635a3/40d7af6b87c9ca5d"},
    {"aggregation_average", sim::ClusterConfig::xeon10(), 32, 40,
     [](ApproxJobRunner& runner) {
         return runner.runAggregation(
             fastConfig(3), ratios(0.5, 0.25),
             [] { return std::make_unique<ResidueMapper>(); },
             MultiStageSamplingReducer::Op::kAverage);
     },
     "runtime=4002b80fd85736b3 counters=02e14ba70b918e5a achieved=0 "
     "r0=40464873ecade305/40449b5cb650009e/4047f58b230bc56c "
     "r1=40483ecade304d48/4046b1caa3f28108/4049cbcb186e1988 "
     "r2=4049284bda12f685/404788c6850189d4/404ac7d12f246336"},
    {"aggregation_target_pilot", fourWaveCluster(), 64, 50,
     [](ApproxJobRunner& runner) {
         ApproxConfig approx;
         approx.target_relative_error = 0.10;
         approx.pilot.enabled = true;
         approx.pilot.maps = 4;
         approx.pilot.sampling_ratio = 0.1;
         return runner.runAggregation(
             fastConfig(1), approx,
             [] { return std::make_unique<ResidueMapper>(); },
             MultiStageSamplingReducer::Op::kSum);
     },
     "runtime=401f987d983cba97 counters=aeee1aaa9c00709f achieved=0 "
     "r0=40e96e423cc9543a/40e6dd114d50ff8f/40ebff732c41a8e5 "
     "r1=40e91fc32691cbd1/40e68bbccaa1ca4b/40ebb3c98281cd57 "
     "r2=40e960682df4fd55/40e6db4353ef0faf/40ebe58d07faeafb"},
    {"aggregation_moments_combiner", sim::ClusterConfig::xeon10(), 32, 40,
     [](ApproxJobRunner& runner) {
         return runner.runAggregation(
             fastConfig(2), ratios(0.5, 0.0),
             [] { return std::make_unique<ResidueMapper>(); },
             MultiStageSamplingReducer::Op::kSum, true);
     },
     "runtime=40026c4422e33484 counters=3e44e9a3ab82b82d achieved=0 "
     "r0=40d4088000000000/40d202ed6ef299f2/40d60e12910d660e "
     "r2=40d46a0000000000/40d2639d27bd6694/40d67062d842996c "
     "r1=40d3090000000000/40d111747face167/40d5008b80531e99"},
    {"three_stage", sim::ClusterConfig::xeon10(), 32, 40,
     [](ApproxJobRunner& runner) {
         return runner.runThreeStageAggregation(
             fastConfig(1), ratios(0.5, 0.25),
             [] { return std::make_unique<ResidueUnitMapper>(); },
             ThreeStageSamplingReducer::Op::kSum);
     },
     "runtime=400299dfc7841a5f counters=aa50e9a2c97ba2fa achieved=0 "
     "u0=0000000000000000/c0331c044a1946e2/40331c044a1946e2 "
     "u1=40ab755555555555/40a56d17fcc460f3/40b0bec956f324dc "
     "u2=40b7faaaaaaaaaaa/40b3141d4c5eb166/40bce13808f6a3ee "
     "u3=40c1680000000000/40bbc2bc4f175846/40c4eea1d87453dd "
     "u4=40c7155555555555/40c2a4ed738030b1/40cb85bd372a79f9 "
     "u5=40cedaaaaaaaaaaa/40c8e11caadfc2a0/40d26a1c553ac95a "
     "u6=40d0640000000000/40ca644c36dfe2e2/40d395d9e4900e8f "
     "u7=40d4ceaaaaaaaaaa/40d0dc4129ba49b2/40d8c1142b9b0ba2 "
     "u8=40d5600000000000/40d10f80835bbcc7/40d9b07f7ca44339 "
     "u9=40cfb00000000000/40c7c9770bee4a7f/40d3cb447a08dac0"},
    {"extreme_drop", sim::ClusterConfig::xeon10(), 120, 1,
     [](ApproxJobRunner& runner) {
         return runner.runExtreme(
             fastConfig(1), ratios(1.0, 0.5),
             [] { return std::make_unique<TaskMinMapper>(); }, true);
     },
     "runtime=4000345fb70c9db6 counters=0be8074e1f4a211d achieved=0 "
     "min=4023ee32347605c3/4023e287eb3567c4/4023f9dc7db6a3c2"},
    {"extreme_target", fourWaveCluster(), 64, 1,
     [](ApproxJobRunner& runner) {
         ApproxConfig approx;
         approx.target_relative_error = 0.05;
         return runner.runExtreme(
             fastConfig(1), approx,
             [] { return std::make_unique<TaskMinMapper>(); }, true);
     },
     "runtime=40002e13d14ee66e counters=d9c7cd592339918e achieved=1 "
     "min=4023f9cf92e0aa7e/4023e32aed63582c/40241074385dfcd0"},
    {"user_defined", sim::ClusterConfig::xeon10(), 40, 10,
     [](ApproxJobRunner& runner) {
         ApproxConfig approx = ratios(0.5, 0.2);
         approx.user_defined_fraction = 0.5;
         return runner.runUserDefined(
             fastConfig(1), approx,
             [] { return std::make_unique<VariantProbeMapper>(); },
             [] { return std::make_unique<mr::SumReducer>(); });
     },
     "runtime=4000e7c5d5708fb6 counters=33460a2cea7bdcf9 achieved=0 "
     "approx=4059000000000000/4059000000000000/4059000000000000 "
     "precise=404e000000000000/404e000000000000/404e000000000000"},
};

class ApproxJobRunnerModePinTest : public ::testing::TestWithParam<ModePin>
{
};

TEST_P(ApproxJobRunnerModePinTest, ResultBitsArePinned)
{
    const ModePin& pin = GetParam();
    sim::Cluster cluster(pin.cluster);
    hdfs::NameNode nn(cluster.numServers(), 3, 11);
    auto ds = residues(pin.blocks, pin.items);
    ApproxJobRunner runner(cluster, ds, nn);
    mr::JobResult result = pin.run(runner);
    EXPECT_EQ(signature(result, runner.lastTargetAchieved()), pin.expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, ApproxJobRunnerModePinTest,
                         ::testing::ValuesIn(kModePins),
                         [](const ::testing::TestParamInfo<ModePin>& info) {
                             return std::string(info.param.mode);
                         });

}  // namespace
}  // namespace approxhadoop::core
