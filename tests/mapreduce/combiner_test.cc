#include "mapreduce/combiner.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

namespace approxhadoop::mr {
namespace {

std::vector<Row>
records(std::initializer_list<double> values)
{
    std::vector<Row> out;
    for (double v : values) {
        out.push_back({0, v, 0, 0, 0});
    }
    return out;
}

/** @p c's output for one key "k" with @p values. */
RecordWriter
combined(Combiner& c, std::initializer_list<double> values)
{
    std::vector<Row> in = records(values);
    RecordWriter out;
    c.combine("k", in.data(), in.size(), out);
    return out;
}

TEST(SumCombinerTest, FoldsToSingleSum)
{
    SumCombiner c;
    RecordWriter out = combined(c, {1.0, 2.0, 3.0});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.key(out[0]), "k");
    EXPECT_DOUBLE_EQ(out[0].value, 6.0);
    EXPECT_FALSE(c.preservesMoments());
}

TEST(CountCombinerTest, FoldsToCount)
{
    CountCombiner c;
    RecordWriter out = combined(c, {5.0, 5.0, 5.0, 5.0});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].value, 4.0);
}

TEST(MomentsCombinerTest, PacksMoments)
{
    MomentsCombiner c;
    RecordWriter out = combined(c, {1.0, 2.0, 3.0});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].value, 6.0);        // sum
    EXPECT_DOUBLE_EQ(out[0].value2, 14.0);      // sum of squares
    EXPECT_DOUBLE_EQ(out[0].value3, 3.0);       // count
    EXPECT_TRUE(MomentsCombiner::isMomentsRecord(out[0]));
    EXPECT_TRUE(c.preservesMoments());
    // Ordinary records are not mistaken for moments records.
    EXPECT_FALSE(MomentsCombiner::isMomentsRecord({0, 1.0, 2.0, 3.0, 4.0}));
}

class WordMapper : public Mapper
{
  public:
    void
    map(const std::string& record, MapContext& ctx) override
    {
        ctx.write(record, 1.0);
    }
};

TEST(CombinerJobTest, CombinerPreservesPreciseResultAndCutsShuffle)
{
    hdfs::InMemoryDataset ds(std::vector<std::string>(200, "word"), 20);
    auto run_with = [&](bool combine) {
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 1);
        JobConfig config;
        config.map_cost.noise_sigma = 0.0;
        config.speculation = false;
        Job job(cluster, ds, nn, config);
        job.setMapperFactory([] { return std::make_unique<WordMapper>(); });
        job.setReducerFactory(
            [] { return std::make_unique<SumReducer>(); });
        if (combine) {
            job.setCombiner(std::make_shared<SumCombiner>());
        }
        return job.run();
    };
    JobResult plain = run_with(false);
    JobResult combined = run_with(true);
    EXPECT_DOUBLE_EQ(plain.find("word")->value,
                     combined.find("word")->value);
    EXPECT_EQ(plain.counters.records_shuffled, 200u);
    EXPECT_EQ(combined.counters.records_shuffled, 10u);  // one per map
}

TEST(CombinerJobTest, MomentsCombinerKeepsBoundsBitIdentical)
{
    // Records with varying values so within-cluster variance is nonzero;
    // the combined and uncombined executions must produce identical
    // estimates AND identical confidence intervals.
    hdfs::GeneratedDataset ds(24, 50, [](uint64_t b, uint64_t i) {
        return std::to_string(1.0 + ((b * 31 + i * 7) % 13));
    });
    class ValueMapper : public Mapper
    {
      public:
        void
        map(const std::string& record, MapContext& ctx) override
        {
            ctx.write("total", std::stod(record));
        }
    };

    auto run_with = [&](bool combine) {
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 2);
        core::ApproxJobRunner runner(cluster, ds, nn);
        core::ApproxConfig approx;
        approx.sampling_ratio = 0.4;
        approx.drop_ratio = 0.25;
        JobConfig config;
        config.map_cost.noise_sigma = 0.0;
        config.speculation = false;
        return runner.runAggregation(
            config, approx, [] { return std::make_unique<ValueMapper>(); },
            core::MultiStageSamplingReducer::Op::kSum, combine);
    };
    JobResult plain = run_with(false);
    JobResult combined = run_with(true);
    const OutputRecord* p = plain.find("total");
    const OutputRecord* c = combined.find("total");
    ASSERT_NE(p, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(p->value, c->value);
    EXPECT_DOUBLE_EQ(p->lower, c->lower);
    EXPECT_DOUBLE_EQ(p->upper, c->upper);
    EXPECT_LT(combined.counters.records_shuffled,
              plain.counters.records_shuffled);
}

TEST(CombinerJobTest, MomentsCombinerRejectedForAverage)
{
    hdfs::InMemoryDataset ds({{"1.0"}});
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 3);
    core::ApproxJobRunner runner(cluster, ds, nn);
    core::ApproxConfig approx;
    EXPECT_THROW(
        runner.runAggregation(
            JobConfig{}, approx,
            [] { return std::make_unique<WordMapper>(); },
            core::MultiStageSamplingReducer::Op::kAverage, true),
        std::invalid_argument);
}

}  // namespace
}  // namespace approxhadoop::mr
