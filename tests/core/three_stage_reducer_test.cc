#include "core/three_stage_reducer.h"

#include <gtest/gtest.h>

#include "support/key_value.h"

namespace approxhadoop::core {
namespace {

mr::MapOutputChunk
unitChunk(uint64_t task, uint64_t items_total, uint64_t items_processed,
          std::vector<mr::KeyValue> unit_records)
{
    mr::MapOutputChunk c;
    c.map_task = task;
    c.items_total = items_total;
    c.items_processed = items_processed;
    mr::setRecords(c, unit_records);
    return c;
}

mr::KeyValue
unit(const std::string& key, double sum, double sum_sq, double k_total,
     double k_sampled)
{
    return mr::KeyValue{key, sum, sum_sq, k_total, k_sampled};
}

TEST(ThreeStageEmitterTest, PacksUnitRecord)
{
    mr::MapContext ctx(0, 10, 10, false, Rng(1));
    ThreeStageEmitter::emitUnit(ctx, "w", 5, 3, 7.5, 21.0);
    ASSERT_EQ(ctx.output().size(), 1u);
    const mr::KeyValue kv = mr::keyValues(ctx.output())[0];
    EXPECT_EQ(kv.key, "w");
    EXPECT_DOUBLE_EQ(kv.value, 7.5);
    EXPECT_DOUBLE_EQ(kv.value2, 21.0);
    EXPECT_DOUBLE_EQ(kv.value3, 5.0);
    EXPECT_DOUBLE_EQ(kv.value4, 3.0);
}

TEST(ThreeStageSamplingReducerTest, FullCensusSum)
{
    ThreeStageSamplingReducer r(ThreeStageSamplingReducer::Op::kSum, 0.95);
    // Cluster 0: 2 units fully observed.
    r.consume(unitChunk(0, 2, 2,
                        {unit("w", 3.0, 5.0, 2, 2),
                         unit("w", 12.0, 50.0, 3, 3)}));
    // Cluster 1: 1 unit fully observed.
    r.consume(unitChunk(1, 1, 1, {unit("w", 13.0, 85.0, 2, 2)}));
    mr::ReduceContext ctx(2, 3);
    r.finalize(ctx);
    ASSERT_EQ(ctx.output().size(), 1u);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 28.0);
    EXPECT_NEAR(ctx.output()[0].errorBound(), 0.0, 1e-9);
}

TEST(ThreeStageSamplingReducerTest, AverageOfConstantSubunits)
{
    ThreeStageSamplingReducer r(ThreeStageSamplingReducer::Op::kAverage,
                                0.95);
    for (uint64_t t = 0; t < 3; ++t) {
        r.consume(unitChunk(t, 2, 2,
                            {unit("w", 10.0, 50.0, 2, 2),
                             unit("w", 15.0, 75.0, 3, 3)}));
    }
    mr::ReduceContext ctx(3, 6);
    r.finalize(ctx);
    // All subunits have value 5 -> average is exactly 5.
    EXPECT_NEAR(ctx.output()[0].value, 5.0, 1e-12);
}

TEST(ThreeStageSamplingReducerTest, MissingUnitsCountAsZero)
{
    // items_processed = 4 but only 1 unit emitted: the other 3 sampled
    // units produced no subunits and must dilute the cluster estimate.
    ThreeStageSamplingReducer r(ThreeStageSamplingReducer::Op::kSum, 0.95);
    r.consume(unitChunk(0, 8, 4, {unit("w", 4.0, 16.0, 1, 1)}));
    r.consume(unitChunk(1, 8, 4, {unit("w", 4.0, 16.0, 1, 1)}));
    auto est = r.currentEstimates(2);
    ASSERT_EQ(est.size(), 1u);
    // Per cluster: (8/4) * 4 = 8; two clusters, N = n = 2 -> 16.
    EXPECT_DOUBLE_EQ(est[0].value, 16.0);
}

TEST(ThreeStageSamplingReducerTest, SubunitSamplingScalesUp)
{
    ThreeStageSamplingReducer r(ThreeStageSamplingReducer::Op::kSum, 0.95);
    // One unit with 10 subunits, 2 sampled summing to 6 -> unit total 30.
    r.consume(unitChunk(0, 1, 1, {unit("w", 6.0, 20.0, 10, 2)}));
    r.consume(unitChunk(1, 1, 1, {unit("w", 6.0, 20.0, 10, 2)}));
    auto est = r.currentEstimates(2);
    EXPECT_DOUBLE_EQ(est[0].value, 60.0);
    // Subunit sampling leaves residual variance -> nonzero bound.
    EXPECT_GT(est[0].error_bound, 0.0);
}

TEST(ThreeStageSamplingReducerTest, TracksMultipleKeysIndependently)
{
    ThreeStageSamplingReducer r(ThreeStageSamplingReducer::Op::kSum, 0.95);
    r.consume(unitChunk(0, 1, 1, {unit("a", 1.0, 1.0, 1, 1)}));
    r.consume(unitChunk(1, 1, 1, {unit("b", 2.0, 4.0, 1, 1)}));
    mr::ReduceContext ctx(2, 2);
    r.finalize(ctx);
    auto by_key = std::map<std::string, double>();
    for (const auto& rec : ctx.output()) {
        by_key[rec.key] = rec.value;
    }
    // Each key was seen in only one of the two clusters; the estimator
    // treats the other cluster as zero: N/n * sum = 1 * value each.
    EXPECT_DOUBLE_EQ(by_key["a"], 1.0);
    EXPECT_DOUBLE_EQ(by_key["b"], 2.0);
}

}  // namespace
}  // namespace approxhadoop::core
