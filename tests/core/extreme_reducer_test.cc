#include "core/extreme_reducer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "support/key_value.h"

namespace approxhadoop::core {
namespace {

mr::MapOutputChunk
minChunk(uint64_t task, double value)
{
    mr::MapOutputChunk c;
    c.map_task = task;
    c.items_total = 1;
    c.items_processed = 1;
    mr::setRecords(c, {{"min", value, 0, 0, 0}});
    return c;
}

TEST(ApproxExtremeReducerTest, TooFewValuesFallsBackToObserved)
{
    ApproxMinReducer r;
    r.consume(minChunk(0, 5.0));
    r.consume(minChunk(1, 3.0));
    mr::ReduceContext ctx(2, 2);
    r.finalize(ctx);
    ASSERT_EQ(ctx.output().size(), 1u);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 3.0);
    EXPECT_TRUE(std::isinf(ctx.output()[0].upper));
}

TEST(ApproxExtremeReducerTest, MinEstimateBelowOrAtObserved)
{
    Rng rng(1);
    ApproxMinReducer r;
    double observed_min = 1e18;
    for (uint64_t t = 0; t < 100; ++t) {
        // Each map's value is a minimum of many draws above a floor of 50.
        double m = 1e18;
        for (int i = 0; i < 40; ++i) {
            m = std::min(m, 50.0 + rng.exponential(0.3));
        }
        observed_min = std::min(observed_min, m);
        r.consume(minChunk(t, m));
    }
    stats::ExtremeEstimate est = r.estimateKey("min");
    ASSERT_TRUE(est.ok);
    EXPECT_LE(est.value, observed_min + 1e-9);
    EXPECT_GT(est.value, 40.0);
    EXPECT_LE(est.lower, est.value);
    EXPECT_GE(est.upper, est.value);
}

TEST(ApproxExtremeReducerTest, MaxMirrorsMin)
{
    Rng rng(2);
    ApproxMinReducer mn;
    ApproxMaxReducer mx;
    for (uint64_t t = 0; t < 60; ++t) {
        double v = rng.normal(0.0, 1.0);
        mn.consume(minChunk(t, v));
        mx.consume(minChunk(t, -v));
    }
    stats::ExtremeEstimate min_est = mn.estimateKey("min");
    stats::ExtremeEstimate max_est = mx.estimateKey("min");
    ASSERT_TRUE(min_est.ok);
    ASSERT_TRUE(max_est.ok);
    EXPECT_NEAR(min_est.value, -max_est.value, 1e-6);
}

TEST(ApproxExtremeReducerTest, MoreMapsTightenInterval)
{
    Rng rng(3);
    auto build = [&](int maps) {
        auto r = std::make_unique<ApproxMinReducer>();
        for (int t = 0; t < maps; ++t) {
            double m = 1e18;
            for (int i = 0; i < 30; ++i) {
                m = std::min(m, 100.0 + rng.exponential(0.5));
            }
            r->consume(minChunk(t, m));
        }
        return r;
    };
    auto small = build(15);
    auto large = build(300);
    auto se = small->estimateKey("min");
    auto le = large->estimateKey("min");
    ASSERT_TRUE(se.ok);
    ASSERT_TRUE(le.ok);
    EXPECT_LT(le.upper - le.lower, se.upper - se.lower);
}

TEST(ApproxExtremeReducerTest, RawValuesGoThroughBlockMinima)
{
    // values_are_extremes = false: many raw values per map.
    ApproxExtremeReducer r(true, 0.01, 0.95, false);
    Rng rng(4);
    for (uint64_t t = 0; t < 10; ++t) {
        mr::MapOutputChunk c;
        c.map_task = t;
        c.items_total = 50;
        c.items_processed = 50;
        std::vector<mr::KeyValue> records;
        for (int i = 0; i < 50; ++i) {
            records.push_back({"min", 10.0 + rng.exponential(0.2), 0, 0,
                               0});
        }
        mr::setRecords(c, records);
        r.consume(c);
    }
    stats::ExtremeEstimate est = r.estimateKey("min");
    EXPECT_TRUE(est.ok);
    EXPECT_GT(est.value, 5.0);
    EXPECT_LT(est.value, 15.0);
}

TEST(ApproxExtremeReducerTest, CurrentEstimatesExposeFiniteness)
{
    ApproxMinReducer r;
    r.consume(minChunk(0, 1.0));
    auto est = r.currentEstimates(10);
    ASSERT_EQ(est.size(), 1u);
    EXPECT_FALSE(est[0].finite);
    EXPECT_TRUE(std::isinf(est[0].relativeError()));
    EXPECT_EQ(r.clustersConsumed(), 1u);
}

}  // namespace
}  // namespace approxhadoop::core
