#include "core/sampling_reducer.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/zipf.h"
#include "stats/moments.h"
#include "stats/student_t.h"
#include "stats/two_stage.h"

namespace approxhadoop::core {
namespace {

mr::MapOutputChunk
chunk(uint64_t task, uint64_t items_total, uint64_t items_processed,
      std::vector<mr::KeyValue> records)
{
    mr::MapOutputChunk c;
    c.map_task = task;
    c.items_total = items_total;
    c.items_processed = items_processed;
    c.records = std::move(records);
    return c;
}

TEST(MultiStageSamplingReducerTest, FullCensusSumIsExact)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kSum, 0.95);
    r.consume(chunk(0, 3, 3,
                    {{"a", 1.0, 0, 0, 0},
                     {"a", 2.0, 0, 0, 0},
                     {"b", 5.0, 0, 0, 0}}));
    r.consume(chunk(1, 2, 2, {{"a", 4.0, 0, 0, 0}}));
    mr::ReduceContext ctx(2, 5);
    r.finalize(ctx);
    auto out = ctx.output();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].key, "a");
    EXPECT_DOUBLE_EQ(out[0].value, 7.0);
    EXPECT_NEAR(out[0].errorBound(), 0.0, 1e-9);
    EXPECT_EQ(out[1].key, "b");
    EXPECT_DOUBLE_EQ(out[1].value, 5.0);
}

TEST(MultiStageSamplingReducerTest, MatchesTwoStageEstimatorExactly)
{
    // The folded O(1)-per-key path must agree with the reference
    // estimator fed the same per-cluster data (including an implicit-
    // zero cluster for key "a").
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kSum, 0.95);
    r.consume(chunk(0, 10, 4,
                    {{"a", 2.0, 0, 0, 0}, {"a", 3.0, 0, 0, 0}}));
    r.consume(chunk(1, 8, 4, {{"a", 1.0, 0, 0, 0}}));
    r.consume(chunk(2, 12, 6, {}));  // nothing emitted for "a"

    std::vector<KeyEstimate> estimates = r.currentEstimates(10);
    ASSERT_EQ(estimates.size(), 1u);

    std::vector<stats::ClusterSample> reference(3);
    reference[0] = {10, 4, 2, 5.0, 13.0};
    reference[1] = {8, 4, 1, 1.0, 1.0};
    reference[2] = {12, 6, 0, 0.0, 0.0};
    stats::Estimate expected =
        stats::TwoStageEstimator::estimateSum(reference, 10, 0.95);

    EXPECT_NEAR(estimates[0].value, expected.value, 1e-9);
    EXPECT_NEAR(estimates[0].error_bound, expected.error_bound,
                1e-9 * (1.0 + expected.error_bound));
}

TEST(MultiStageSamplingReducerTest, CountIgnoresValues)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kCount,
                                0.95);
    r.consume(chunk(0, 2, 2, {{"a", 100.0, 0, 0, 0},
                              {"a", -3.0, 0, 0, 0}}));
    r.consume(chunk(1, 2, 2, {{"a", 7.0, 0, 0, 0}}));
    mr::ReduceContext ctx(2, 4);
    r.finalize(ctx);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 3.0);
}

TEST(MultiStageSamplingReducerTest, SamplingScalesUpEstimate)
{
    // Cluster of 100 items, 10 processed, each emitting 1: the estimated
    // total for the key is 2 clusters * 100 * (10/10) = 200... with two
    // identical clusters and N = 2.
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kCount,
                                0.95);
    std::vector<mr::KeyValue> ten(10, {"k", 1.0, 0, 0, 0});
    r.consume(chunk(0, 100, 10, ten));
    r.consume(chunk(1, 100, 10, ten));
    mr::ReduceContext ctx(2, 200);
    r.finalize(ctx);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 200.0);
}

TEST(MultiStageSamplingReducerTest, DroppedClustersExtrapolate)
{
    // 4 of 8 clusters consumed; estimate scales by N/n = 2.
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kSum, 0.95);
    for (uint64_t t = 0; t < 4; ++t) {
        r.consume(chunk(t, 5, 5, {{"k", 10.0, 0, 0, 0}}));
    }
    mr::ReduceContext ctx(8, 40);
    r.finalize(ctx);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 80.0);
    // Identical clusters: zero inter-cluster variance, zero bound.
    EXPECT_NEAR(ctx.output()[0].errorBound(), 0.0, 1e-9);
}

TEST(MultiStageSamplingReducerTest, SingleClusterUnboundedCi)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kSum, 0.95);
    r.consume(chunk(0, 5, 5, {{"k", 1.0, 0, 0, 0}}));
    auto est = r.currentEstimates(4);
    ASSERT_EQ(est.size(), 1u);
    EXPECT_FALSE(est[0].finite);
    EXPECT_TRUE(std::isinf(est[0].relativeError()));
}

TEST(MultiStageSamplingReducerTest, AverageOfConstantValues)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kAverage,
                                0.95);
    for (uint64_t t = 0; t < 3; ++t) {
        r.consume(chunk(t, 10, 5,
                        {{"k", 6.0, 0, 0, 0}, {"k", 6.0, 0, 0, 0}}));
    }
    mr::ReduceContext ctx(3, 30);
    r.finalize(ctx);
    EXPECT_NEAR(ctx.output()[0].value, 6.0, 1e-12);
    EXPECT_NEAR(ctx.output()[0].errorBound(), 0.0, 1e-6);
}

TEST(MultiStageSamplingReducerTest, RatioOp)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kRatio,
                                0.95);
    for (uint64_t t = 0; t < 3; ++t) {
        // y = 3x for every record.
        r.consume(chunk(t, 10, 10,
                        {{"k", 9.0, 3.0, 0, 0}, {"k", 6.0, 2.0, 0, 0}}));
    }
    mr::ReduceContext ctx(3, 30);
    r.finalize(ctx);
    EXPECT_NEAR(ctx.output()[0].value, 3.0, 1e-12);
}

TEST(MultiStageSamplingReducerTest, PlanStatsOnlyForSumCount)
{
    MultiStageSamplingReducer avg(MultiStageSamplingReducer::Op::kAverage,
                                  0.95);
    avg.consume(chunk(0, 5, 5, {{"k", 1.0, 0, 0, 0}}));
    avg.consume(chunk(1, 5, 5, {{"k", 2.0, 0, 0, 0}}));
    EXPECT_TRUE(avg.planStats(4).empty());

    MultiStageSamplingReducer sum(MultiStageSamplingReducer::Op::kSum,
                                  0.95);
    sum.consume(chunk(0, 5, 5, {{"k", 1.0, 0, 0, 0}}));
    sum.consume(chunk(1, 5, 5, {{"k", 2.0, 0, 0, 0}}));
    auto stats = sum.planStats(4);
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_GT(stats[0].inter_cluster_variance, 0.0);
    EXPECT_DOUBLE_EQ(stats[0].tau_hat, 6.0);
}

TEST(MultiStageSamplingReducerTest, WithinVarianceGrowsWhenSampling)
{
    auto build = [](uint64_t processed) {
        MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kSum,
                                    0.95);
        for (uint64_t t = 0; t < 4; ++t) {
            // Same emitted data, different claimed sample sizes.
            std::vector<mr::KeyValue> recs = {{"k", 1.0, 0, 0, 0},
                                              {"k", 3.0, 0, 0, 0}};
            r.consume(chunk(t, 100, processed, recs));
        }
        return r.currentEstimates(8)[0].error_bound;
    };
    EXPECT_GT(build(10), build(100));
}

TEST(MultiStageSamplingReducerTest, ChaoDistinctKeyEstimate)
{
    // 5 abundant keys plus 6 singletons and 4 doubletons observed:
    // Chao1 = 15 + 36 / 8 = 19.5.
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kCount,
                                0.95);
    std::vector<mr::KeyValue> records;
    for (int k = 0; k < 5; ++k) {
        for (int i = 0; i < 10; ++i) {
            records.push_back({"big" + std::to_string(k), 1.0, 0, 0, 0});
        }
    }
    for (int k = 0; k < 6; ++k) {
        records.push_back({"single" + std::to_string(k), 1.0, 0, 0, 0});
    }
    for (int k = 0; k < 4; ++k) {
        records.push_back({"double" + std::to_string(k), 1.0, 0, 0, 0});
        records.push_back({"double" + std::to_string(k), 1.0, 0, 0, 0});
    }
    r.consume(chunk(0, 100, 50, records));
    EXPECT_EQ(r.observedKeys(), 15u);
    EXPECT_DOUBLE_EQ(r.estimateDistinctKeys(), 15.0 + 36.0 / 8.0);
}

TEST(MultiStageSamplingReducerTest, ChaoWithoutDoubletons)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kCount,
                                0.95);
    r.consume(chunk(0, 10, 5,
                    {{"a", 1.0, 0, 0, 0}, {"b", 1.0, 0, 0, 0}}));
    // d=2, f1=2, f2=0 -> bias-corrected: 2 + 2*1/2 = 3.
    EXPECT_DOUBLE_EQ(r.estimateDistinctKeys(), 3.0);
}

TEST(MultiStageSamplingReducerTest, ChaoNeverBelowObserved)
{
    Rng rng(3);
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kCount,
                                0.95);
    ZipfDistribution zipf(500, 1.1);
    for (uint64_t c = 0; c < 10; ++c) {
        std::vector<mr::KeyValue> records;
        for (int i = 0; i < 100; ++i) {
            records.push_back(
                {"k" + std::to_string(zipf.sample(rng)), 1.0, 0, 0, 0});
        }
        r.consume(chunk(c, 1000, 100, records));
    }
    double chao = r.estimateDistinctKeys();
    EXPECT_GE(chao, static_cast<double>(r.observedKeys()));
    // And it should extrapolate beyond the observed count for a
    // heavy-tailed key distribution sampled at 10%.
    EXPECT_GT(chao, static_cast<double>(r.observedKeys()) * 1.05);
}

TEST(MultiStageSamplingReducerTest, WorstAbsoluteErrorMatchesScan)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kSum, 0.95);
    Rng rng(4);
    for (uint64_t c = 0; c < 6; ++c) {
        std::vector<mr::KeyValue> records;
        for (int k = 0; k < 8; ++k) {
            records.push_back({"k" + std::to_string(k),
                               rng.uniform(0.0, 10.0 * (k + 1)), 0, 0, 0});
        }
        r.consume(chunk(c, 50, 10, records));
    }
    auto worst = r.worstAbsoluteError(12);
    ASSERT_TRUE(worst.any_key);
    double expected = 0.0;
    for (const KeyEstimate& est : r.currentEstimates(12)) {
        expected = std::max(expected, est.error_bound);
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(worst.error_bound),
              std::bit_cast<uint64_t>(expected));
}

TEST(MultiStageSamplingReducerTest, PlanStatsTopKSelectsWorstKeys)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kSum, 0.95);
    Rng rng(5);
    for (uint64_t c = 0; c < 6; ++c) {
        std::vector<mr::KeyValue> records;
        for (int k = 0; k < 40; ++k) {
            records.push_back({"k" + std::to_string(k),
                               rng.uniform(0.0, 2.0 * (k + 1)), 0, 0, 0});
        }
        r.consume(chunk(c, 50, 10, records));
    }
    auto all = r.planStats(12);
    auto top = r.planStats(12, 5);
    ASSERT_EQ(top.size(), 5u);
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
        return a.error_bound > b.error_bound;
    });
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
        return a.error_bound > b.error_bound;
    });
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(top[i].key, all[i].key) << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(top[i].error_bound),
                  std::bit_cast<uint64_t>(all[i].error_bound));
    }
}

// Every sum/count bound, whichever scan produces it, is
// t_{n-1, 0.975} * sqrt(variance) with t from the uncached
// studentTCritical at n - 1 degrees of freedom, and +inf below two
// consumed clusters. The variance is refolded here in the reducer's own
// order, so the comparison is bit for bit.
TEST(MultiStageSamplingReducerTest, SumBoundsUseStudentTAtClustersMinusOne)
{
    using Op = MultiStageSamplingReducer::Op;
    constexpr uint64_t kTotalClusters = 40;
    constexpr uint64_t kKeys = 6;
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    struct Fold
    {
        double sum_tau = 0.0;
        double sum_tau_sq = 0.0;
        double within = 0.0;
    };
    for (Op op : {Op::kSum, Op::kCount}) {
        for (uint64_t n : {0u, 1u, 2u, 3u, 31u}) {
            SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)) +
                         " n " + std::to_string(n));
            MultiStageSamplingReducer r(op, 0.95);
            std::map<std::string, Fold> folds;
            Rng rng(n + 11);
            for (uint64_t c = 0; c < n; ++c) {
                uint64_t items_total = 20 + c % 7;
                uint64_t items_processed = 5 + c % 4;
                double big_m = static_cast<double>(items_total);
                double mi = static_cast<double>(items_processed);
                std::vector<mr::KeyValue> records;
                for (uint64_t k = 0; k < kKeys; ++k) {
                    if ((c + k) % 3 == 0) {
                        continue;  // an implicit-zero cluster for key k
                    }
                    double v = op == Op::kCount
                                   ? 1.0
                                   : rng.uniform(0.5, 5.0 * (k + 1));
                    std::string key = "k" + std::to_string(k);
                    records.push_back({key, v, 0, 0, 0});
                    Fold& f = folds[key];
                    double tau = big_m / mi * v;
                    f.sum_tau += tau;
                    f.sum_tau_sq += tau * tau;
                    double s2 = stats::varianceWithImplicitZeros(
                        items_processed, v, v * v);
                    f.within += big_m * (big_m - mi) * s2 / mi;
                }
                r.consume(chunk(c, items_total, items_processed, records));
            }

            double nd = static_cast<double>(n);
            double big_n = static_cast<double>(kTotalClusters);
            std::map<std::string, double> expected;
            double expected_worst = 0.0;
            for (const auto& [key, f] : folds) {
                double bound = std::numeric_limits<double>::infinity();
                if (n >= 2) {
                    double s2u = std::max(
                        0.0, (f.sum_tau_sq - f.sum_tau * f.sum_tau / nd) /
                                 (nd - 1.0));
                    double variance = big_n * (big_n - nd) * s2u / nd +
                                      (big_n / nd) * f.within;
                    bound = stats::studentTCritical(0.95, nd - 1.0) *
                            std::sqrt(variance);
                    expected_worst = std::max(expected_worst, bound);
                }
                expected[key] = bound;
            }

            std::vector<KeyEstimate> estimates =
                r.currentEstimates(kTotalClusters);
            ASSERT_EQ(estimates.size(), expected.size());
            for (const KeyEstimate& est : estimates) {
                EXPECT_EQ(bits(est.error_bound), bits(expected.at(est.key)))
                    << est.key;
            }

            auto all = r.planStats(kTotalClusters);
            auto top = r.planStats(kTotalClusters, 2);
            if (n < 2) {
                // No plan statistics without a finite bound.
                EXPECT_TRUE(all.empty());
                EXPECT_TRUE(top.empty());
            } else {
                EXPECT_EQ(all.size(), expected.size());
                EXPECT_EQ(top.size(), 2u);
            }
            for (const auto* scan : {&all, &top}) {
                for (const auto& s : *scan) {
                    EXPECT_EQ(bits(s.error_bound), bits(expected.at(s.key)))
                        << s.key;
                }
            }

            auto worst = r.worstAbsoluteError(kTotalClusters);
            EXPECT_EQ(worst.any_key, n > 0);
            EXPECT_EQ(worst.all_finite, n != 1);
            EXPECT_EQ(bits(worst.error_bound), bits(expected_worst));
        }
    }
}

/**
 * Twelve chunks over a key space that grows as they arrive: each chunk
 * revisits some earlier keys and introduces new ones, in an order that
 * is not sorted, so first-seen order and key order differ.
 */
std::vector<mr::MapOutputChunk>
growingChunks()
{
    std::vector<mr::MapOutputChunk> chunks;
    for (uint64_t c = 0; c < 12; ++c) {
        std::vector<mr::KeyValue> records;
        for (uint64_t j = 0; j < 3 + c % 4; ++j) {
            uint64_t k = (c * 5 + j * 3) % (4 + 2 * c);
            records.push_back({"k" + std::to_string(20 - k),
                               0.5 * static_cast<double>(c) +
                                   static_cast<double>(j),
                               0, 0, 0});
        }
        chunks.push_back(chunk(c, 10 + c, 4 + c % 5, std::move(records)));
    }
    return chunks;
}

std::string
snapshot(const MultiStageSamplingReducer& r)
{
    std::string blob;
    EXPECT_TRUE(r.checkpoint(blob));
    return blob;
}

std::vector<mr::OutputRecord>
finalOutput(MultiStageSamplingReducer& r)
{
    mr::ReduceContext ctx(30, 300);
    r.finalize(ctx);
    return ctx.output();
}

void
expectOutputsIdentical(const std::vector<mr::OutputRecord>& got,
                       const std::vector<mr::OutputRecord>& want,
                       const std::string& label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].key, want[i].key) << label;
        EXPECT_EQ(got[i].value, want[i].value) << label << " " << i;
        EXPECT_EQ(got[i].lower, want[i].lower) << label << " " << i;
        EXPECT_EQ(got[i].upper, want[i].upper) << label << " " << i;
    }
}

TEST(MultiStageSamplingReducerTest, CheckpointRestoreContinuesBitIdentically)
{
    using Op = MultiStageSamplingReducer::Op;
    const std::vector<mr::MapOutputChunk> chunks = growingChunks();
    for (Op op : {Op::kSum, Op::kCount, Op::kAverage}) {
        const std::string op_label =
            "op " + std::to_string(static_cast<int>(op));

        // The uninterrupted reducer, checkpointed after every chunk...
        MultiStageSamplingReducer reference(op, 0.95);
        std::vector<std::string> blobs = {snapshot(reference)};
        for (const mr::MapOutputChunk& c : chunks) {
            reference.consume(c);
            blobs.push_back(snapshot(reference));
        }
        const std::vector<mr::OutputRecord> want = finalOutput(reference);
        // ...writes the same bytes as one checkpointed only at the end:
        // the blob depends on the consumed chunks, not on when earlier
        // checkpoints were taken.
        MultiStageSamplingReducer unchecked(op, 0.95);
        for (const mr::MapOutputChunk& c : chunks) {
            unchecked.consume(c);
        }
        EXPECT_EQ(snapshot(unchecked), blobs.back()) << op_label;

        for (size_t k : {size_t{0}, size_t{1}, size_t{7}}) {
            const std::string label = op_label + " at " + std::to_string(k);
            MultiStageSamplingReducer crashed(op, 0.95);
            for (size_t i = 0; i < k; ++i) {
                crashed.consume(chunks[i]);
            }
            const std::string snap = snapshot(crashed);
            EXPECT_EQ(snap, blobs[k]) << label;
            EXPECT_EQ(snapshot(crashed), snap)
                << label << ": back-to-back checkpoints differ";

            // Restored into a fresh reducer...
            MultiStageSamplingReducer fresh(op, 0.95);
            ASSERT_TRUE(fresh.restore(snap)) << label;
            // ...and into the same reducer after it consumed (and
            // checkpointed) more chunks: a reduce crash rolls back to the
            // last checkpoint and replays the retained chunks.
            for (size_t i = k; i < k + 3; ++i) {
                crashed.consume(chunks[i]);
                snapshot(crashed);
            }
            crashed.consume(chunks[k + 3]);
            ASSERT_TRUE(crashed.restore(snap)) << label;

            for (MultiStageSamplingReducer* r : {&fresh, &crashed}) {
                for (size_t i = k; i < chunks.size(); ++i) {
                    r->consume(chunks[i]);
                    EXPECT_EQ(snapshot(*r), blobs[i + 1])
                        << label << " after chunk " << i;
                }
                expectOutputsIdentical(finalOutput(*r), want, label);
            }
        }
    }
}

}  // namespace
}  // namespace approxhadoop::core
