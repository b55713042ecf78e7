#include "core/sampling_reducer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/zipf.h"
#include "integrity/blob.h"
#include "integrity/checksum.h"
#include "mapreduce/combiner.h"
#include "stats/moments.h"
#include "stats/student_t.h"
#include "stats/two_stage.h"
#include "support/key_value.h"

namespace approxhadoop::core {
namespace {

/**
 * @p prefix followed by @p n in decimal. Appended rather than written as
 * `"literal" + std::to_string(n)`, which GCC 12 flags with a -Wrestrict
 * false positive inside libstdc++.
 */
std::string
numbered(const char* prefix, uint64_t n)
{
    std::string s = prefix;
    s += std::to_string(n);
    return s;
}

mr::MapOutputChunk
chunk(uint64_t task, uint64_t items_total, uint64_t items_processed,
      std::vector<mr::KeyValue> records)
{
    mr::MapOutputChunk c;
    c.map_task = task;
    c.items_total = items_total;
    c.items_processed = items_processed;
    mr::setRecords(c, records);
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

/** The keys a sum/count reducer's checkpoint lists, in its order. */
std::vector<std::string>
checkpointKeys(const MultiStageSamplingReducer& r)
{
    std::string blob;
    EXPECT_TRUE(r.checkpoint(blob));
    integrity::BlobReader in(blob);
    in.getU64();  // op
    in.getDouble();  // confidence
    in.getU64();  // clusters
    std::vector<std::string> keys(in.getU64());
    for (std::string& key : keys) {
        key = in.getString();
        for (int field = 0; field < 6; ++field) {
            in.getU64();
        }
    }
    return keys;
}

TEST(MultiStageSamplingReducerTest, InternsKeysInFirstRowOrder)
{
    // Keys repeat within and across chunks, and no chunk lists its keys
    // in sorted order: the image must list them by each key's first row.
    for (auto op : {MultiStageSamplingReducer::Op::kSum,
                    MultiStageSamplingReducer::Op::kCount}) {
        MultiStageSamplingReducer r(op, 0.95);
        r.consume(chunk(0, 10, 5,
                        {{"b", 1.0, 0, 0, 0},
                         {"a", 2.0, 0, 0, 0},
                         {"b", 3.0, 0, 0, 0},
                         {"c", 4.0, 0, 0, 0},
                         {"a", 5.0, 0, 0, 0}}));
        EXPECT_EQ(checkpointKeys(r),
                  (std::vector<std::string>{"b", "a", "c"}));
        r.consume(chunk(1, 10, 6,
                        {{"e", 1.0, 0, 0, 0},
                         {"a", 1.0, 0, 0, 0},
                         {"d", 1.0, 0, 0, 0},
                         {"e", 1.0, 0, 0, 0},
                         {"b", 1.0, 0, 0, 0},
                         {"d", 1.0, 0, 0, 0}}));
        r.consume(chunk(2, 10, 3,
                        {{"c", 1.0, 0, 0, 0},
                         {"f", 1.0, 0, 0, 0},
                         {"c", 1.0, 0, 0, 0}}));
        EXPECT_EQ(checkpointKeys(r),
                  (std::vector<std::string>{"b", "a", "c", "e", "d", "f"}));
    }
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
            records.push_back({numbered("big", k), 1.0, 0, 0, 0});
        }
    }
    for (int k = 0; k < 6; ++k) {
        records.push_back({numbered("single", k), 1.0, 0, 0, 0});
    }
    for (int k = 0; k < 4; ++k) {
        records.push_back({numbered("double", k), 1.0, 0, 0, 0});
        records.push_back({numbered("double", k), 1.0, 0, 0, 0});
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
                {numbered("k", zipf.sample(rng)), 1.0, 0, 0, 0});
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
            records.push_back({numbered("k", k),
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
            records.push_back({numbered("k", k),
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
            SCOPED_TRACE(numbered("op ", static_cast<int>(op)) +
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
                    std::string key = numbered("k", k);
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
            records.push_back({numbered("k", 20 - k),
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
            numbered("op ", static_cast<int>(op));

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


/**
 * The sum/count half of MultiStageSamplingReducer written the direct
 * way: a key-ordered std::map of aggregates, a per-chunk hash table of
 * moments, and a checkpoint blob serialized from scratch in first-seen
 * key order. The reducer under test keeps its state on interned ids
 * and patches its blob incrementally; every observable must still
 * match this reference bit for bit.
 */
class MapReferenceReducer
{
  public:
    using Op = MultiStageSamplingReducer::Op;

    MapReferenceReducer(Op op, double confidence)
        : op_(op), confidence_(confidence)
    {
    }

    void
    consume(const mr::MapOutputChunk& chunk)
    {
        ++clusters_;
        struct Moments
        {
            uint64_t count = 0;
            double sum = 0.0;
            double sum_sq = 0.0;
        };
        std::vector<std::pair<std::string, Moments>> per_key;
        std::unordered_map<std::string, size_t> index;
        for (const mr::Row& kv : chunk.records) {
            std::string key(chunk.key(kv));
            auto [it, inserted] = index.try_emplace(key, per_key.size());
            if (inserted) {
                per_key.emplace_back(key, Moments{});
            }
            Moments& m = per_key[it->second].second;
            if (mr::MomentsCombiner::isMomentsRecord(kv)) {
                uint64_t count = static_cast<uint64_t>(kv.value3);
                m.count += count;
                if (op_ == Op::kCount) {
                    m.sum += static_cast<double>(count);
                    m.sum_sq += static_cast<double>(count);
                } else {
                    m.sum += kv.value;
                    m.sum_sq += kv.value2;
                }
                continue;
            }
            double v = op_ == Op::kCount ? 1.0 : kv.value;
            ++m.count;
            m.sum += v;
            m.sum_sq += v * v;
        }
        double big_m = static_cast<double>(chunk.items_total);
        double mi = static_cast<double>(chunk.items_processed);
        for (const auto& [key, m] : per_key) {
            auto [it, inserted] = sums_.try_emplace(key);
            if (inserted) {
                first_seen_.push_back(key);
            }
            Agg& agg = it->second;
            ++agg.emitted_clusters;
            agg.records += m.count;
            if (mi <= 0.0) {
                continue;
            }
            double tau = big_m / mi * m.sum;
            agg.sum_tau += tau;
            agg.sum_tau_sq += tau * tau;
            double s2 = stats::varianceWithImplicitZeros(
                chunk.items_processed, m.sum, m.sum_sq);
            agg.sum_intra_variance += s2;
            if (chunk.items_processed < chunk.items_total) {
                agg.within += big_m * (big_m - mi) * s2 / mi;
            }
        }
    }

    std::vector<KeyEstimate>
    currentEstimates(uint64_t total_clusters) const
    {
        std::vector<KeyEstimate> estimates;
        for (const auto& [key, agg] : sums_) {
            auto [value, bound] = numbers(agg, total_clusters);
            KeyEstimate est;
            est.key = key;
            est.value = value;
            est.error_bound = bound;
            est.lower = value - bound;
            est.upper = value + bound;
            est.finite = std::isfinite(bound);
            estimates.push_back(est);
        }
        return estimates;
    }

    std::vector<MultiStageSamplingReducer::KeyPlanStats>
    planStats(uint64_t total_clusters, size_t top_k) const
    {
        std::vector<MultiStageSamplingReducer::KeyPlanStats> result;
        if (clusters_ < 2) {
            return result;
        }
        double nd = static_cast<double>(clusters_);
        double big_n = static_cast<double>(total_clusters);
        auto make_stats = [&](const std::string& key, const Agg& agg) {
            MultiStageSamplingReducer::KeyPlanStats stats;
            stats.key = key;
            stats.tau_hat = big_n / nd * agg.sum_tau;
            double s2u = (agg.sum_tau_sq - agg.sum_tau * agg.sum_tau / nd) /
                         (nd - 1.0);
            stats.inter_cluster_variance = std::max(0.0, s2u);
            stats.mean_intra_variance = agg.sum_intra_variance / nd;
            stats.within_consumed = agg.within;
            stats.error_bound = numbers(agg, total_clusters).second;
            return stats;
        };
        if (top_k == 0 || sums_.size() <= top_k) {
            for (const auto& [key, agg] : sums_) {
                result.push_back(make_stats(key, agg));
            }
            return result;
        }
        using Entry = std::pair<double, const std::pair<const std::string,
                                                        Agg>*>;
        auto cmp = [](const Entry& a, const Entry& b) {
            return a.first > b.first;
        };
        std::vector<Entry> heap;
        for (const auto& entry : sums_) {
            double bound = numbers(entry.second, total_clusters).second;
            if (heap.size() < top_k) {
                heap.emplace_back(bound, &entry);
                std::push_heap(heap.begin(), heap.end(), cmp);
            } else if (bound > heap.front().first) {
                std::pop_heap(heap.begin(), heap.end(), cmp);
                heap.back() = Entry{bound, &entry};
                std::push_heap(heap.begin(), heap.end(), cmp);
            }
        }
        for (const Entry& e : heap) {
            result.push_back(make_stats(e.second->first, e.second->second));
        }
        return result;
    }

    MultiStageSamplingReducer::WorstError
    worstAbsoluteError(uint64_t total_clusters) const
    {
        MultiStageSamplingReducer::WorstError worst;
        for (const auto& [key, agg] : sums_) {
            auto [value, bound] = numbers(agg, total_clusters);
            if (value == 0.0) {
                continue;
            }
            worst.any_key = true;
            if (!std::isfinite(bound)) {
                worst.all_finite = false;
                continue;
            }
            if (bound > worst.error_bound) {
                worst.error_bound = bound;
                worst.value = value;
            }
        }
        return worst;
    }

    double
    estimateDistinctKeys() const
    {
        double f1 = 0.0;
        double f2 = 0.0;
        for (const auto& [key, agg] : sums_) {
            f1 += agg.records == 1 ? 1.0 : 0.0;
            f2 += agg.records == 2 ? 1.0 : 0.0;
        }
        double d = static_cast<double>(sums_.size());
        return f2 > 0.0 ? d + f1 * f1 / (2.0 * f2)
                        : d + f1 * (f1 - 1.0) / 2.0;
    }

    uint64_t observedKeys() const { return sums_.size(); }

    bool
    checkpoint(std::string& state) const
    {
        integrity::BlobWriter w;
        w.putU64(static_cast<uint64_t>(op_));
        w.putDouble(confidence_);
        w.putU64(clusters_);
        w.putU64(first_seen_.size());
        for (const std::string& key : first_seen_) {
            const Agg& agg = sums_.at(key);
            w.putString(key);
            w.putU64(agg.emitted_clusters);
            w.putU64(agg.records);
            w.putDouble(agg.sum_tau);
            w.putDouble(agg.sum_tau_sq);
            w.putDouble(agg.within);
            w.putDouble(agg.sum_intra_variance);
        }
        w.putU64(0);  // no cluster roster
        w.putU64(0);  // no ratio keys
        state = w.release();
        return true;
    }

  private:
    struct Agg
    {
        uint64_t emitted_clusters = 0;
        uint64_t records = 0;
        double sum_tau = 0.0;
        double sum_tau_sq = 0.0;
        double within = 0.0;
        double sum_intra_variance = 0.0;
    };

    std::pair<double, double>
    numbers(const Agg& agg, uint64_t total_clusters) const
    {
        double inf = std::numeric_limits<double>::infinity();
        if (clusters_ == 0) {
            return {0.0, inf};
        }
        double nd = static_cast<double>(clusters_);
        double big_n = static_cast<double>(total_clusters);
        double value = big_n / nd * agg.sum_tau;
        if (clusters_ < 2) {
            return {value, inf};
        }
        double s2u = std::max(
            0.0,
            (agg.sum_tau_sq - agg.sum_tau * agg.sum_tau / nd) / (nd - 1.0));
        double variance =
            big_n * (big_n - nd) * s2u / nd + (big_n / nd) * agg.within;
        return {value,
                stats::studentTCritical(confidence_, nd - 1.0) *
                    std::sqrt(variance)};
    }

    Op op_;
    double confidence_;
    uint64_t clusters_ = 0;
    std::map<std::string, Agg> sums_;
    std::vector<std::string> first_seen_;
};

/** Everything a controller or the journal can read off a sum/count
 *  reducer, with every double as its bit pattern. */
struct Observation
{
    std::vector<std::string> estimates;
    std::vector<std::string> plan_stats;
    std::string worst;
    uint64_t distinct_keys_bits = 0;
    uint64_t observed_keys = 0;
    std::string blob;
};

std::string
bitsOf(std::initializer_list<double> values)
{
    std::string out;
    for (double v : values) {
        out += std::to_string(std::bit_cast<uint64_t>(v)) + " ";
    }
    return out;
}

template <typename Reducer>
Observation
observe(const Reducer& r, uint64_t total_clusters)
{
    Observation o;
    for (const KeyEstimate& e : r.currentEstimates(total_clusters)) {
        o.estimates.push_back(
            e.key + " | " +
            bitsOf({e.value, e.error_bound, e.lower, e.upper}) +
            (e.finite ? "finite" : "infinite"));
    }
    for (size_t top_k : {size_t{0}, size_t{1}, size_t{5}, size_t{16}}) {
        o.plan_stats.push_back(numbered("top ", top_k));
        for (const auto& s : r.planStats(total_clusters, top_k)) {
            o.plan_stats.push_back(
                s.key + " | " +
                bitsOf({s.tau_hat, s.inter_cluster_variance,
                        s.mean_intra_variance, s.within_consumed,
                        s.error_bound}));
        }
    }
    MultiStageSamplingReducer::WorstError w =
        r.worstAbsoluteError(total_clusters);
    o.worst = bitsOf({w.error_bound, w.value}) +
              (w.all_finite ? "finite " : "infinite ") +
              (w.any_key ? "any" : "none");
    o.distinct_keys_bits = std::bit_cast<uint64_t>(r.estimateDistinctKeys());
    o.observed_keys = r.observedKeys();
    EXPECT_TRUE(r.checkpoint(o.blob));
    return o;
}

void
expectSameObservation(const Observation& got, const Observation& want,
                      const std::string& label)
{
    EXPECT_EQ(got.estimates, want.estimates) << label;
    EXPECT_EQ(got.plan_stats, want.plan_stats) << label;
    EXPECT_EQ(got.worst, want.worst) << label;
    EXPECT_EQ(got.distinct_keys_bits, want.distinct_keys_bits) << label;
    EXPECT_EQ(got.observed_keys, want.observed_keys) << label;
    EXPECT_TRUE(got.blob == want.blob) << label << ": checkpoint blobs differ";
}

/**
 * Seeded chunks over a skewed key pool that holds an empty key, keys
 * with bytes >= 0x80 and keys with an embedded '\0'. Some chunks arrive
 * pre-combined by MomentsCombiner, runs of records repeat a key, and a
 * block of "tie" keys always shows up together with equal values, so
 * their bounds tie exactly. Every chunk also carries "shift-z" and then
 * "shift-a" with values a constant apart: with @p census set (every
 * item processed, so no within-cluster term) their bounds tie exactly
 * after a power-of-two number of chunks while their estimates differ.
 */
std::vector<mr::MapOutputChunk>
referenceChunks(uint64_t seed, bool census)
{
    std::vector<std::string> pool = {"", std::string("a\0b", 3),
                                     std::string("a\0", 2), "a",
                                     "\xc3\xa9t\xc3\xa9", "\xff", "\x80z"};
    for (int i = 0; i < 40; ++i) {
        pool.push_back(numbered("k", i * 7 % 40));
    }
    Rng rng(seed);
    ZipfDistribution zipf(pool.size(), 1.05);
    mr::MomentsCombiner combiner;
    std::vector<mr::MapOutputChunk> chunks;
    for (uint64_t c = 0; c < 30; ++c) {
        std::vector<mr::KeyValue> records;
        size_t n = rng.uniformInt(25);
        for (size_t i = 0; i < n; ++i) {
            const std::string& key = !records.empty() && rng.bernoulli(0.3)
                                         ? records.back().key
                                         : pool[zipf.sample(rng)];
            records.push_back(
                {key, std::round(rng.uniform(0.0, 8.0)), 0, 0, 0});
        }
        double base = static_cast<double>(100 + rng.uniformInt(200));
        records.push_back({"shift-z", base + 3.0, 0, 0, 0});
        records.push_back({"shift-a", base, 0, 0, 0});
        if (c % 3 != 1) {
            for (int t = 0; t < 12; ++t) {
                records.push_back(
                    {numbered("tie", (t * 5) % 12), 20.0, 0, 0, 0});
            }
        }
        if (c % 4 == 2) {
            // Pre-combined: one moments record per key, in key order.
            std::map<std::string, std::vector<mr::KeyValue>> groups;
            for (const mr::KeyValue& kv : records) {
                groups[kv.key].push_back(kv);
            }
            records.clear();
            for (const auto& [key, values] : groups) {
                for (mr::KeyValue& kv : mr::combine(combiner, key, values)) {
                    records.push_back(std::move(kv));
                }
            }
        }
        uint64_t items_total = 30 + rng.uniformInt(20);
        uint64_t items_processed =
            census ? items_total
            : c == 5
                ? 0
                : std::min(items_total, 25 + rng.uniformInt(10));
        chunks.push_back(
            chunk(c, items_total, items_processed, std::move(records)));
    }
    return chunks;
}

TEST(MultiStageSamplingReducerTest, MatchesMapReferenceBitForBit)
{
    using Op = MultiStageSamplingReducer::Op;
    constexpr uint64_t kTotalClusters = 45;
    for (auto [op, census] : {std::pair{Op::kSum, false},
                              std::pair{Op::kCount, false},
                              std::pair{Op::kSum, true},
                              std::pair{Op::kCount, true}}) {
        const std::vector<mr::MapOutputChunk> chunks =
            referenceChunks(19, census);
        const std::string op_label =
            numbered("op ", static_cast<int>(op)) +
            (census ? " census" : " sampled");
        MapReferenceReducer reference(op, 0.95);
        MultiStageSamplingReducer reducer(op, 0.95);
        std::vector<Observation> want = {observe(reference, kTotalClusters)};
        expectSameObservation(observe(reducer, kTotalClusters), want[0],
                              op_label + " before any chunk");
        for (size_t i = 0; i < chunks.size(); ++i) {
            reference.consume(chunks[i]);
            reducer.consume(chunks[i]);
            want.push_back(observe(reference, kTotalClusters));
            expectSameObservation(observe(reducer, kTotalClusters), want.back(),
                                  op_label + " after chunk " +
                                      std::to_string(i));
            if (census && op == Op::kSum && i + 1 == 16) {
                // The worst bound is tied between the shift keys, and the
                // smaller key, which always arrives second, holds it.
                std::map<std::string, KeyEstimate> by_key;
                for (const KeyEstimate& e :
                     reference.currentEstimates(kTotalClusters)) {
                    by_key[e.key] = e;
                }
                const KeyEstimate& a = by_key.at("shift-a");
                const KeyEstimate& z = by_key.at("shift-z");
                auto worst = reference.worstAbsoluteError(kTotalClusters);
                EXPECT_EQ(a.error_bound, z.error_bound);
                EXPECT_NE(a.value, z.value);
                EXPECT_EQ(worst.error_bound, a.error_bound);
                EXPECT_EQ(worst.value, a.value);
            }
        }
        // The tie keys' bounds really tie, and the key space outgrows the
        // largest top-k, so every selection runs through the heap.
        std::set<uint64_t> tie_bounds;
        for (const KeyEstimate& e :
             reference.currentEstimates(kTotalClusters)) {
            if (e.key.starts_with("tie")) {
                tie_bounds.insert(std::bit_cast<uint64_t>(e.error_bound));
            }
        }
        EXPECT_EQ(tie_bounds.size(), 1u) << op_label;
        EXPECT_GT(want.back().observed_keys, 16u) << op_label;

        // Restore every cut into a fresh reducer and into one that has
        // consumed (and checkpointed) other chunks, then replay the rest.
        for (size_t k = 0; k <= chunks.size(); ++k) {
            const std::string label = op_label + " cut " + std::to_string(k);
            MultiStageSamplingReducer fresh(op, 0.95);
            MultiStageSamplingReducer dirtied(op, 0.95);
            for (size_t i = chunks.size(); i-- > chunks.size() / 2;) {
                dirtied.consume(chunks[i]);
                if (i % 4 == 0) {
                    snapshot(dirtied);
                }
            }
            dirtied.planStats(kTotalClusters, 5);
            for (MultiStageSamplingReducer* r : {&fresh, &dirtied}) {
                ASSERT_TRUE(r->restore(want[k].blob)) << label;
                expectSameObservation(observe(*r, kTotalClusters), want[k],
                                      label + " restored");
                for (size_t i = k; i < chunks.size(); ++i) {
                    r->consume(chunks[i]);
                    expectSameObservation(observe(*r, kTotalClusters),
                                          want[i + 1],
                                          label + " replayed chunk " +
                                              std::to_string(i));
                }
            }
        }
    }
}


TEST(MultiStageSamplingReducerTest, RestoreRejectsDuplicateKeys)
{
    MultiStageSamplingReducer r(MultiStageSamplingReducer::Op::kSum, 0.95);
    r.consume(chunk(0, 4, 2, {{"kept", 1.0, 0, 0, 0}}));
    const std::string before = snapshot(r);

    integrity::BlobWriter w;
    w.putU64(static_cast<uint64_t>(MultiStageSamplingReducer::Op::kSum));
    w.putDouble(0.95);
    w.putU64(2);
    w.putU64(2);
    for (int i = 0; i < 2; ++i) {
        w.putString("dup");
        for (int field = 0; field < 6; ++field) {
            w.putU64(1);
        }
    }
    w.putU64(0);
    w.putU64(0);
    EXPECT_THROW(r.restore(w.release()), std::runtime_error);
    // A rejected snapshot leaves the reducer as it was.
    EXPECT_EQ(snapshot(r), before);
}

TEST(MultiStageSamplingReducerTest, RatioRestoreRejectsMalformedSamples)
{
    using Op = MultiStageSamplingReducer::Op;
    MultiStageSamplingReducer r(Op::kAverage, 0.95);
    r.consume(chunk(0, 4, 2, {{"kept", 1.0, 0, 0, 0}}));
    const std::string before = snapshot(r);

    // Two clusters; @p keys each list samples for @p clusters.
    auto blob = [](std::vector<std::string> keys,
                   std::vector<uint64_t> clusters) {
        integrity::BlobWriter w;
        w.putU64(static_cast<uint64_t>(Op::kAverage));
        w.putDouble(0.95);
        w.putU64(2);
        w.putU64(0);
        w.putU64(2);
        for (int c = 0; c < 2; ++c) {
            w.putU64(4);
            w.putU64(2);
        }
        w.putU64(keys.size());
        for (const std::string& key : keys) {
            w.putString(key);
            w.putU64(clusters.size());
            for (uint64_t cluster : clusters) {
                w.putU64(cluster);
                w.putU64(4);
                w.putU64(2);
                for (int field = 0; field < 5; ++field) {
                    w.putDouble(1.0);
                }
            }
        }
        return w.release();
    };
    MultiStageSamplingReducer probe(Op::kAverage, 0.95);
    ASSERT_TRUE(probe.restore(blob({"a", "b"}, {0, 1})));
    for (const auto& [keys, clusters] :
         {std::pair<std::vector<std::string>, std::vector<uint64_t>>{
              {"a", "a"}, {0, 1}},
          {{"a"}, {1, 0}},
          {{"a"}, {1, 1}},
          {{"a"}, {0, 2}}}) {
        EXPECT_THROW(r.restore(blob(keys, clusters)), std::runtime_error);
        // A rejected snapshot leaves the reducer as it was.
        EXPECT_EQ(snapshot(r), before);
    }
}

/**
 * The kAverage/kRatio checkpoint blob, pinned as one XXH64 per chunk
 * over a seeded sequence: keys arrive out of key order, some hold an
 * embedded '\0' or a byte >= 0x80, most skip some clusters, and the
 * sequence rolls back to an earlier blob once and replays from there.
 * The final output's bits are pinned the same way.
 */
TEST(MultiStageSamplingReducerTest, RatioBlobDigestsArePinned)
{
    using Op = MultiStageSamplingReducer::Op;
    const std::vector<std::string> pool = {
        "m", std::string("a\0b", 3), "", std::string("a\0", 2), "zz",
        "\xff", "a", "k7", "k10", "k2"};
    Rng rng(23);
    ZipfDistribution zipf(pool.size(), 0.9);
    std::vector<mr::MapOutputChunk> chunks;
    for (uint64_t c = 0; c < 14; ++c) {
        std::vector<mr::KeyValue> records;
        size_t n = 1 + rng.uniformInt(12);
        for (size_t i = 0; i < n; ++i) {
            records.push_back({pool[zipf.sample(rng)],
                               std::round(rng.uniform(0.0, 8.0)),
                               std::round(rng.uniform(1.0, 4.0)), 0, 0});
        }
        uint64_t items_total = 20 + rng.uniformInt(10);
        uint64_t items_processed = std::min(items_total,
                                            12 + rng.uniformInt(10));
        chunks.push_back(
            chunk(c, items_total, items_processed, std::move(records)));
    }
    auto hex = [](uint64_t v) {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(v));
        return std::string(buf);
    };
    auto digest = [&](const std::string& bytes) {
        return hex(integrity::hash64(bytes.data(), bytes.size()));
    };
    const std::pair<Op, const char*> pins[] = {
        {Op::kAverage,
         "34f8a3d1fa71909d 2b3b1d16daafe126 0e21f2961ef78e83 509bec3da7e824ee "
         "02ff9140fcd4b39a 23a54dc2b733bfa7 e46be8536bf1e830 cc2f9cbfdc13e7d8 "
         "2d8d06bf754ba32c afc9d42c5ab49ac7 e46be8536bf1e830 cc2f9cbfdc13e7d8 "
         "2d8d06bf754ba32c afc9d42c5ab49ac7 60d0efd6ad44c094 35213747f874fa65 "
         "8ab8ac0325288d6e fca722f9427e9d2b out=e6d2fe2a8183b447"},
        {Op::kRatio,
         "7d3a0849d1523d9a aea042e116e52202 21490e13fbd7f4dc 8107b20881a57a17 "
         "42b3004e366bd41e 3fbbe6acc9843f9c 24b2e8824cec64ea ef108ce7861d901c "
         "6e7dc9927592a153 ceb4cedf36ddeb01 24b2e8824cec64ea ef108ce7861d901c "
         "6e7dc9927592a153 ceb4cedf36ddeb01 1436f9478f9dcf8a 221f2a19309e2f71 "
         "bf86c04bf27e9202 255073435de3bb30 out=c66dc3ea13250b31"},
    };
    for (const auto& [op, expected] : pins) {
        MultiStageSamplingReducer r(op, 0.95);
        std::string digests;
        std::string cut;
        for (size_t i = 0; i < chunks.size(); ++i) {
            r.consume(chunks[i]);
            const std::string blob = snapshot(r);
            digests += digest(blob) + " ";
            if (i == 5) {
                cut = blob;
            }
            if (i == 9) {
                // A reduce crash: back to the blob after chunk 5, then
                // the retained chunks replay.
                ASSERT_TRUE(r.restore(cut));
                for (size_t j = 6; j <= 9; ++j) {
                    r.consume(chunks[j]);
                    digests += digest(snapshot(r)) + " ";
                }
            }
        }
        std::string out;
        for (const mr::OutputRecord& rec : finalOutput(r)) {
            out += rec.key;
            for (double v : {rec.value, rec.lower, rec.upper}) {
                out += hex(std::bit_cast<uint64_t>(v));
            }
        }
        digests += "out=" + digest(out);
        EXPECT_EQ(digests, expected) << static_cast<int>(op);
    }
}

}  // namespace
}  // namespace approxhadoop::core
