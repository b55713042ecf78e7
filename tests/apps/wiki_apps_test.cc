#include "apps/wiki_apps.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/namenode.h"
#include "mapreduce/mapper.h"
#include "sim/cluster.h"
#include "workloads/wiki_dump.h"

namespace approxhadoop::apps {
namespace {

workloads::WikiDumpParams
smallDump()
{
    workloads::WikiDumpParams params;
    params.num_blocks = 24;
    params.articles_per_block = 80;
    return params;
}

TEST(WikiLengthTest, BinKeyFormat)
{
    EXPECT_EQ(WikiLength::binKey(0), "len00000000");
    EXPECT_EQ(WikiLength::binKey(99), "len00000000");
    EXPECT_EQ(WikiLength::binKey(100), "len00000100");
    EXPECT_EQ(WikiLength::binKey(12345), "len00012300");
    // Below 10^8 the key is fixed-width; from there on it grows, which
    // is where snprintf stops padding.
    for (uint64_t bin : {uint64_t{0}, uint64_t{100}, uint64_t{99999900},
                         uint64_t{100000000}, UINT64_MAX / 100 * 100}) {
        char expected[32];
        std::snprintf(expected, sizeof(expected), "len%08llu",
                      static_cast<unsigned long long>(bin));
        EXPECT_EQ(WikiLength::binKey(bin), expected) << bin;
    }
}

TEST(WikiLengthTest, MapAndMapBatchEmitTheSameKeys)
{
    // Sizes on both sides of the fixed-width key, a record without a
    // tab, one with an empty title and one with no size digits.
    const std::vector<std::string> records = {
        "a1\t1\t", "a2\t12345\ta7,a9", "\t99999999\t", "a3\t100000000\t",
        "a4\t18446744073709551615\t", "no-tabs-here", "a5\t\t", "a6\t250",
    };
    WikiLength::Mapper mapper;
    mr::MapContext single(0, records.size(), records.size(), false, Rng(1));
    for (const std::string& record : records) {
        mapper.map(record, single);
    }
    std::vector<std::string_view> views(records.begin(), records.end());
    mr::MapContext batch(0, records.size(), records.size(), false, Rng(1));
    mapper.mapBatch(views.data(), views.size(), batch);

    const mr::RecordWriter& a = single.output();
    const mr::RecordWriter& b = batch.output();
    ASSERT_EQ(a.size(), records.size());
    ASSERT_EQ(b.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        uint64_t size = workloads::wikiArticleSize(records[i]);
        EXPECT_EQ(a.key(a[i]), WikiLength::binKey(size)) << records[i];
        EXPECT_EQ(b.key(b[i]), WikiLength::binKey(size)) << records[i];
        EXPECT_EQ(a[i].value, 1.0);
        EXPECT_EQ(b[i].value, 1.0);
    }
}

TEST(WikiLengthTest, MemoCollisionsEmitTheSameRows)
{
    // The mapper memoizes bin -> key id in 256 direct-mapped entries.
    // Bins q, q + 256 and q + 512 share an entry; 300 distinct bins
    // outnumber the entries; bins repeat; sizes lie on both sides of
    // 10^8, where the key stops being zero-padded; a record without a
    // tab has size 0 and shares bin 0's entry.
    std::vector<uint64_t> sizes;
    for (uint64_t q = 0; q < 300; ++q) {
        sizes.push_back(q * 100 + q % 100);
    }
    for (uint64_t q : {3, 259, 515, 3, 259, 3, 515, 515}) {
        sizes.push_back(q * 100 + 7);
    }
    for (uint64_t size : {99999999ull, 100000000ull, 100025600ull,
                          99999999ull, 100000099ull, 18446744073709551615ull}) {
        sizes.push_back(size);
    }
    for (uint64_t q = 300; q-- > 0;) {
        sizes.push_back(q * 100 + 99 - q % 100);
    }
    std::vector<std::string> records;
    for (size_t i = 0; i < sizes.size(); ++i) {
        std::string record = "a";
        record.append(std::to_string(i)).append("\t");
        records.push_back(record.append(std::to_string(sizes[i])).append("\t"));
    }
    records.insert(records.begin() + 150, "no-tabs-here");
    records.push_back("no-tabs-here");

    auto context = [&records] {
        return mr::MapContext(0, records.size(), records.size(), false,
                              Rng(1));
    };
    mr::MapContext reference = context();
    for (const std::string& record : records) {
        reference.write(
            WikiLength::binKey(workloads::wikiArticleSize(record)), 1.0);
    }
    auto expectSameOutput = [&reference](mr::MapContext& ctx,
                                         const std::string& how) {
        const mr::RecordWriter& want = reference.output();
        const mr::RecordWriter& got = ctx.output();
        ASSERT_EQ(got.size(), want.size()) << how;
        for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].key, want[i].key) << how << " row " << i;
            ASSERT_EQ(got[i].value, want[i].value) << how << " row " << i;
            ASSERT_EQ(got[i].value2, 0.0) << how << " row " << i;
            ASSERT_EQ(got[i].value3, 0.0) << how << " row " << i;
            ASSERT_EQ(got[i].value4, 0.0) << how << " row " << i;
        }
        ASSERT_EQ(got.keys().size(), want.keys().size()) << how;
        for (uint32_t id = 0; id < want.keys().size(); ++id) {
            ASSERT_EQ(got.keys().key(id), want.keys().key(id))
                << how << " id " << id;
        }
    };
    ASSERT_GT(reference.output().keys().size(), 300u);

    std::vector<std::string_view> views(records.begin(), records.end());
    for (size_t split : {views.size(), size_t{1}, size_t{7}, size_t{256}}) {
        WikiLength::Mapper mapper;
        mr::MapContext ctx = context();
        for (size_t pos = 0; pos < views.size(); pos += split) {
            mapper.mapBatch(views.data() + pos,
                            std::min(split, views.size() - pos), ctx);
        }
        expectSameOutput(ctx, "mapBatch in calls of " + std::to_string(split));
    }
    WikiLength::Mapper mapper;
    mr::MapContext single = context();
    for (const std::string& record : records) {
        mapper.map(record, single);
    }
    expectSameOutput(single, "map() per record");
}

TEST(WikiLengthTest, PreciseCountsMatchDataset)
{
    auto params = smallDump();
    auto dump = workloads::makeWikiDump(params);
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    core::ApproxJobRunner runner(cluster, *dump, nn);
    mr::JobResult result = runner.runPrecise(
        WikiLength::jobConfig(params.articles_per_block),
        WikiLength::mapperFactory(), WikiLength::preciseReducerFactory());

    // Every article lands in exactly one bin.
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
    }
    EXPECT_DOUBLE_EQ(total, 24.0 * 80.0);
}

TEST(WikiLengthTest, ApproximateEstimateTracksPrecise)
{
    auto params = smallDump();
    auto dump = workloads::makeWikiDump(params);
    sim::Cluster c1(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn1(c1.numServers(), 3, 2);
    core::ApproxJobRunner r1(c1, *dump, nn1);
    mr::JobResult precise = r1.runPrecise(
        WikiLength::jobConfig(params.articles_per_block),
        WikiLength::mapperFactory(), WikiLength::preciseReducerFactory());

    sim::Cluster c2(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn2(c2.numServers(), 3, 2);
    core::ApproxJobRunner r2(c2, *dump, nn2);
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.5;
    mr::JobResult sampled = r2.runAggregation(
        WikiLength::jobConfig(params.articles_per_block), approx,
        WikiLength::mapperFactory(), WikiLength::kOp);

    mr::JobResult::HeadlineError err = sampled.headlineErrorAgainst(precise);
    EXPECT_LT(err.actual_relative_error, 0.25);
    // Approximate run is faster.
    EXPECT_LT(sampled.runtime, precise.runtime * 1.02);
}

TEST(WikiPageRankTest, CountsInboundLinks)
{
    auto params = smallDump();
    auto dump = workloads::makeWikiDump(params);
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 3);
    core::ApproxJobRunner runner(cluster, *dump, nn);
    mr::JobResult result = runner.runPrecise(
        WikiPageRank::jobConfig(params.articles_per_block),
        WikiPageRank::mapperFactory(),
        WikiPageRank::preciseReducerFactory());

    // Zipf link targets: a0 must be the most linked-to article.
    const mr::OutputRecord* top = result.find("a0");
    ASSERT_NE(top, nullptr);
    for (const auto& rec : result.output) {
        EXPECT_LE(rec.value, top->value) << rec.key;
    }
}

TEST(WikiAppsTest, JobConfigScalesWithBlockSize)
{
    // Per-item costs scale inversely with items per block so total
    // per-block work stays calibrated.
    auto small = WikiLength::jobConfig(100);
    auto large = WikiLength::jobConfig(400);
    EXPECT_NEAR(small.map_cost.t_read * 100, large.map_cost.t_read * 400,
                1e-9);
}

}  // namespace
}  // namespace approxhadoop::apps
