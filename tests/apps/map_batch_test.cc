/**
 * @file
 * The batched-execution contract of every registry workload: a
 * mapBatch() override must emit exactly the records that per-record
 * map() calls would, and a dataset's readItems() must serve bytes
 * identical to item(). Both equivalences are what lets the batched hot
 * path in Job::computeMapOutput coexist with the record-at-a-time
 * replay in the chaos oracle — any divergence here is a determinism
 * bug, not a perf tradeoff.
 */
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/aggregation_registry.h"
#include "common/random.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "integrity/checksum.h"
#include "mapreduce/combiner.h"
#include "mapreduce/job.h"
#include "mapreduce/mapper.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/reducer.h"
#include "mapreduce/types.h"
#include "sim/cluster.h"
#include "support/key_value.h"
#include "workloads/access_log.h"
#include "workloads/webserver_log.h"
#include "workloads/wiki_dump.h"

namespace approxhadoop {
namespace {

struct WorkloadCase
{
    std::string name;
};

void
PrintTo(const WorkloadCase& c, std::ostream* os)
{
    *os << c.name;
}

class MapBatchEquivalence : public ::testing::TestWithParam<WorkloadCase>
{
};

constexpr uint64_t kBlocks = 4;
constexpr uint64_t kItems = 32;
constexpr uint64_t kSeed = 42;

mr::MapContext
freshContext(uint64_t task_id)
{
    return mr::MapContext(task_id, kItems, kItems, false,
                          Rng(kSeed).derive(0xA11CE + task_id));
}

constexpr uint32_t kReducers = 3;

/** Delivered chunk records by (map task, partition). */
using DeliveredChunks =
    std::map<std::pair<uint64_t, uint32_t>, std::vector<mr::KeyValue>>;

/** Keeps every chunk delivered to its partition. */
class RecordingReducer : public mr::Reducer
{
  public:
    RecordingReducer(uint32_t partition, DeliveredChunks* sink)
        : partition_(partition), sink_(sink)
    {
    }

    void
    consume(const mr::MapOutputChunk& chunk) override
    {
        (*sink_)[{chunk.map_task, partition_}] = mr::keyValues(chunk);
    }

    void finalize(mr::ReduceContext& /*ctx*/) override {}

  private:
    uint32_t partition_;
    DeliveredChunks* sink_;
};

/** Runs @p w's mapper as a precise kReducers-partition job over @p data
 *  and returns the chunks each partition received. */
DeliveredChunks
deliveredChunks(const apps::AggregationWorkload& w,
                const hdfs::BlockDataset& data, bool combine)
{
    DeliveredChunks delivered;
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, kSeed);
    mr::JobConfig config = w.job_config(kItems, kReducers);
    config.seed = kSeed;
    mr::Job job(cluster, data, nn, config);
    job.setMapperFactory(w.mapper_factory());
    // The job creates its reducers in partition order.
    uint32_t next_partition = 0;
    job.setReducerFactory([&] {
        return std::make_unique<RecordingReducer>(next_partition++,
                                                  &delivered);
    });
    if (combine) {
        job.setCombiner(std::make_shared<mr::SumCombiner>());
    }
    job.run();
    return delivered;
}

TEST_P(MapBatchEquivalence, BatchedOutputMatchesRecordAtATime)
{
    const apps::AggregationWorkload* w =
        apps::findAggregationWorkload(GetParam().name);
    ASSERT_NE(w, nullptr);
    auto data = w->make_dataset(kBlocks, kItems, kSeed);

    for (uint64_t block = 0; block < kBlocks; ++block) {
        // Record-at-a-time reference: the path the chaos oracle replays.
        auto ref_mapper = w->mapper_factory()();
        mr::MapContext ref_ctx = freshContext(block);
        ref_mapper->setup(ref_ctx);
        for (uint64_t i = 0; i < kItems; ++i) {
            ref_mapper->map(data->item(block, i), ref_ctx);
        }
        ref_mapper->cleanup(ref_ctx);

        // Batched path, as Job::computeMapOutput drives it.
        auto batch_mapper = w->mapper_factory()();
        mr::MapContext batch_ctx = freshContext(block);
        batch_mapper->setup(batch_ctx);
        std::vector<uint64_t> indices(kItems);
        std::iota(indices.begin(), indices.end(), 0);
        hdfs::RecordBuffer buffer;
        data->readItems(block, indices.data(), indices.size(), buffer);
        std::vector<std::string_view> views;
        for (size_t i = 0; i < indices.size(); ++i) {
            views.push_back(buffer.record(i));
        }
        batch_mapper->mapBatch(views.data(), views.size(), batch_ctx);
        batch_mapper->cleanup(batch_ctx);

        const auto ref = mr::keyValues(ref_ctx.output());
        const auto batch = mr::keyValues(batch_ctx.output());
        ASSERT_EQ(ref.size(), batch.size()) << "block " << block;
        for (size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(ref[i].key, batch[i].key)
                << "block " << block << " record " << i;
            EXPECT_EQ(ref[i].value, batch[i].value)
                << "block " << block << " record " << i;
            EXPECT_EQ(ref[i].value2, batch[i].value2)
                << "block " << block << " record " << i;
            EXPECT_EQ(ref[i].value3, batch[i].value3)
                << "block " << block << " record " << i;
            EXPECT_EQ(ref[i].value4, batch[i].value4)
                << "block " << block << " record " << i;
        }
    }

    // Through a job: the combine and partition stages, which group and
    // route records by interned key ids, must put every record in
    // HashPartitioner's partition for its key string, in emission order
    // (combined records in key order, as SumCombiner folds them).
    for (bool combine : {false, true}) {
        SCOPED_TRACE(combine ? "with SumCombiner" : "without combiner");
        DeliveredChunks delivered = deliveredChunks(*w, *data, combine);
        ASSERT_EQ(delivered.size(), kBlocks * kReducers);
        mr::HashPartitioner partitioner;
        for (uint64_t block = 0; block < kBlocks; ++block) {
            // The job maps whole blocks, whose sizes may differ.
            uint64_t items = data->itemsInBlock(block);
            auto mapper = w->mapper_factory()();
            mr::MapContext ctx(block, items, items, false,
                               Rng(kSeed).derive(0xA11CE + block));
            mapper->setup(ctx);
            for (uint64_t i = 0; i < items; ++i) {
                mapper->map(data->item(block, i), ctx);
            }
            mapper->cleanup(ctx);
            std::vector<mr::KeyValue> shuffled = mr::keyValues(ctx.output());
            if (combine) {
                std::map<std::string, double> sums;
                for (const mr::KeyValue& kv : shuffled) {
                    sums[kv.key] += kv.value;
                }
                shuffled.clear();
                for (const auto& [key, sum] : sums) {
                    shuffled.push_back(mr::KeyValue{key, sum, 0.0, 0.0, 0.0});
                }
            }
            std::vector<std::vector<mr::KeyValue>> expected(kReducers);
            for (const mr::KeyValue& kv : shuffled) {
                expected[partitioner.partition(kv.key, kReducers)]
                    .push_back(kv);
            }
            for (uint32_t r = 0; r < kReducers; ++r) {
                const std::vector<mr::KeyValue>& got =
                    delivered[{block, r}];
                ASSERT_EQ(got.size(), expected[r].size())
                    << "block " << block << " partition " << r;
                for (size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].key, expected[r][i].key)
                        << "block " << block << " partition " << r;
                    EXPECT_EQ(got[i].value, expected[r][i].value)
                        << "block " << block << " partition " << r;
                    EXPECT_EQ(got[i].value2, expected[r][i].value2)
                        << "block " << block << " partition " << r;
                    EXPECT_EQ(got[i].value3, expected[r][i].value3)
                        << "block " << block << " partition " << r;
                    EXPECT_EQ(got[i].value4, expected[r][i].value4)
                        << "block " << block << " partition " << r;
                }
            }
        }
    }
}

TEST_P(MapBatchEquivalence, ReadItemsMatchesItem)
{
    const apps::AggregationWorkload* w =
        apps::findAggregationWorkload(GetParam().name);
    ASSERT_NE(w, nullptr);
    auto data = w->make_dataset(kBlocks, kItems, kSeed);

    for (uint64_t block = 0; block < kBlocks; ++block) {
        // The per-record bytes, taken before any read of the block: once
        // a full-block read has cached it, item() serves the cached bytes.
        std::vector<std::string> expected;
        for (uint64_t i = 0; i < kItems; ++i) {
            expected.push_back(data->item(block, i));
        }

        // Sparse samples (lazy path), out of order: a short one, and 19
        // indices, which the generators seed as two full lock-step groups
        // of 8 and a remainder of 3. At seed 42 the access-log records
        // 17 and 23 of block 0 and 8, 17 and 22 of block 2 hit the same
        // trending page of their block, which one read draws once.
        const std::vector<std::vector<uint64_t>> samples = {
            {kItems - 1, 0, kItems / 2},
            {31, 17, 0, 23, 5, 9, 30, 12, 2, 27, 8, 21, 14, 22, 3, 19, 26, 11,
             6},
        };
        for (const std::vector<uint64_t>& sparse : samples) {
            hdfs::RecordBuffer sampled;
            data->readItems(block, sparse.data(), sparse.size(), sampled);
            ASSERT_EQ(sampled.size(), sparse.size());
            for (size_t i = 0; i < sparse.size(); ++i) {
                EXPECT_EQ(std::string(sampled.record(i)), expected[sparse[i]])
                    << "block " << block << " index " << sparse[i];
            }
        }

        // Full block (whole-block synthesis + cache path).
        std::vector<uint64_t> all(kItems);
        std::iota(all.begin(), all.end(), 0);
        hdfs::RecordBuffer full;
        data->readItems(block, all.data(), all.size(), full);
        ASSERT_EQ(full.size(), kItems);
        for (uint64_t i = 0; i < kItems; ++i) {
            EXPECT_EQ(std::string(full.record(i)), expected[i])
                << "block " << block << " index " << i;
        }
    }
}

std::vector<WorkloadCase>
allWorkloads()
{
    std::vector<WorkloadCase> cases;
    for (const apps::AggregationWorkload& w : apps::aggregationWorkloads()) {
        cases.push_back(WorkloadCase{w.name});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryWorkloads, MapBatchEquivalence,
    ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
        return info.param.name;
    });

/** XXH64 over @p blocks x @p items records of @p data, in block order,
 *  each record followed by a newline; read through readItems when
 *  @p batched, through item() otherwise. */
uint64_t
recordsDigest(const hdfs::BlockDataset& data, uint64_t blocks,
              uint64_t items, bool batched)
{
    integrity::Hasher64 h;
    std::vector<uint64_t> all(items);
    std::iota(all.begin(), all.end(), 0);
    for (uint64_t block = 0; block < blocks; ++block) {
        hdfs::RecordBuffer records;
        if (batched) {
            data.readItems(block, all.data(), all.size(), records);
        }
        for (uint64_t i = 0; i < items; ++i) {
            h.update(batched ? records.record(i)
                             : std::string_view(data.item(block, i)));
            h.update(std::string_view("\n"));
        }
    }
    return h.digest();
}

// The record bytes of the three generators that synthesize the paper's
// inputs, at their default seeds. Every committed expectation downstream
// (bench digests, sim_* baselines) rests on these bytes, so a change to
// a record stream or its format fails here first.
TEST(GeneratedRecords, WorkloadRecordsArePinned)
{
    constexpr uint64_t kPinBlocks = 3;
    constexpr uint64_t kPinItems = 64;
    workloads::WikiDumpParams wiki;
    wiki.num_blocks = kPinBlocks;
    wiki.articles_per_block = kPinItems;
    workloads::AccessLogParams access;
    access.num_blocks = kPinBlocks;
    access.entries_per_block = kPinItems;
    workloads::WebServerLogParams web;
    web.num_weeks = kPinBlocks;
    web.entries_per_week = kPinItems;
    const std::pair<const char*, std::unique_ptr<hdfs::BlockDataset>>
        datasets[] = {{"wiki", workloads::makeWikiDump(wiki)},
                      {"access", workloads::makeAccessLog(access)},
                      {"webserver", workloads::makeWebServerLog(web)}};
    const uint64_t kPinned[] = {9411709844207717799ULL,
                                5713565469007367553ULL,
                                15218024976493733171ULL};
    for (size_t d = 0; d < std::size(datasets); ++d) {
        const auto& [name, data] = datasets[d];
        EXPECT_EQ(recordsDigest(*data, kPinBlocks, kPinItems, false),
                  kPinned[d])
            << name << " (item)";
        EXPECT_EQ(recordsDigest(*data, kPinBlocks, kPinItems, true),
                  kPinned[d])
            << name << " (readItems)";
    }
}

// The default mapBatch (base-class loop) must also match, independent of
// any app override — covers mappers that never specialize the batch hook.
TEST(MapBatchDefault, BaseClassLoopMatchesMap)
{
    class EchoMapper : public mr::Mapper
    {
      public:
        void map(const std::string& record, mr::MapContext& ctx) override
        {
            ctx.write(record, static_cast<double>(record.size()));
        }
    };

    std::vector<std::string> records = {"a", "bb", "", "a", "ccc"};
    mr::MapContext ref_ctx(0, 5, 5, false, Rng(1));
    EchoMapper ref;
    for (const std::string& r : records) {
        ref.map(r, ref_ctx);
    }

    std::vector<std::string_view> views(records.begin(), records.end());
    mr::MapContext batch_ctx(0, 5, 5, false, Rng(1));
    EchoMapper batched;
    batched.mapBatch(views.data(), views.size(), batch_ctx);

    ASSERT_EQ(ref_ctx.output().size(), batch_ctx.output().size());
    for (size_t i = 0; i < ref_ctx.output().size(); ++i) {
        EXPECT_EQ(ref_ctx.output()[i].key, batch_ctx.output()[i].key);
        EXPECT_EQ(ref_ctx.output()[i].value, batch_ctx.output()[i].value);
    }
}

}  // namespace
}  // namespace approxhadoop
