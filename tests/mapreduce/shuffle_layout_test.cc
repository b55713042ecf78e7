/**
 * @file
 * The shuffle record layout: each chunk carries its records as rows over
 * its own key table, whose ids follow the order of each key's first
 * row. Map tasks build the tables on pool workers and the driver thread
 * reads them, so the job cases run at one and at four exec threads.
 */
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/combiner.h"
#include "mapreduce/job.h"
#include "mapreduce/key_interner.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/records.h"
#include "mapreduce/reducer.h"
#include "sim/cluster.h"
#include "support/key_value.h"

namespace approxhadoop::mr {
namespace {

TEST(ShuffleLayoutTest, KeyTableStoresEachKeyOnceById)
{
    KeyTable keys;
    keys.reserve(3, 8);
    EXPECT_EQ(keys.add("beta"), 0u);
    EXPECT_EQ(keys.add(""), 1u);
    EXPECT_EQ(keys.add(std::string("a\0b", 3)), 2u);
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys.key(0), "beta");
    EXPECT_EQ(keys.key(1), "");
    EXPECT_EQ(keys.key(2), std::string("a\0b", 3));
}

TEST(ShuffleLayoutTest, RecordWriterNumbersKeysInFirstRowOrder)
{
    RecordWriter out;
    out.write("b", 1.0);
    out.write("a", 2.0, 3.0);
    out.write("b", 4.0, 0.0, 5.0, 6.0);
    out.write("c", 7.0);
    out.write("a", 8.0);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out.keys().size(), 3u);
    std::vector<uint32_t> ids;
    for (const Row& row : out) {
        ids.push_back(row.key);
    }
    EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 0, 2, 1}));
    EXPECT_EQ(out.key(out[3]), "c");
    EXPECT_EQ(out[1].value2, 3.0);
    EXPECT_EQ(out[2].value3, 5.0);
    EXPECT_EQ(out[2].value4, 6.0);

    MapOutputChunk chunk;
    chunk.assign(std::move(out));
    ASSERT_EQ(chunk.records.size(), 5u);
    ASSERT_EQ(chunk.keys.size(), 3u);
    EXPECT_EQ(chunk.key(chunk.records[0]), "b");
    EXPECT_EQ(chunk.key(chunk.records[4]), "a");
    EXPECT_EQ(chunk.records[4].value, 8.0);
}

/** The chunk's layout promise: distinct keys, each with a row, numbered
 *  in the order of their first rows. */
void
expectFirstRowOrder(const MapOutputChunk& chunk)
{
    std::set<std::string_view> distinct;
    for (uint32_t k = 0; k < chunk.keys.size(); ++k) {
        distinct.insert(chunk.keys.key(k));
    }
    EXPECT_EQ(distinct.size(), chunk.keys.size()) << "a key listed twice";
    uint32_t next = 0;
    for (const Row& row : chunk.records) {
        ASSERT_LE(row.key, next) << "a key numbered before its first row";
        if (row.key == next) {
            ++next;
        }
    }
    EXPECT_EQ(next, chunk.keys.size()) << "a key without a row";
}

/** Delivered records by (map task, partition), spelled out. */
using Delivered =
    std::map<std::pair<uint64_t, uint32_t>, std::vector<KeyValue>>;

/** Checks every chunk's layout and keeps its records. */
class LayoutReducer : public Reducer
{
  public:
    LayoutReducer(uint32_t partition, Delivered* sink)
        : partition_(partition), sink_(sink)
    {
    }

    void
    consume(const MapOutputChunk& chunk) override
    {
        expectFirstRowOrder(chunk);
        (*sink_)[{chunk.map_task, partition_}] = keyValues(chunk);
    }

    void finalize(ReduceContext& /*ctx*/) override {}

  private:
    uint32_t partition_;
    Delivered* sink_;
};

/** Emits two records per item over small key pools, so keys repeat
 *  within a task in an unsorted order. */
class RepeatingKeysMapper : public Mapper
{
  public:
    void
    map(const std::string& record, MapContext& ctx) override
    {
        int i = std::stoi(record);
        ctx.write("k" + std::to_string(i * 7 % 13), i, 0.5 * i);
        ctx.write("w" + std::to_string(i * 3 % 5), 1.0);
    }
};

std::vector<std::string>
items()
{
    std::vector<std::string> out;
    for (int i = 0; i < 240; ++i) {
        out.push_back(std::to_string(i));
    }
    return out;
}

constexpr uint64_t kItemsPerBlock = 20;

Delivered
runJob(uint32_t reducers, uint32_t threads, bool combine)
{
    hdfs::InMemoryDataset data(items(), kItemsPerBlock);
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 5);
    JobConfig config;
    config.num_reducers = reducers;
    config.num_exec_threads = threads;
    config.speculation = false;
    Job job(cluster, data, nn, config);
    job.setMapperFactory(
        [] { return std::make_unique<RepeatingKeysMapper>(); });
    Delivered delivered;
    uint32_t next_partition = 0;
    job.setReducerFactory([&] {
        return std::make_unique<LayoutReducer>(next_partition++, &delivered);
    });
    if (combine) {
        job.setCombiner(std::make_shared<SumCombiner>());
    }
    job.run();
    return delivered;
}

/** What each partition should receive from each block: the mapper's
 *  records (or their per-key sums, in key order) routed by
 *  HashPartitioner, in order. */
Delivered
expected(uint32_t reducers, bool combine)
{
    hdfs::InMemoryDataset data(items(), kItemsPerBlock);
    HashPartitioner partitioner;
    Delivered out;
    for (uint64_t block = 0; block < data.numBlocks(); ++block) {
        MapContext ctx(block, kItemsPerBlock, kItemsPerBlock, false, Rng(1));
        RepeatingKeysMapper mapper;
        for (uint64_t i = 0; i < data.itemsInBlock(block); ++i) {
            mapper.map(data.item(block, i), ctx);
        }
        std::vector<KeyValue> records = keyValues(ctx.output());
        if (combine) {
            std::map<std::string, double> sums;
            for (const KeyValue& kv : records) {
                sums[kv.key] += kv.value;
            }
            records.clear();
            for (const auto& [key, sum] : sums) {
                records.push_back({key, sum});
            }
        }
        for (uint32_t r = 0; r < reducers; ++r) {
            out[{block, r}];
        }
        for (const KeyValue& kv : records) {
            out[{block, partitioner.partition(kv.key, reducers)}].push_back(
                kv);
        }
    }
    return out;
}

void
expectSameRecords(const Delivered& got, const Delivered& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [where, records] : want) {
        SCOPED_TRACE("task " + std::to_string(where.first) + " partition " +
                     std::to_string(where.second));
        auto it = got.find(where);
        ASSERT_NE(it, got.end());
        ASSERT_EQ(it->second.size(), records.size());
        for (size_t i = 0; i < records.size(); ++i) {
            EXPECT_EQ(it->second[i].key, records[i].key) << "record " << i;
            EXPECT_EQ(it->second[i].value, records[i].value)
                << "record " << i;
            EXPECT_EQ(it->second[i].value2, records[i].value2)
                << "record " << i;
        }
    }
}

TEST(ShuffleLayoutTest, JobChunksKeepFirstRowOrderAcrossThreads)
{
    for (uint32_t reducers : {1u, 3u}) {
        for (bool combine : {false, true}) {
            SCOPED_TRACE(std::to_string(reducers) + " reducers" +
                         (combine ? ", combined" : ""));
            Delivered want = expected(reducers, combine);
            for (uint32_t threads : {1u, 4u}) {
                SCOPED_TRACE(std::to_string(threads) + " threads");
                expectSameRecords(runJob(reducers, threads, combine), want);
            }
        }
    }
}

}  // namespace
}  // namespace approxhadoop::mr
