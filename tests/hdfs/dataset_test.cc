#include "hdfs/dataset.h"

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace approxhadoop::hdfs {
namespace {

TEST(InMemoryDatasetTest, PreSplitBlocks)
{
    InMemoryDataset ds({{"a", "b"}, {"c"}});
    EXPECT_EQ(ds.numBlocks(), 2u);
    EXPECT_EQ(ds.itemsInBlock(0), 2u);
    EXPECT_EQ(ds.itemsInBlock(1), 1u);
    EXPECT_EQ(ds.item(0, 1), "b");
    EXPECT_EQ(ds.item(1, 0), "c");
    EXPECT_EQ(ds.totalItems(), 3u);
}

TEST(InMemoryDatasetTest, SplitsFlatRecordList)
{
    std::vector<std::string> records;
    for (int i = 0; i < 10; ++i) {
        records.push_back(std::string("r").append(std::to_string(i)));
    }
    InMemoryDataset ds(records, 4);
    EXPECT_EQ(ds.numBlocks(), 3u);
    EXPECT_EQ(ds.itemsInBlock(0), 4u);
    EXPECT_EQ(ds.itemsInBlock(1), 4u);
    EXPECT_EQ(ds.itemsInBlock(2), 2u);
    EXPECT_EQ(ds.item(2, 1), "r9");
}

TEST(GeneratedDatasetTest, CallsGeneratorWithCoordinates)
{
    GeneratedDataset ds(3, 5, [](uint64_t b, uint64_t i) {
        return std::to_string(b * 100 + i);
    });
    EXPECT_EQ(ds.numBlocks(), 3u);
    EXPECT_EQ(ds.itemsInBlock(2), 5u);
    EXPECT_EQ(ds.item(2, 4), "204");
    EXPECT_EQ(ds.totalItems(), 15u);
}

TEST(GeneratedDatasetTest, IsDeterministic)
{
    auto gen = [](uint64_t b, uint64_t i) {
        return std::to_string(b ^ (i * 7));
    };
    GeneratedDataset ds(2, 3, gen);
    EXPECT_EQ(ds.item(1, 2), ds.item(1, 2));
}

TEST(GeneratedDatasetTest, BytesPerItem)
{
    GeneratedDataset ds(1, 1, [](uint64_t, uint64_t) { return ""; }, 512);
    EXPECT_EQ(ds.bytesPerItem(), 512u);
}

TEST(GeneratedDatasetTest, BlockReadsServeItemBytesBeforeAndAfterCaching)
{
    auto gen = [](uint64_t b, uint64_t i) {
        return std::string(i + 1, static_cast<char>('a' + b * 6 + i));
    };
    GeneratedDataset ds(2, 6, gen);
    auto expectItems = [&](const RecordBuffer& got,
                           const std::vector<uint64_t>& indices,
                           size_t first) {
        ASSERT_EQ(got.size(), first + indices.size());
        for (size_t i = 0; i < indices.size(); ++i) {
            EXPECT_EQ(got.record(first + i), gen(1, indices[i]))
                << "index " << indices[i];
        }
    };
    std::vector<uint64_t> all(6);
    std::iota(all.begin(), all.end(), 0);
    const std::vector<uint64_t> permuted = {5, 0, 3, 1, 4, 2};
    // Synthesized, then from the cache, whole and in order.
    for (int read = 0; read < 2; ++read) {
        RecordBuffer whole;
        ds.readItems(1, all.data(), all.size(), whole);
        expectItems(whole, all, 0);
    }
    // From the cache: every record out of order, and appended to a
    // buffer that already holds records.
    RecordBuffer shuffled;
    ds.readItems(1, permuted.data(), permuted.size(), shuffled);
    expectItems(shuffled, permuted, 0);
    RecordBuffer appended;
    appended.append("kept");
    ds.readItems(1, all.data(), all.size(), appended);
    EXPECT_EQ(appended.record(0), "kept");
    expectItems(appended, all, 1);
}

}  // namespace
}  // namespace approxhadoop::hdfs
