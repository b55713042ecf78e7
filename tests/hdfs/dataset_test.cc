#include "hdfs/dataset.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
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

TEST(GeneratedDatasetTest, CachedWholeBlockReadsShareBytes)
{
    // Records of hundreds of bytes, so copying one is a memcpy call,
    // which a sanitizer build checks.
    auto gen = [](uint64_t b, uint64_t i) {
        return std::to_string(b) + ":" + std::string(i * 100 + 1, 'x');
    };
    auto blockGen = [&gen](uint64_t b, const uint64_t* indices, size_t count,
                           RecordBuffer& out) {
        for (size_t i = 0; i < count; ++i) {
            out.append(gen(b, indices[i]));
        }
    };
    auto makeDataset = [&] {
        return std::make_unique<GeneratedDataset>(3, 6, gen, blockGen);
    };
    auto ds = makeDataset();
    std::vector<uint64_t> all(6);
    std::iota(all.begin(), all.end(), 0);
    auto expectBlock = [&gen](const RecordBuffer& got, uint64_t block) {
        ASSERT_EQ(got.size(), 6u);
        for (uint64_t i = 0; i < 6; ++i) {
            EXPECT_EQ(got.record(i), gen(block, i)) << "index " << i;
        }
    };

    // The first read synthesizes the block (and copies it out); the two
    // after it share the cached records.
    RecordBuffer fresh;
    ds->readItems(1, all.data(), all.size(), fresh);
    RecordBuffer first;
    ds->readItems(1, all.data(), all.size(), first);
    RecordBuffer second;
    ds->readItems(1, all.data(), all.size(), second);
    expectBlock(fresh, 1);
    expectBlock(first, 1);
    expectBlock(second, 1);
    EXPECT_EQ(first.record(0).data(), second.record(0).data());
    EXPECT_NE(fresh.record(0).data(), first.record(0).data());
    EXPECT_EQ(first.payloadBytes(), fresh.payloadBytes());

    // Writing to a sharing buffer copies first: the cache keeps its
    // records, whichever write it is.
    first.append("appended");
    second.bytes().append("raw");
    second.endRecord();
    ASSERT_EQ(first.size(), 7u);
    EXPECT_EQ(first.record(6), "appended");
    EXPECT_EQ(second.record(6), "raw");
    RecordBuffer third;
    ds->readItems(1, all.data(), all.size(), third);
    expectBlock(third, 1);
    EXPECT_NE(third.record(0).data(), first.record(0).data());

    // Partial, out-of-order and appended-to reads of the cached block
    // copy, and equal item().
    const std::vector<uint64_t> permuted = {5, 0, 3, 1, 4, 2};
    const std::vector<uint64_t> partial = {0, 1, 2};
    RecordBuffer shuffled;
    ds->readItems(1, permuted.data(), permuted.size(), shuffled);
    RecordBuffer prefix;
    ds->readItems(1, partial.data(), partial.size(), prefix);
    RecordBuffer appended;
    appended.append("kept");
    ds->readItems(1, all.data(), all.size(), appended);
    for (size_t i = 0; i < permuted.size(); ++i) {
        EXPECT_EQ(shuffled.record(i), ds->item(1, permuted[i]));
    }
    ASSERT_EQ(prefix.size(), partial.size());
    for (size_t i = 0; i < partial.size(); ++i) {
        EXPECT_EQ(prefix.record(i), ds->item(1, partial[i]));
    }
    ASSERT_EQ(appended.size(), 7u);
    EXPECT_EQ(appended.record(0), "kept");
    for (uint64_t i = 0; i < 6; ++i) {
        EXPECT_EQ(appended.record(i + 1), ds->item(1, i));
    }

    // A shared read outlives its dataset. The buffers above still share
    // this dataset's block, so the check uses another dataset.
    ds = makeDataset();
    RecordBuffer synthesized;
    ds->readItems(2, all.data(), all.size(), synthesized);
    RecordBuffer kept;
    ds->readItems(2, all.data(), all.size(), kept);
    ds.reset();
    expectBlock(kept, 2);
    RecordBuffer copy = kept;
    kept.clear();
    EXPECT_EQ(kept.size(), 0u);
    expectBlock(copy, 2);
    // The last buffer sharing the block appends one of its own records.
    copy.append(copy.record(5));
    ASSERT_EQ(copy.size(), 7u);
    EXPECT_EQ(copy.record(6), gen(2, 5));
}

TEST(GeneratedDatasetTest, CachedBlockReadsRaceWithCacheFills)
{
    // Two threads read one cached block, sharing it and writing to
    // their copies, while a third synthesizes and caches other blocks.
    constexpr uint64_t kBlocks = 40;
    constexpr uint64_t kItems = 50;
    auto gen = [](uint64_t b, uint64_t i) {
        return std::to_string(b * 1000 + i);
    };
    GeneratedDataset ds(kBlocks, kItems, gen,
                        [&gen](uint64_t b, const uint64_t* indices,
                               size_t count, RecordBuffer& out) {
                            for (size_t i = 0; i < count; ++i) {
                                out.append(gen(b, indices[i]));
                            }
                        });
    std::vector<uint64_t> all(kItems);
    std::iota(all.begin(), all.end(), 0);
    RecordBuffer warm;
    ds.readItems(0, all.data(), all.size(), warm);

    std::atomic<int> mismatches{0};
    auto reader = [&] {
        for (int round = 0; round < 200; ++round) {
            RecordBuffer got;
            ds.readItems(0, all.data(), all.size(), got);
            RecordBuffer written = got;
            written.append("mine");
            for (uint64_t i = 0; i < kItems; ++i) {
                if (got.record(i) != gen(0, i) ||
                    written.record(i) != gen(0, i)) {
                    ++mismatches;
                }
            }
        }
    };
    auto filler = [&] {
        for (uint64_t b = 1; b < kBlocks; ++b) {
            RecordBuffer got;
            ds.readItems(b, all.data(), all.size(), got);
            if (got.record(kItems - 1) != gen(b, kItems - 1)) {
                ++mismatches;
            }
        }
    };
    std::thread a(reader);
    std::thread b(reader);
    std::thread c(filler);
    a.join();
    b.join();
    c.join();
    EXPECT_EQ(mismatches.load(), 0);
    for (uint64_t b = 0; b < kBlocks; ++b) {
        EXPECT_EQ(ds.item(b, 7), gen(b, 7));
    }
}

}  // namespace
}  // namespace approxhadoop::hdfs
