#include "mapreduce/partitioner.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

namespace approxhadoop::mr {
namespace {

TEST(HashPartitionerTest, InRange)
{
    HashPartitioner p;
    for (int i = 0; i < 1000; ++i) {
        uint32_t part = p.partition("key" + std::to_string(i), 7);
        EXPECT_LT(part, 7u);
    }
}

TEST(HashPartitionerTest, DeterministicAcrossInstances)
{
    HashPartitioner a;
    HashPartitioner b;
    EXPECT_EQ(a.partition("hello", 13), b.partition("hello", 13));
}

TEST(HashPartitionerTest, SinglePartition)
{
    HashPartitioner p;
    EXPECT_EQ(p.partition("anything", 1), 0u);
}

TEST(HashPartitionerTest, SpreadsKeysEvenly)
{
    HashPartitioner p;
    std::map<uint32_t, int> counts;
    const int kKeys = 10000;
    for (int i = 0; i < kKeys; ++i) {
        ++counts[p.partition("key" + std::to_string(i), 10)];
    }
    for (const auto& [part, count] : counts) {
        EXPECT_GT(count, kKeys / 10 * 0.8);
        EXPECT_LT(count, kKeys / 10 * 1.2);
    }
}

TEST(HashPartitionerTest, Fnv1aKnownValue)
{
    // FNV-1a of the empty string is the offset basis.
    EXPECT_EQ(HashPartitioner::fnv1a(""), 0xcbf29ce484222325ULL);
    // FNV-1a of "a" is a published vector.
    EXPECT_EQ(HashPartitioner::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    // Partition assignment is part of every multi-reducer result: pin a
    // key of each registry shape byte for byte.
    EXPECT_EQ(HashPartitioner::fnv1a("len00000100"), 0xa04b0aba5651d297ULL);
    EXPECT_EQ(HashPartitioner::fnv1a("proj1"), 0xf95b55246d9b3945ULL);
    EXPECT_EQ(HashPartitioner::fnv1a("Main_Page"), 0x7b22eb069273b466ULL);
}

}  // namespace
}  // namespace approxhadoop::mr
