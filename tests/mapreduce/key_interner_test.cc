/**
 * @file
 * KeyInterner: the open-addressing intern table under the batched
 * map-side path. Ids must be dense, first-seen ordered, and stable
 * across rehashes; collisions must probe, not clobber.
 */
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/key_interner.h"
#include "mapreduce/partitioner.h"

namespace approxhadoop::mr {
namespace {

TEST(KeyInternerTest, AssignsDenseIdsInFirstSeenOrder)
{
    KeyInterner interner;
    EXPECT_EQ(interner.intern("alpha"), 0u);
    EXPECT_EQ(interner.intern("beta"), 1u);
    EXPECT_EQ(interner.intern("gamma"), 2u);
    EXPECT_EQ(interner.size(), 3u);
    EXPECT_EQ(interner.key(0), "alpha");
    EXPECT_EQ(interner.key(1), "beta");
    EXPECT_EQ(interner.key(2), "gamma");
}

TEST(KeyInternerTest, RepeatLookupsReturnTheSameId)
{
    KeyInterner interner;
    uint32_t a = interner.intern("key");
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(interner.intern("key"), a);
    }
    EXPECT_EQ(interner.size(), 1u);
}

TEST(KeyInternerTest, EmptyKeyIsAValidKey)
{
    KeyInterner interner;
    uint32_t id = interner.intern("");
    EXPECT_EQ(interner.key(id), "");
    EXPECT_EQ(interner.intern(""), id);
}

TEST(KeyInternerTest, EmbeddedNulBytesArePartOfTheKey)
{
    KeyInterner interner;
    const std::string a("a\0b", 3);
    const std::string a_prefix("a\0", 2);
    uint32_t ia = interner.intern(a);
    uint32_t ip = interner.intern(a_prefix);
    uint32_t ib = interner.intern("a");
    EXPECT_EQ(interner.size(), 3u);
    EXPECT_NE(ia, ip);
    EXPECT_NE(ip, ib);
    EXPECT_EQ(interner.key(ia), a);
    EXPECT_EQ(interner.key(ip), a_prefix);
    EXPECT_EQ(interner.key(ib), "a");
    EXPECT_EQ(interner.intern(a), ia);
    EXPECT_EQ(interner.intern(a_prefix), ip);
}

TEST(KeyInternerTest, EmptyKeyBetweenNonEmptyKeys)
{
    // An empty key occupies no arena bytes: its neighbours' bounds must
    // still come out right.
    KeyInterner interner;
    EXPECT_EQ(interner.intern("left"), 0u);
    EXPECT_EQ(interner.intern(""), 1u);
    EXPECT_EQ(interner.intern("right"), 2u);
    EXPECT_EQ(interner.key(0), "left");
    EXPECT_EQ(interner.key(1), "");
    EXPECT_EQ(interner.key(2), "right");
    EXPECT_EQ(interner.intern(""), 1u);
}

TEST(KeyInternerTest, HundredThousandKeysRoundTrip)
{
    // Many arena reallocations and probe-table rehashes: every id stays
    // dense in first-seen order and every key reads back intact.
    KeyInterner interner(2);
    constexpr uint32_t kKeys = 100000;
    auto keyFor = [](uint32_t i) {
        return "key/" + std::to_string(i * 2654435761u) +
               std::string(i % 7, 'x');
    };
    for (uint32_t i = 0; i < kKeys; ++i) {
        ASSERT_EQ(interner.intern(keyFor(i)), i);
    }
    EXPECT_EQ(interner.size(), kKeys);
    EXPECT_GE(interner.slotCount(), size_t{kKeys});
    for (uint32_t i = 0; i < kKeys; ++i) {
        ASSERT_EQ(interner.key(i), keyFor(i)) << i;
        ASSERT_EQ(interner.intern(keyFor(i)), i) << i;
    }
    EXPECT_EQ(interner.size(), kKeys);
}

TEST(KeyInternerTest, CollisionsProbeInsteadOfClobbering)
{
    // A 2-slot table makes every second insertion collide immediately;
    // correctness then rests entirely on linear probing + rehash.
    KeyInterner interner(2);
    uint32_t a = interner.intern("a");
    uint32_t b = interner.intern("b");
    EXPECT_NE(a, b);
    EXPECT_EQ(interner.intern("a"), a);
    EXPECT_EQ(interner.intern("b"), b);
    EXPECT_EQ(interner.key(a), "a");
    EXPECT_EQ(interner.key(b), "b");
}

TEST(KeyInternerTest, IdsSurviveRehashGrowth)
{
    KeyInterner interner(2);
    size_t initial_slots = interner.slotCount();

    std::vector<std::string> keys;
    std::vector<uint32_t> ids;
    for (int i = 0; i < 500; ++i) {
        keys.push_back("key" + std::to_string(i));
        ids.push_back(interner.intern(keys.back()));
    }
    EXPECT_GT(interner.slotCount(), initial_slots) << "table never grew";
    EXPECT_EQ(interner.size(), keys.size());

    // Every id handed out before any number of rehashes still resolves
    // to its key, and re-interning returns the original id.
    for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(ids[i], static_cast<uint32_t>(i));
        EXPECT_EQ(interner.key(ids[i]), keys[i]);
        EXPECT_EQ(interner.intern(keys[i]), ids[i]);
    }
}

TEST(KeyInternerTest, TableGrowthKeepsSlotsAheadOfKeys)
{
    KeyInterner interner(2);
    for (int i = 0; i < 1000; ++i) {
        interner.intern("k" + std::to_string(i));
    }
    // Growth policy rehashes at 70% load, so a probe always finds an
    // empty slot; the table must be a power of two (mask probing).
    EXPECT_GT(interner.slotCount(), interner.size());
    EXPECT_EQ(interner.slotCount() & (interner.slotCount() - 1), 0u);
}

TEST(KeyInternerTest, HashMatchesPartitionerFnv1a)
{
    // The partition cache in Job::computeMapOutput maps interned id ->
    // partition; that shortcut is only sound while both sides hash the
    // same bytes the same way.
    for (const char* key : {"", "a", "proj1", "len00042", "Main_Page"}) {
        EXPECT_EQ(KeyInterner::hash(key), HashPartitioner::fnv1a(key))
            << key;
    }
}

}  // namespace
}  // namespace approxhadoop::mr
