/**
 * @file
 * KeyInterner: the open-addressing intern table under the batched
 * map-side path. Ids must be dense, first-seen ordered, and stable
 * across rehashes; collisions must probe, not clobber.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/key_interner.h"

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
        interner.intern(std::string("k").append(std::to_string(i)));
    }
    // Growth policy rehashes at 70% load, so a probe always finds an
    // empty slot; the table must be a power of two (mask probing).
    EXPECT_GT(interner.slotCount(), interner.size());
    EXPECT_EQ(interner.slotCount() & (interner.slotCount() - 1), 0u);
}

TEST(KeyInternerTest, OneByteApartKeysGetDistinctIds)
{
    // Every key length the hash and the compare read differently (0-3
    // bytes, 4-7, the 8-16 word pair, 17+ in 16-byte steps), each with
    // one byte changed at every position. A 4-slot table makes rehashes
    // and long probe chains run. Each key is interned from a buffer of
    // exactly its own size, so a sanitizer build catches any load past
    // its last byte.
    KeyInterner interner(4);
    std::map<std::string, uint32_t> reference;
    std::vector<std::string> first_seen;
    auto internExact = [&interner](const std::string& key) {
        std::vector<char> exact(key.begin(), key.end());
        return interner.intern(std::string_view(exact.data(), exact.size()));
    };
    auto check = [&](const std::string& key) {
        auto [it, inserted] = reference.emplace(
            key, static_cast<uint32_t>(reference.size()));
        if (inserted) {
            first_seen.push_back(key);
        }
        EXPECT_EQ(internExact(key), it->second)
            << "length " << key.size();
    };
    for (size_t length = 0; length <= 40; ++length) {
        std::string base;
        for (size_t i = 0; i < length; ++i) {
            base.push_back(static_cast<char>('a' + i % 26));
        }
        check(base);
        for (size_t pos = 0; pos < length; ++pos) {
            for (char byte : {'\0', '\x80', '\xff'}) {
                std::string key = base;
                key[pos] = byte;
                check(key);
            }
        }
    }
    ASSERT_EQ(interner.size(), reference.size());
    for (uint32_t id = 0; id < first_seen.size(); ++id) {
        EXPECT_EQ(interner.key(id), first_seen[id]) << id;
        EXPECT_EQ(internExact(first_seen[id]), id) << id;
    }
    EXPECT_EQ(interner.size(), first_seen.size());
}

TEST(KeyInternerTest, TagCollisionsCompareKeyBytes)
{
    // Two keys whose hashes agree in the slot tag (upper 32 bits) and in
    // the low bits that pick a 4-slot table's first probe: the second
    // key's probe meets the first key's slot with a matching tag, so only
    // the byte compare tells them apart. A birthday search finds such a
    // pair in each family: 16-byte keys that differ only in their last
    // word, the same keys reversed (differing only in their first word),
    // and 11-byte bin keys.
    auto suffixVaries = [](uint64_t i) {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "key/%012llu",
                      static_cast<unsigned long long>(i));
        return std::string(buf, 16);
    };
    auto prefixVaries = [&suffixVaries](uint64_t i) {
        std::string key = suffixVaries(i);
        std::reverse(key.begin(), key.end());
        return key;
    };
    auto binKey = [](uint64_t i) {
        char buf[24];
        int n = std::snprintf(buf, sizeof(buf), "len%08llu",
                              static_cast<unsigned long long>(i * 100));
        return std::string(buf, static_cast<size_t>(n));
    };
    const std::vector<std::function<std::string(uint64_t)>> families = {
        suffixVaries, prefixVaries, binKey};
    for (size_t f = 0; f < families.size(); ++f) {
        std::unordered_map<uint64_t, uint64_t> seen;
        seen.reserve(1 << 19);
        std::string first;
        std::string second;
        for (uint64_t i = 0; i < 4000000 && second.empty(); ++i) {
            std::string key = families[f](i);
            uint64_t h = KeyInterner::hash(key);
            uint64_t probe_and_tag = (h >> 32) << 2 | (h & 3);
            auto [it, inserted] = seen.emplace(probe_and_tag, i);
            if (!inserted) {
                first = families[f](it->second);
                second = key;
            }
        }
        ASSERT_FALSE(second.empty()) << "family " << f;
        ASSERT_NE(first, second);

        KeyInterner interner(4);
        ASSERT_EQ(interner.slotCount(), 4u);
        EXPECT_EQ(interner.intern(first), 0u) << first;
        EXPECT_EQ(interner.intern(second), 1u) << second;
        EXPECT_EQ(interner.intern(first), 0u) << first;
        EXPECT_EQ(interner.intern(second), 1u) << second;
        EXPECT_EQ(interner.key(0), first);
        EXPECT_EQ(interner.key(1), second);
    }
}

TEST(KeyInternerTest, IdsDoNotDependOnTableSize)
{
    // One key sequence — repeats, an empty key, a NUL byte, key lengths
    // on both sides of the word-pair compare — through a 4-slot table
    // that rehashes many times, the default table, a table reserved to
    // the cap up front and one reserved halfway through.
    std::vector<std::string> sequence;
    for (int i = 0; i < 3000; ++i) {
        int k = i % 7 == 0 ? i / 7 : (i * 37) % 1500;
        std::string key = "key" + std::string(static_cast<size_t>(k % 19), '.') +
                          std::to_string(k);
        sequence.push_back(key);
    }
    sequence.insert(sequence.begin() + 100, "");
    sequence.insert(sequence.begin() + 200, std::string("nul\0byte", 8));
    KeyInterner tiny(4);
    KeyInterner standard;
    KeyInterner reserved;
    reserved.reserve(4096);
    EXPECT_EQ(reserved.slotCount(), KeyInterner::kMaxReservedSlots);
    KeyInterner halfway(4);
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < sequence.size(); ++i) {
        if (i == sequence.size() / 2) {
            halfway.reserve(KeyInterner::kMaxReservedSlots);
        }
        uint32_t id = tiny.intern(sequence[i]);
        ids.push_back(id);
        ASSERT_EQ(standard.intern(sequence[i]), id) << i;
        ASSERT_EQ(reserved.intern(sequence[i]), id) << i;
        ASSERT_EQ(halfway.intern(sequence[i]), id) << i;
    }
    ASSERT_GT(tiny.size(), 1000u);
    for (KeyInterner* other : {&standard, &reserved, &halfway}) {
        ASSERT_EQ(other->size(), tiny.size());
        for (uint32_t id = 0; id < tiny.size(); ++id) {
            ASSERT_EQ(other->key(id), tiny.key(id)) << id;
        }
    }
    // Reserving below the current size changes nothing, and the cap
    // holds however many keys are asked for.
    size_t grown = standard.slotCount();
    standard.reserve(10);
    standard.reserve(standard.size());
    EXPECT_EQ(standard.slotCount(), grown);
    KeyInterner capped;
    capped.reserve(SIZE_MAX);
    EXPECT_EQ(capped.slotCount(), KeyInterner::kMaxReservedSlots);

    std::vector<KeyTable> tables;
    for (KeyInterner* interner : {&tiny, &standard, &reserved, &halfway}) {
        tables.push_back(std::move(*interner).release());
    }
    for (const KeyTable& table : tables) {
        ASSERT_EQ(table.size(), tables[0].size());
        for (uint32_t id = 0; id < table.size(); ++id) {
            ASSERT_EQ(table.key(id), tables[0].key(id)) << id;
        }
    }
    for (size_t i = 0; i < sequence.size(); ++i) {
        ASSERT_EQ(tables[0].key(ids[i]), sequence[i]) << i;
    }
}

TEST(KeyedStateTest, BindsChunkKeysInFirstSeenOrder)
{
    KeyedState<int> state;
    KeyTable first;
    first.add("b");
    first.add("a");
    EXPECT_EQ(state.bind(first), (std::vector<uint32_t>{0, 1}));
    state[0] = 7;
    KeyTable second;
    second.add("c");
    second.add("b");
    EXPECT_EQ(state.bind(second), (std::vector<uint32_t>{2, 0}));
    ASSERT_EQ(state.size(), 3u);
    // A known key keeps its state; a new key starts default.
    EXPECT_EQ(state[0], 7);
    EXPECT_EQ(state[2], 0);
    EXPECT_EQ(state.key(2), "c");
}

TEST(KeyedStateTest, SortedWalkIsStdStringOrder)
{
    // Keys with an embedded '\0', bytes >= 0x80 and the empty key,
    // sorted in batches: the merged order is std::string's.
    const std::vector<std::string> batches[] = {
        {"zz", std::string("a\0b", 3), "\xff"},
        {"", "a", std::string("a\0", 2)},
        {"\x80z", "m", "a"},
    };
    KeyedState<int> state;
    std::vector<std::string> want;
    for (const std::vector<std::string>& batch : batches) {
        KeyTable chunk;
        for (const std::string& key : batch) {
            chunk.add(key);
            if (std::find(want.begin(), want.end(), key) == want.end()) {
                want.push_back(key);
            }
        }
        state.bind(chunk);
        std::sort(want.begin(), want.end());
        std::vector<std::string> got;
        for (uint32_t id : state.sorted()) {
            got.emplace_back(state.key(id));
        }
        EXPECT_EQ(got, want);
        for (uint32_t id = 0; id < state.size(); ++id) {
            state[id] = static_cast<int>(id);
        }
        for (uint32_t id = 0; id < state.size(); ++id) {
            const int* found = state.find(state.key(id));
            ASSERT_NE(found, nullptr) << id;
            EXPECT_EQ(*found, static_cast<int>(id));
        }
    }
    EXPECT_EQ(state.find("b"), nullptr);
    EXPECT_EQ(state.find(std::string("a\0c", 3)), nullptr);
}

TEST(KeyedStateTest, AddRejectsARepeatedKey)
{
    KeyedState<int> state;
    state.add("x") = 1;
    state.add(std::string("x\0", 2)) = 2;
    EXPECT_THROW(state.add("x"), std::runtime_error);
    ASSERT_EQ(state.size(), 2u);
    EXPECT_EQ(*state.find("x"), 1);
    EXPECT_EQ(*state.find(std::string("x\0", 2)), 2);
}

}  // namespace
}  // namespace approxhadoop::mr
