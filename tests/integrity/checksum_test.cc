/**
 * @file
 * Unit tests for the shuffle-integrity module: the XXH64 digest (known
 * answers + streaming equivalence), the checkpoint blob codec, and
 * chunk stamping/verification/corruption.
 */
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "integrity/blob.h"
#include "integrity/checksum.h"
#include "integrity/chunk_integrity.h"
#include "mapreduce/reducer.h"
#include "support/key_value.h"

namespace approxhadoop::integrity {
namespace {

TEST(IntegrityChecksumTest, MatchesReferenceXXH64Vectors)
{
    // Published xxHash test vectors: any deviation means the digest is
    // not XXH64 and cross-version checksums would diverge.
    EXPECT_EQ(hash64("", 0, 0), 0xEF46DB3751D8E999ULL);
    EXPECT_EQ(hash64("abc", 3, 0), 0x44BC2CF5AD770999ULL);
}

TEST(IntegrityChecksumTest, StreamingMatchesOneShot)
{
    std::string data;
    for (int i = 0; i < 257; ++i) {
        data.push_back(static_cast<char>(i * 131 + 7));
    }
    uint64_t oneshot = hash64(data.data(), data.size(), 99);
    // Feed the same bytes in every possible two-part split, exercising
    // the 32-byte stripe buffer boundary handling.
    for (size_t cut = 0; cut <= data.size(); cut += 13) {
        Hasher64 h(99);
        h.update(data.data(), cut);
        h.update(data.data() + cut, data.size() - cut);
        EXPECT_EQ(h.digest(), oneshot) << "split at " << cut;
    }
}

TEST(IntegrityChecksumTest, SeedAndContentSensitivity)
{
    const char* msg = "approxhadoop";
    uint64_t base = hash64(msg, 12, 0);
    EXPECT_NE(base, hash64(msg, 12, 1));
    std::string tweaked(msg, 12);
    tweaked[5] ^= 1;
    EXPECT_NE(base, hash64(tweaked.data(), 12, 0));
}

TEST(IntegrityBlobTest, RoundTripsAllFieldTypes)
{
    BlobWriter w;
    w.putU64(0);
    w.putU64(~0ULL);
    w.putDouble(3.14159);
    w.putDouble(-0.0);
    w.putString("");
    w.putString(std::string("with\0nul", 8));
    w.putBool(true);
    w.putBool(false);

    BlobReader r(w.str());
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_EQ(r.getU64(), ~0ULL);
    EXPECT_DOUBLE_EQ(r.getDouble(), 3.14159);
    double neg_zero = r.getDouble();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));  // bit-exact, not value-equal
    EXPECT_EQ(r.getString(), "");
    EXPECT_EQ(r.getString(), std::string("with\0nul", 8));
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_TRUE(r.atEnd());
    EXPECT_NO_THROW(r.expectEnd());
}

// BlobReader keeps a reference to its buffer, so binding a temporary
// (a dangling reader) must not compile.
static_assert(!std::is_constructible_v<BlobReader, std::string&&>);

TEST(IntegrityBlobTest, TruncatedAndTrailingBytesThrow)
{
    BlobWriter w;
    w.putU64(7);
    std::string blob = w.str();

    // Each buffer is a named string that outlives its reader.
    const std::string head = blob.substr(0, 3);
    BlobReader truncated(head);
    EXPECT_THROW(truncated.getU64(), std::runtime_error);

    const std::string padded = blob + "x";
    BlobReader trailing(padded);
    EXPECT_EQ(trailing.getU64(), 7u);
    EXPECT_FALSE(trailing.atEnd());
    EXPECT_THROW(trailing.expectEnd(), std::runtime_error);
}

TEST(IntegrityBlobTest, ZeroLengthInputThrowsOnEveryGetter)
{
    const std::string empty;
    EXPECT_TRUE(BlobReader(empty).atEnd());
    EXPECT_NO_THROW(BlobReader(empty).expectEnd());
    {
        BlobReader r(empty);
        EXPECT_THROW(r.getU64(), std::runtime_error);
    }
    {
        BlobReader r(empty);
        EXPECT_THROW(r.getDouble(), std::runtime_error);
    }
    {
        BlobReader r(empty);
        EXPECT_THROW(r.getString(), std::runtime_error);
    }
    {
        BlobReader r(empty);
        EXPECT_THROW(r.getBool(), std::runtime_error);
    }
}

TEST(IntegrityBlobTest, EveryTruncationPointOfAMixedBlobThrows)
{
    BlobWriter w;
    w.putU64(42);
    w.putDouble(2.5);
    w.putString("checkpoint");
    w.putBool(true);
    const std::string blob = w.str();

    // A corrupt checkpoint may be cut anywhere; every prefix must fail
    // with an exception (never read out of bounds or return garbage).
    for (size_t cut = 0; cut < blob.size(); ++cut) {
        std::string prefix = blob.substr(0, cut);  // BlobReader keeps a ref
        BlobReader r(prefix);
        EXPECT_THROW(
            {
                r.getU64();
                r.getDouble();
                r.getString();
                r.getBool();
            },
            std::runtime_error)
            << "prefix of " << cut << " bytes parsed cleanly";
    }
}

TEST(IntegrityBlobTest, OversizedStringLengthPrefixThrowsNotAllocates)
{
    // A corrupted length prefix can claim a string far larger than the
    // blob (or than memory). The reader must reject it up front instead
    // of attempting a huge allocation or reading past the buffer.
    BlobWriter w;
    w.putU64(~0ULL);  // string length 2^64-1, no payload
    {
        BlobReader r(w.str());
        EXPECT_THROW(r.getString(), std::runtime_error);
    }

    BlobWriter w2;
    w2.putU64(1000);  // claims 1000 bytes, provides 4
    std::string blob = w2.str() + "abcd";
    {
        BlobReader r(blob);
        EXPECT_THROW(r.getString(), std::runtime_error);
    }
}

mr::MapOutputChunk
sampleChunk()
{
    mr::MapOutputChunk chunk;
    chunk.map_task = 11;
    chunk.items_total = 400;
    chunk.items_processed = 260;
    chunk.records_skipped = 3;
    mr::setRecords(chunk, {{"alpha", 1.5}, {"beta", -2.25}, {"gamma", 1e9}});
    return chunk;
}

TEST(IntegrityChunkTest, StampThenVerifyHolds)
{
    mr::MapOutputChunk chunk = sampleChunk();
    EXPECT_FALSE(verifyChunk(chunk));  // unstamped
    stampChunk(chunk);
    EXPECT_NE(chunk.checksum, 0u);
    EXPECT_TRUE(verifyChunk(chunk));
}

TEST(IntegrityChunkTest, AnyFieldMutationBreaksVerification)
{
    mr::MapOutputChunk base = sampleChunk();
    stampChunk(base);

    auto mutate = [&](auto&& fn) {
        mr::MapOutputChunk c = base;
        fn(c);
        return verifyChunk(c);
    };
    EXPECT_FALSE(mutate([](auto& c) { c.records[1].value += 1e-9; }));
    EXPECT_FALSE(mutate([](auto& c) {
        std::vector<mr::KeyValue> records = mr::keyValues(c);
        records[0].key = "alphA";
        mr::setRecords(c, records);
    }));
    EXPECT_FALSE(mutate([](auto& c) { c.items_processed ^= 1; }));
    EXPECT_FALSE(mutate([](auto& c) { c.records_skipped += 1; }));
    EXPECT_FALSE(mutate([](auto& c) { c.map_task += 1; }));
    EXPECT_FALSE(mutate([](auto& c) { c.records.pop_back(); }));
}

TEST(IntegrityChunkTest, InjectedCorruptionIsAlwaysDetected)
{
    mr::MapOutputChunk chunk = sampleChunk();
    stampChunk(chunk);
    for (uint64_t s = 0; s < 64; ++s) {
        mr::MapOutputChunk damaged = chunk;
        Rng rng(0xFEEDu + s);
        corruptChunk(damaged, rng);
        EXPECT_FALSE(verifyChunk(damaged)) << "stream " << s;
    }
}

TEST(IntegrityChunkTest, EmptyChunkCorruptionIsDetected)
{
    mr::MapOutputChunk chunk;
    chunk.map_task = 3;
    chunk.items_total = 100;
    chunk.items_processed = 100;
    stampChunk(chunk);
    EXPECT_TRUE(verifyChunk(chunk));
    Rng rng(1234);
    corruptChunk(chunk, rng);
    EXPECT_FALSE(verifyChunk(chunk));
}

/** A chunk of three records whose keys are @p key_len bytes long (some
 *  bytes >= 0x80), with -0.0, a subnormal and NaN among the values. */
mr::MapOutputChunk
goldenChunk(size_t key_len)
{
    mr::MapOutputChunk chunk;
    chunk.map_task = 17;
    chunk.items_total = 400;
    chunk.items_processed = 123;
    chunk.records_skipped = 2;
    std::vector<mr::KeyValue> records;
    for (int i = 0; i < 3; ++i) {
        std::string key;
        for (size_t b = 0; b < key_len; ++b) {
            key.push_back(static_cast<char>((b * 37 + i * 11 + 0x61) & 0xFF));
        }
        records.push_back(
            {key, 1.5 * i - 0.25, -0.0, 1e-310,
             i == 2 ? std::numeric_limits<double>::quiet_NaN() : 3.0});
    }
    mr::setRecords(chunk, records);
    return chunk;
}

TEST(IntegrityChunkTest, DigestIsPinned)
{
    // Recorded before the digest was computed one hash call per
    // record: journals and shuffle stamps depend on these exact values.
    // Key lengths straddle the 32-byte stripe of the hash.
    const std::pair<size_t, uint64_t> golden[] = {
        {0, 0x497B0F91C6B8390AULL},  {7, 0x6E5862EF508CAE89ULL},
        {31, 0x45B550025E9C0486ULL}, {32, 0xFF4B19C1230A6B3CULL},
        {33, 0x561121946CCC9546ULL}, {70, 0x062D91FEC125F6E0ULL},
    };
    for (const auto& [key_len, digest] : golden) {
        EXPECT_EQ(chunkChecksum(goldenChunk(key_len)), digest)
            << "key length " << key_len;
    }
    mr::MapOutputChunk empty = goldenChunk(0);
    empty.records.clear();
    EXPECT_EQ(chunkChecksum(empty), 0x2294B6BCE602E63FULL);
}

/** The digest as defined: the metadata, the record count, then every
 *  record field by field through Hasher64's typed updates. */
uint64_t
fieldByFieldChecksum(const mr::MapOutputChunk& chunk)
{
    Hasher64 h(0x5CA1AB1E0DDBA11ULL);
    h.update(chunk.map_task);
    h.update(chunk.items_total);
    h.update(chunk.items_processed);
    h.update(chunk.records_skipped);
    h.update(static_cast<uint64_t>(chunk.records.size()));
    for (const mr::KeyValue& kv : mr::keyValues(chunk)) {
        h.update(kv.key);
        h.update(kv.value);
        h.update(kv.value2);
        h.update(kv.value3);
        h.update(kv.value4);
    }
    return h.digest();
}

TEST(IntegrityChunkTest, DigestMatchesFieldByFieldReference)
{
    std::mt19937_64 gen(20261017);
    for (int trial = 0; trial < 300; ++trial) {
        mr::MapOutputChunk chunk;
        chunk.map_task = gen();
        chunk.items_total = gen() % 1000;
        chunk.items_processed = gen() % 1000;
        chunk.records_skipped = gen() % 4;
        std::vector<mr::KeyValue> records;
        size_t n = gen() % 20;
        for (size_t i = 0; i < n; ++i) {
            mr::KeyValue kv;
            size_t len = gen() % 80;
            for (size_t b = 0; b < len; ++b) {
                kv.key.push_back(static_cast<char>(gen()));
            }
            kv.value = std::bit_cast<double>(gen());
            kv.value2 = std::bit_cast<double>(gen());
            kv.value3 = static_cast<double>(gen() % 100);
            kv.value4 = -0.0;
            records.push_back(std::move(kv));
        }
        mr::setRecords(chunk, records);
        EXPECT_EQ(chunkChecksum(chunk), fieldByFieldChecksum(chunk))
            << "trial " << trial;
    }
}

TEST(ChecksumTest, BulkDigestMatchesFieldByFieldReference)
{
    // The digest hashes the record stream through a fixed-size buffer.
    // Random chunks of up to a few hundred rows over a small key pool
    // (so keys repeat and the key table dedupes them) cover the empty
    // key, keys longer than the buffer, rows straddling a flush, random
    // bits in all four values, and the empty chunk.
    std::mt19937_64 gen(20261019);
    for (int trial = 0; trial < 120; ++trial) {
        std::vector<std::string> pool = {""};
        for (size_t lengths : {1, 7, 33, 4095, 4096, 4097, 9000}) {
            std::string key;
            for (size_t b = 0; b < lengths; ++b) {
                key.push_back(static_cast<char>(gen()));
            }
            pool.push_back(key);
        }
        for (int k = 0; k < 6; ++k) {
            pool.push_back(std::string(gen() % 60, static_cast<char>(gen())));
        }
        mr::MapOutputChunk chunk;
        chunk.map_task = gen();
        chunk.items_total = gen();
        chunk.items_processed = gen();
        chunk.records_skipped = gen();
        std::vector<mr::KeyValue> records;
        size_t n = trial % 10 == 0 ? 0 : gen() % 400;
        for (size_t i = 0; i < n; ++i) {
            // Mostly short keys, so most flushes split a row.
            const std::string& key =
                pool[gen() % 8 == 0 ? gen() % pool.size() : 8 + gen() % 6];
            records.push_back({key, std::bit_cast<double>(gen()),
                               std::bit_cast<double>(gen()),
                               std::bit_cast<double>(gen()),
                               std::bit_cast<double>(gen())});
        }
        mr::setRecords(chunk, records);
        ASSERT_EQ(chunk.records.size(), n);
        EXPECT_EQ(chunkChecksum(chunk), fieldByFieldChecksum(chunk))
            << "trial " << trial << ", " << n << " rows";
    }
}

}  // namespace
}  // namespace approxhadoop::integrity
