#include "mapreduce/reducer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "integrity/blob.h"
#include "support/key_value.h"

namespace approxhadoop::mr {
namespace {

MapOutputChunk
chunk(uint64_t task, std::vector<KeyValue> records)
{
    MapOutputChunk c;
    c.map_task = task;
    c.items_total = 10;
    c.items_processed = 10;
    setRecords(c, records);
    return c;
}

TEST(SumReducerTest, SumsPerKey)
{
    SumReducer r;
    r.consume(chunk(0, {{"a", 1.0, 0, 0, 0}, {"b", 2.0, 0, 0, 0}}));
    r.consume(chunk(1, {{"a", 3.0, 0, 0, 0}}));
    ReduceContext ctx(2, 20);
    r.finalize(ctx);
    ASSERT_EQ(ctx.output().size(), 2u);
    EXPECT_EQ(ctx.output()[0].key, "a");
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 4.0);
    EXPECT_EQ(ctx.output()[1].key, "b");
    EXPECT_DOUBLE_EQ(ctx.output()[1].value, 2.0);
    EXPECT_FALSE(ctx.output()[0].has_bound);
}

TEST(CountReducerTest, CountsRecords)
{
    CountReducer r;
    r.consume(chunk(0, {{"x", 5.0, 0, 0, 0}, {"x", 7.0, 0, 0, 0}}));
    ReduceContext ctx(1, 10);
    r.finalize(ctx);
    ASSERT_EQ(ctx.output().size(), 1u);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 2.0);
}

TEST(AverageReducerTest, Averages)
{
    AverageReducer r;
    r.consume(chunk(0, {{"x", 2.0, 0, 0, 0}, {"x", 4.0, 0, 0, 0}}));
    ReduceContext ctx(1, 10);
    r.finalize(ctx);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 3.0);
}

TEST(MinMaxReducerTest, Extremes)
{
    MinReducer mn;
    MaxReducer mx;
    auto c = chunk(0, {{"x", 5.0, 0, 0, 0},
                       {"x", -2.0, 0, 0, 0},
                       {"x", 9.0, 0, 0, 0}});
    mn.consume(c);
    mx.consume(c);
    ReduceContext ctx1(1, 10);
    ReduceContext ctx2(1, 10);
    mn.finalize(ctx1);
    mx.finalize(ctx2);
    EXPECT_DOUBLE_EQ(ctx1.output()[0].value, -2.0);
    EXPECT_DOUBLE_EQ(ctx2.output()[0].value, 9.0);
}

// --- FoldReducer: bit-identity with the buffered reduce(key, values) ---

using Fold = FoldReducer::Fold;

/** The buffered algorithm the fold replaces: group every record by key
 *  in a std::map, then reduce each key's values at finalize. */
std::vector<OutputRecord>
bufferedReference(Fold fold, const std::vector<MapOutputChunk>& chunks)
{
    std::map<std::string, std::vector<double>> groups;
    for (const MapOutputChunk& c : chunks) {
        for (const KeyValue& kv : keyValues(c)) {
            groups[kv.key].push_back(kv.value);
        }
    }
    ReduceContext ctx(1, 1);
    for (const auto& [key, values] : groups) {
        double sum = 0.0;
        for (double v : values) {
            sum += v;
        }
        double best = values.front();
        for (double v : values) {
            best = fold == Fold::kMin ? std::min(best, v) : std::max(best, v);
        }
        switch (fold) {
        case Fold::kSum:
            ctx.write(key, sum);
            break;
        case Fold::kCount:
            ctx.write(key, static_cast<double>(values.size()));
            break;
        case Fold::kAverage:
            ctx.write(key, sum / static_cast<double>(values.size()));
            break;
        case Fold::kMin:
        case Fold::kMax:
            ctx.write(key, best);
            break;
        }
    }
    return ctx.output();
}

/** Seeded chunks over a key pool with an empty key, bytes >= 0x80 and
 *  keys longer than a hash stripe; values include -0.0, NaN, infinities
 *  and subnormals, and every key recurs across chunks. */
std::vector<MapOutputChunk>
randomChunks(uint64_t seed, size_t num_chunks)
{
    const std::vector<std::string> keys = {
        "",
        "a",
        "b",
        "ab",
        std::string("\x80\xff\xc3\xa9", 4),
        std::string("z\xfe", 2),
        std::string(40, 'k'),
        "B",
        "key/with/slashes",
    };
    const double kNaN = std::numeric_limits<double>::quiet_NaN();
    const double kDenorm = std::numeric_limits<double>::denorm_min();
    const std::vector<double> specials = {
        0.0, -0.0, kNaN, -kNaN, kDenorm, -3 * kDenorm,
        std::numeric_limits<double>::infinity(), 1e308, -1e-310};
    std::mt19937_64 gen(seed);
    std::vector<MapOutputChunk> chunks;
    for (size_t c = 0; c < num_chunks; ++c) {
        std::vector<KeyValue> records;
        size_t n = gen() % 12;
        for (size_t i = 0; i < n; ++i) {
            KeyValue kv;
            kv.key = keys[gen() % keys.size()];
            if (gen() % 8 == 0) {
                kv.value = specials[gen() % specials.size()];
            } else {
                kv.value = std::ldexp(static_cast<double>(gen() >> 11),
                                      -40) - 4096.0;
            }
            records.push_back(std::move(kv));
        }
        chunks.push_back(chunk(c, std::move(records)));
    }
    return chunks;
}

void
expectSameBits(const std::vector<OutputRecord>& got,
               const std::vector<OutputRecord>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].key, want[i].key) << "record " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].value),
                  std::bit_cast<uint64_t>(want[i].value))
            << "key " << want[i].key;
        EXPECT_FALSE(got[i].has_bound);
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].lower),
                  std::bit_cast<uint64_t>(want[i].lower));
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].upper),
                  std::bit_cast<uint64_t>(want[i].upper));
    }
}

std::vector<OutputRecord>
finalOutput(Reducer& r)
{
    ReduceContext ctx(1, 1);
    r.finalize(ctx);
    return ctx.output();
}

struct FoldCase
{
    Fold fold;
    std::function<std::unique_ptr<Reducer>()> make;
};

const FoldCase kFolds[] = {
    {Fold::kSum, [] { return std::make_unique<SumReducer>(); }},
    {Fold::kCount, [] { return std::make_unique<CountReducer>(); }},
    {Fold::kAverage, [] { return std::make_unique<AverageReducer>(); }},
    {Fold::kMin, [] { return std::make_unique<MinReducer>(); }},
    {Fold::kMax, [] { return std::make_unique<MaxReducer>(); }},
};

TEST(FoldReducerTest, MatchesBufferedReduceBitForBit)
{
    for (const FoldCase& f : kFolds) {
        for (uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE("fold " + std::to_string(static_cast<int>(f.fold)) +
                         " seed " + std::to_string(seed));
            std::vector<MapOutputChunk> chunks = randomChunks(seed, 30);
            std::unique_ptr<Reducer> r = f.make();
            for (const MapOutputChunk& c : chunks) {
                r->consume(c);
            }
            expectSameBits(finalOutput(*r),
                           bufferedReference(f.fold, chunks));
        }
    }
}

TEST(FoldReducerTest, CheckpointAtEveryCutResumesByteForByte)
{
    for (const FoldCase& f : kFolds) {
        std::vector<MapOutputChunk> chunks = randomChunks(7, 24);
        // The uninterrupted reducer's blob after each chunk.
        std::unique_ptr<Reducer> ref = f.make();
        std::vector<std::string> ref_blobs(chunks.size() + 1);
        ASSERT_TRUE(ref->checkpoint(ref_blobs[0]));
        for (size_t i = 0; i < chunks.size(); ++i) {
            ref->consume(chunks[i]);
            ASSERT_TRUE(ref->checkpoint(ref_blobs[i + 1]));
        }
        std::vector<OutputRecord> ref_out = finalOutput(*ref);

        for (size_t cut = 0; cut <= chunks.size(); ++cut) {
            SCOPED_TRACE("fold " + std::to_string(static_cast<int>(f.fold)) +
                         " cut " + std::to_string(cut));
            std::unique_ptr<Reducer> crashed = f.make();
            for (size_t i = 0; i < cut; ++i) {
                crashed->consume(chunks[i]);
            }
            std::string blob;
            ASSERT_TRUE(crashed->checkpoint(blob));
            EXPECT_EQ(blob, ref_blobs[cut]);
            std::unique_ptr<Reducer> resumed = f.make();
            // Dirty the fresh reducer first: restore replaces its state.
            resumed->consume(chunks[0]);
            ASSERT_TRUE(resumed->restore(blob));
            for (size_t i = cut; i < chunks.size(); ++i) {
                resumed->consume(chunks[i]);
                std::string later;
                ASSERT_TRUE(resumed->checkpoint(later));
                EXPECT_EQ(later, ref_blobs[i + 1]) << "after chunk " << i;
            }
            expectSameBits(finalOutput(*resumed), ref_out);
        }
    }
}

TEST(FoldReducerTest, CheckpointGrowsWithKeysNotRecords)
{
    SumReducer r;
    std::vector<KeyValue> records;
    for (int i = 0; i < 1000; ++i) {
        records.push_back({i % 2 == 0 ? "even" : "odd", 1.0, 0, 0, 0});
    }
    r.consume(chunk(0, records));
    std::string one;
    ASSERT_TRUE(r.checkpoint(one));
    EXPECT_LT(one.size(), 128u);
    for (uint64_t task = 1; task < 10; ++task) {
        r.consume(chunk(task, records));
    }
    std::string ten;
    ASSERT_TRUE(r.checkpoint(ten));
    EXPECT_EQ(ten.size(), one.size()) << "blob grew with records";
    // A new key appends at the end: past the key-count header, the
    // earlier keys' records are untouched.
    r.consume(chunk(10, {{"third", 1.0, 0, 0, 0}}));
    std::string more;
    ASSERT_TRUE(r.checkpoint(more));
    EXPECT_GT(more.size(), ten.size());
    EXPECT_EQ(more.substr(8, ten.size() - 8), ten.substr(8));
}

/** The keys a FoldReducer's checkpoint lists, in its order (ids). */
std::vector<std::string>
checkpointKeys(const Reducer& r)
{
    std::string blob;
    EXPECT_TRUE(r.checkpoint(blob));
    integrity::BlobReader in(blob);
    std::vector<std::string> keys(in.getU64());
    for (std::string& key : keys) {
        key = in.getString();
        in.getDouble();
        in.getU64();
    }
    in.expectEnd();
    return keys;
}

TEST(FoldReducerTest, InternsKeysInFirstRowOrder)
{
    // Keys repeat within and across chunks, and no chunk lists its keys
    // in sorted order: ids must follow each key's first row.
    for (const FoldCase& f : kFolds) {
        std::unique_ptr<Reducer> r = f.make();
        r->consume(chunk(0, {{"b", 1.0, 0, 0, 0},
                             {"a", 2.0, 0, 0, 0},
                             {"b", 3.0, 0, 0, 0},
                             {"c", 4.0, 0, 0, 0},
                             {"a", 5.0, 0, 0, 0}}));
        EXPECT_EQ(checkpointKeys(*r),
                  (std::vector<std::string>{"b", "a", "c"}));
        r->consume(chunk(1, {{"e", 1.0, 0, 0, 0},
                             {"a", 1.0, 0, 0, 0},
                             {"d", 1.0, 0, 0, 0},
                             {"e", 1.0, 0, 0, 0},
                             {"b", 1.0, 0, 0, 0},
                             {"d", 1.0, 0, 0, 0}}));
        r->consume(chunk(2, {{"c", 1.0, 0, 0, 0},
                             {"f", 1.0, 0, 0, 0},
                             {"c", 1.0, 0, 0, 0}}));
        EXPECT_EQ(checkpointKeys(*r),
                  (std::vector<std::string>{"b", "a", "c", "e", "d", "f"}));
    }
}

TEST(FoldReducerTest, RestoreRejectsMalformedBlobs)
{
    SumReducer r;
    r.consume(chunk(0, {{"a", 1.0, 0, 0, 0}, {"b", 2.0, 0, 0, 0}}));
    std::string blob;
    ASSERT_TRUE(r.checkpoint(blob));
    SumReducer fresh;
    EXPECT_THROW(fresh.restore(blob.substr(0, blob.size() - 1)),
                 std::runtime_error);
    EXPECT_THROW(fresh.restore(blob + "x"), std::runtime_error);
    // The same key twice would split one accumulator in two.
    integrity::BlobWriter twice;
    twice.putU64(2);
    for (int i = 0; i < 2; ++i) {
        twice.putString("a");
        twice.putDouble(1.0);
        twice.putU64(1);
    }
    EXPECT_THROW(fresh.restore(twice.str()), std::runtime_error);
}

TEST(ReduceContextTest, BoundedWrite)
{
    ReduceContext ctx(4, 40);
    ctx.write("k", 10.0, 8.0, 13.0);
    ASSERT_EQ(ctx.output().size(), 1u);
    const OutputRecord& r = ctx.output()[0];
    EXPECT_TRUE(r.has_bound);
    EXPECT_DOUBLE_EQ(r.errorBound(), 3.0);
    EXPECT_NEAR(r.relativeError(), 0.3, 1e-12);
    EXPECT_EQ(ctx.totalMapTasks(), 4u);
    EXPECT_EQ(ctx.totalItems(), 40u);
}

TEST(OutputRecordTest, PreciseRecordHasZeroError)
{
    OutputRecord r;
    r.key = "k";
    r.value = 5.0;
    EXPECT_EQ(r.errorBound(), 0.0);
    EXPECT_EQ(r.relativeError(), 0.0);
}

}  // namespace
}  // namespace approxhadoop::mr
