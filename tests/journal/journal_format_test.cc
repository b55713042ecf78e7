/**
 * @file
 * The journal file format's crash-consistency contract, byte by byte:
 *
 *  - RunSpec and Epoch codecs round-trip every field;
 *  - a recorded image parses back to exactly the sealed epochs;
 *  - truncation at EVERY byte offset either recovers to the last
 *    sealed epoch (torn tail at EOF) or throws JournalError (severed
 *    header) — it never crashes and never invents an epoch;
 *  - corrupting bytes of a sealed frame is detected (checksum stamp),
 *    never silently accepted as different epoch contents;
 *  - reducer state is delta-encoded against the previous epoch, and a
 *    delta that overruns its blob or lacks a base is rejected;
 *  - resume verifies the sealed prefix field-by-field and rejects a
 *    divergent re-execution with a named-field diagnostic.
 */
#include "journal/journal.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "integrity/blob.h"

namespace approxhadoop::journal {
namespace {

RunSpec
makeSpec()
{
    RunSpec spec;
    spec.app = "wikilength";
    spec.precise = false;
    spec.blocks = 120;
    spec.items = 200;
    spec.seed = 7;
    spec.reducers = 4;
    spec.threads = 8;
    spec.cluster = "10xeon+20atom";
    spec.sampling = 0.2;
    spec.drop = 0.1;
    spec.has_target = true;
    spec.target = 0.03;
    spec.confidence = 0.99;
    spec.pilot_maps = 12;
    spec.pilot_ratio = 0.5;
    spec.s3 = true;
    spec.failure_mode = "absorb";
    spec.max_attempts = 3;
    spec.checkpoint_interval = 16;
    spec.heartbeat_ms = 500.0;
    spec.timeout_ms = 8000.0;
    spec.fault_plan = "crash=0.05,seed=9";
    spec.endgame_left_percent = 30.0;
    spec.map_interval = 5;
    return spec;
}

/**
 * Reducer blobs shaped like checkpoint images: a header that changes
 * every epoch, fixed-width records appended at the end as the state
 * grows, and every thirteenth record rewritten in place. Reducer 1 is
 * rolled back (shrinks) at epoch 3, as a restored reducer's image does;
 * reducer 2 does not support checkpoints. Built once per index, so the
 * epochs' views stay valid for the whole test binary.
 */
const std::vector<std::string>&
reducerState(uint64_t index)
{
    static std::map<uint64_t, std::vector<std::string>> built;
    auto [it, fresh] = built.try_emplace(index);
    std::vector<std::string>& state = it->second;
    if (!fresh) {
        return state;
    }
    for (uint64_t r = 0; r < 2; ++r) {
        char header[32];
        std::snprintf(header, sizeof(header), "hdr r%" PRIu64 " e%04" PRIu64,
                      r, index);
        std::string blob = header;
        uint64_t records = 20 + 12 * index;
        if (r == 1 && index == 3) {
            records = 10;
        }
        for (uint64_t k = 0; k < records; ++k) {
            char rec[32];
            std::snprintf(rec, sizeof(rec), "|k%03" PRIu64 "=%05" PRIu64, k,
                          k % 13 == 0 ? index : 0);
            blob += rec;
        }
        state.push_back(blob);
    }
    state.emplace_back();
    return state;
}

/** Views of @p blobs, one per reducer. */
std::vector<ReducerImage>
viewsOf(const std::vector<std::string>& blobs)
{
    std::vector<ReducerImage> views;
    for (const std::string& blob : blobs) {
        views.push_back(ReducerImage{blob});
    }
    return views;
}

/** The bytes of each reducer's base blob. */
std::vector<std::string>
bytesOf(const ReducerBase& base)
{
    std::vector<std::string> out;
    for (const ReducerBlob& b : base) {
        out.push_back(b.bytes);
    }
    return out;
}

/** The bytes each reducer image of @p e views. */
std::vector<std::string>
bytesOf(const Epoch& e)
{
    std::vector<std::string> out;
    for (const ReducerImage& image : e.reducer_state) {
        out.emplace_back(image.bytes);
    }
    return out;
}

Epoch
makeEpoch(uint64_t index)
{
    Epoch e;
    e.index = index;
    e.kind = Epoch::kWave;
    e.wave = static_cast<int32_t>(index);
    e.sim_time = 1.5 * static_cast<double>(index + 1);
    e.maps_completed = 10 * (index + 1);
    e.maps_terminal = 10 * (index + 1) + 2;
    e.counters_blob = "counters-" + std::to_string(index);
    e.delivered = {{index, 0xdeadbeef + index}, {index + 1, 42}};
    e.rng_digest = 0x1234 + index;
    e.pending_sampling_ratio = 0.25;
    e.pending_approx_fraction = 0.75;
    e.controller_blob = "ctl-" + std::to_string(index);
    e.reducer_state = viewsOf(reducerState(index));
    e.reducer_records = {100 + index, 200 + index, 0};
    return e;
}

void
expectEpochEq(const Epoch& a, const Epoch& b)
{
    // epochMismatch is the production comparator; "" means identical.
    EXPECT_EQ(epochMismatch(a, b), "");
}

TEST(JournalFormatTest, RunSpecRoundTripsEveryField)
{
    RunSpec spec = makeSpec();
    RunSpec back = RunSpec::deserialize(spec.serialize());
    EXPECT_EQ(back.app, spec.app);
    EXPECT_EQ(back.precise, spec.precise);
    EXPECT_EQ(back.blocks, spec.blocks);
    EXPECT_EQ(back.items, spec.items);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.reducers, spec.reducers);
    EXPECT_EQ(back.threads, spec.threads);
    EXPECT_EQ(back.cluster, spec.cluster);
    EXPECT_DOUBLE_EQ(back.sampling, spec.sampling);
    EXPECT_DOUBLE_EQ(back.drop, spec.drop);
    EXPECT_EQ(back.has_target, spec.has_target);
    EXPECT_DOUBLE_EQ(back.target, spec.target);
    EXPECT_DOUBLE_EQ(back.confidence, spec.confidence);
    EXPECT_EQ(back.pilot_maps, spec.pilot_maps);
    EXPECT_DOUBLE_EQ(back.pilot_ratio, spec.pilot_ratio);
    EXPECT_EQ(back.s3, spec.s3);
    EXPECT_EQ(back.failure_mode, spec.failure_mode);
    EXPECT_EQ(back.max_attempts, spec.max_attempts);
    EXPECT_EQ(back.checkpoint_interval, spec.checkpoint_interval);
    EXPECT_DOUBLE_EQ(back.heartbeat_ms, spec.heartbeat_ms);
    EXPECT_DOUBLE_EQ(back.timeout_ms, spec.timeout_ms);
    EXPECT_EQ(back.fault_plan, spec.fault_plan);
    EXPECT_DOUBLE_EQ(back.endgame_left_percent,
                     spec.endgame_left_percent);
    EXPECT_EQ(back.map_interval, spec.map_interval);
}

TEST(JournalFormatTest, EpochRoundTripsEveryField)
{
    Epoch e = makeEpoch(3);
    e.kind = Epoch::kInterval;
    e.wave = -1;
    ReducerBase encode_base;
    ReducerBase decode_base;
    BlobStore store;
    Epoch back =
        decodeEpoch(encodeEpoch(e, encode_base), decode_base, store);
    expectEpochEq(e, back);
    // Both sides advanced to the epoch's full blobs.
    EXPECT_EQ(bytesOf(encode_base), bytesOf(e));
    EXPECT_EQ(bytesOf(decode_base), bytesOf(e));
    EXPECT_EQ(back.kind, Epoch::kInterval);
    EXPECT_EQ(back.index, 3u);
}

TEST(JournalFormatTest, MalformedBlobsThrowNotCrash)
{
    EXPECT_THROW(RunSpec::deserialize(""), JournalError);
    EXPECT_THROW(RunSpec::deserialize("garbage"), JournalError);
    ReducerBase base;
    BlobStore store;
    EXPECT_THROW(decodeEpoch("", base, store), JournalError);
    EXPECT_THROW(decodeEpoch(std::string(64, 'x'), base, store),
                 JournalError);
}

/** The payload of an epoch whose one reducer entry is @p entry (raw
 *  delta bytes: keep, runs, {offset, bytes}*, tail). */
std::string
payloadWithReducerEntry(const std::string& entry)
{
    Epoch e = makeEpoch(1);
    e.reducer_state.clear();
    e.reducer_records.clear();
    ReducerBase none;
    std::string payload = encodeEpoch(e, none);
    payload.resize(payload.size() - 16);  // the two empty counts
    integrity::BlobWriter count;
    count.putU64(1);
    integrity::BlobWriter no_records;
    no_records.putU64(0);
    return payload + count.str() + entry + no_records.str();
}

std::string
deltaEntry(uint64_t keep, uint64_t offset, const std::string& run,
           const std::string& tail)
{
    integrity::BlobWriter w;
    w.putU64(keep);
    w.putU64(1);
    w.putU64(offset);
    w.putString(run);
    w.putString(tail);
    return w.release();
}

TEST(JournalFormatTest, DeltaRunsApplyToTheirBase)
{
    ReducerBase base = {{"0123456789"}};
    BlobStore store;
    Epoch e = decodeEpoch(
        payloadWithReducerEntry(deltaEntry(10, 6, "abcd", "XY")), base,
        store);
    ASSERT_EQ(e.reducer_state.size(), 1u);
    EXPECT_EQ(e.reducer_state[0].bytes, "012345abcdXY");
    EXPECT_EQ(bytesOf(base), bytesOf(e));

    // Keeping a prefix shorter than the base truncates it.
    base = {{"0123456789"}};
    e = decodeEpoch(payloadWithReducerEntry(deltaEntry(4, 0, "ab", "")),
                    base, store);
    EXPECT_EQ(e.reducer_state[0].bytes, "ab23");
}

TEST(JournalFormatTest, DeltaPastItsBlobOrWithoutBaseThrows)
{
    // Journal bytes are outside input: every bound is checked.
    const std::string base_blob = "0123456789";
    auto decode = [&](const std::string& entry) {
        ReducerBase base = {{base_blob}};
        BlobStore store;
        return decodeEpoch(payloadWithReducerEntry(entry), base, store);
    };
    EXPECT_THROW(decode(deltaEntry(10, 8, "abcd", "")), JournalError);
    EXPECT_THROW(decode(deltaEntry(10, 11, "", "")), JournalError);
    EXPECT_THROW(decode(deltaEntry(10, UINT64_MAX, "a", "")),
                 JournalError);
    EXPECT_THROW(decode(deltaEntry(4, 2, "abc", "tail")), JournalError);
    EXPECT_THROW(decode(deltaEntry(11, 0, "a", "")), JournalError);

    ReducerBase none;
    BlobStore store;
    try {
        decodeEpoch(payloadWithReducerEntry(deltaEntry(4, 0, "ab", "")),
                    none, store);
        FAIL() << "a delta without a base epoch was accepted";
    } catch (const JournalError& e) {
        EXPECT_NE(std::string(e.what()).find("no base"), std::string::npos)
            << e.what();
    }
}

/** A three-epoch in-memory journal for the byte-level tests. */
std::string
recordedImage()
{
    std::unique_ptr<JobJournal> jj = JobJournal::createInMemory(makeSpec());
    for (uint64_t i = 0; i < 3; ++i) {
        jj->onEpoch(makeEpoch(i));
    }
    return jj->bytes();
}

TEST(JournalFormatTest, RecordedImageParsesBack)
{
    std::string image = recordedImage();
    LoadedJournal loaded = parseJournal(image);
    EXPECT_EQ(loaded.spec.app, "wikilength");
    EXPECT_EQ(loaded.spec.map_interval, 5u);
    ASSERT_EQ(loaded.epochs.size(), 3u);
    EXPECT_FALSE(loaded.torn_tail);
    EXPECT_EQ(loaded.resume_markers, 0u);
    EXPECT_EQ(loaded.sealed_bytes, image.size());
    for (uint64_t i = 0; i < 3; ++i) {
        expectEpochEq(loaded.epochs[i], makeEpoch(i));
    }
}

TEST(JournalFormatTest, ReducerStateIsDeltaEncodedAgainstThePreviousEpoch)
{
    std::string image = recordedImage();
    size_t full = JobJournal::createInMemory(makeSpec())->bytes().size();
    for (uint64_t i = 0; i < 3; ++i) {
        ReducerBase none;
        full += encodeEpoch(makeEpoch(i), none).size() + 16;
    }
    EXPECT_LT(image.size(), full);

    // Without the first epoch the second one's delta has no base: the
    // frame checksums cannot notice a missing frame, the delta chain
    // does.
    std::unique_ptr<JobJournal> jj = JobJournal::createInMemory(makeSpec());
    size_t header_end = jj->bytes().size();
    jj->onEpoch(makeEpoch(0));
    size_t first_end = jj->bytes().size();
    jj->onEpoch(makeEpoch(1));
    std::string spliced = jj->bytes().substr(0, header_end) +
                          jj->bytes().substr(first_end);
    EXPECT_THROW(parseJournal(spliced), JournalError);
}

TEST(JournalFormatTest, GrowingReducerStateRoundTripsAcrossResumes)
{
    // Record 0-2, resume and append 3-4, resume again and append 5:
    // every epoch after a resume marker is a delta against the last
    // epoch before it, and parseJournal rebuilds every full blob.
    std::unique_ptr<JobJournal> jj =
        JobJournal::resumeBytes(recordedImage());
    for (uint64_t i = 0; i < 5; ++i) {
        jj->onEpoch(makeEpoch(i));
    }
    jj = JobJournal::resumeBytes(jj->bytes());
    EXPECT_EQ(jj->epochsToVerify(), 5u);
    for (uint64_t i = 0; i < 5; ++i) {
        jj->onEpoch(makeEpoch(i));
    }
    // The first append after a resume is still a delta.
    size_t before = jj->bytes().size();
    jj->onEpoch(makeEpoch(5));
    ReducerBase none;
    EXPECT_LT(jj->bytes().size() - before,
              encodeEpoch(makeEpoch(5), none).size());

    LoadedJournal loaded = parseJournal(jj->bytes());
    EXPECT_EQ(loaded.resume_markers, 2u);
    ASSERT_EQ(loaded.epochs.size(), 8u);
    uint64_t next = 0;
    for (const Epoch& e : loaded.epochs) {
        if (e.kind == Epoch::kResumeMarker) {
            EXPECT_TRUE(e.reducer_state.empty());
            continue;
        }
        expectEpochEq(e, makeEpoch(next));
        ++next;
    }
    EXPECT_EQ(next, 6u);

    // A third resume verifies all six against the rebuilt blobs.
    std::unique_ptr<JobJournal> again = JobJournal::resumeBytes(jj->bytes());
    EXPECT_EQ(again->resumeCount(), 3u);
    for (uint64_t i = 0; i < 6; ++i) {
        again->onEpoch(makeEpoch(i));
    }
    EXPECT_EQ(again->epochsToVerify(), 0u);
}

TEST(JournalFormatTest, TruncationAtEveryByteRecoversOrThrows)
{
    std::string image = recordedImage();
    size_t last_count = 0;
    for (size_t len = 0; len <= image.size(); ++len) {
        std::string prefix = image.substr(0, len);
        try {
            LoadedJournal loaded = parseJournal(prefix);
            // Recovered: the sealed prefix must be an exact prefix of
            // the original epoch stream, never an invented epoch, and
            // epoch count must grow monotonically with the cut point.
            ASSERT_LE(loaded.epochs.size(), 3u) << "cut at " << len;
            ASSERT_GE(loaded.epochs.size(), last_count)
                << "cut at " << len;
            last_count = loaded.epochs.size();
            for (size_t i = 0; i < loaded.epochs.size(); ++i) {
                expectEpochEq(loaded.epochs[i],
                              makeEpoch(static_cast<uint64_t>(i)));
            }
            ASSERT_EQ(loaded.torn_tail, len != loaded.sealed_bytes)
                << "cut at " << len;
        } catch (const JournalError&) {
            // A cut inside the magic or the header frame cannot
            // recover — rejecting loudly is the contract. Cuts past
            // the header never throw.
            ASSERT_EQ(last_count, 0u)
                << "cut at " << len
                << " threw after epochs were recoverable";
        }
    }
    EXPECT_EQ(last_count, 3u) << "full image did not recover all epochs";
}

TEST(JournalFormatTest, ByteFlipsNeverYieldWrongEpochs)
{
    std::string image = recordedImage();
    for (size_t pos = 0; pos < image.size(); ++pos) {
        std::string bad = image;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x5a);
        try {
            LoadedJournal loaded = parseJournal(bad);
            // Accepted: the flip must have been absorbed as a torn
            // tail (e.g. a length field now pointing past EOF). Every
            // epoch that DID parse must still be bit-exact — a flip may
            // lose sealed epochs, never alter one.
            ASSERT_LE(loaded.epochs.size(), 3u) << "flip at " << pos;
            for (size_t i = 0; i < loaded.epochs.size(); ++i) {
                expectEpochEq(loaded.epochs[i],
                              makeEpoch(static_cast<uint64_t>(i)));
            }
            ASSERT_TRUE(loaded.torn_tail || loaded.epochs.size() == 3u)
                << "flip at " << pos
                << " silently dropped sealed epochs";
        } catch (const JournalError&) {
            // Detected — the expected outcome for payload/checksum
            // flips.
        }
    }
}

TEST(JournalFormatTest, ResumeVerifiesThenAppends)
{
    std::string image = recordedImage();
    std::unique_ptr<JobJournal> jj = JobJournal::resumeBytes(image);
    EXPECT_EQ(jj->resumeCount(), 1u);
    EXPECT_EQ(jj->epochsToVerify(), 3u);

    // Re-executed epochs matching the sealed prefix verify silently...
    for (uint64_t i = 0; i < 3; ++i) {
        jj->onEpoch(makeEpoch(i));
    }
    EXPECT_EQ(jj->epochsToVerify(), 0u);
    // ...and the journal then switches to append mode.
    jj->onEpoch(makeEpoch(3));
    LoadedJournal reloaded = parseJournal(jj->bytes());
    ASSERT_EQ(reloaded.epochs.size(), 5u);  // 3 sealed + marker + 1 new
    EXPECT_EQ(reloaded.resume_markers, 1u);

    // A second resume sees the survived crash.
    std::unique_ptr<JobJournal> again = JobJournal::resumeBytes(jj->bytes());
    EXPECT_EQ(again->resumeCount(), 2u);
    EXPECT_EQ(again->epochsToVerify(), 4u);
}

TEST(JournalFormatTest, DivergentResumeThrowsNamedFieldDiagnostic)
{
    std::unique_ptr<JobJournal> jj = JobJournal::resumeBytes(recordedImage());
    Epoch diverged = makeEpoch(0);
    diverged.rng_digest ^= 1;
    try {
        jj->onEpoch(diverged);
        FAIL() << "divergent epoch was accepted";
    } catch (const JournalError& e) {
        EXPECT_NE(std::string(e.what()).find("RNG"), std::string::npos)
            << "diagnostic does not name the field: " << e.what();
        EXPECT_NE(std::string(e.what()).find("diverged"),
                  std::string::npos)
            << e.what();
    }

    // A one-byte reducer-state change in a delta-encoded epoch is
    // caught: verification compares the rebuilt full blobs.
    jj = JobJournal::resumeBytes(recordedImage());
    jj->onEpoch(makeEpoch(0));
    jj->onEpoch(makeEpoch(1));
    diverged = makeEpoch(2);
    std::string flipped(diverged.reducer_state[1].bytes);
    flipped[40] ^= 1;
    diverged.reducer_state[1] = ReducerImage{flipped};
    try {
        jj->onEpoch(diverged);
        FAIL() << "divergent reducer state was accepted";
    } catch (const JournalError& e) {
        EXPECT_NE(std::string(e.what()).find("reducer checkpoint state"),
                  std::string::npos)
            << "diagnostic does not name the field: " << e.what();
    }
}

TEST(JournalFormatTest, ResumeRejectsHeaderlessOrCorruptImages)
{
    EXPECT_THROW(JobJournal::resumeBytes(""), JournalError);
    EXPECT_THROW(JobJournal::resumeBytes("AXHJNL3\n"), JournalError);
    EXPECT_THROW(JobJournal::resumeBytes("not a journal at all"),
                 JournalError);
    // Journals of earlier formats (full reducer blobs; precise reducers
    // buffering every record) are refused by their magic rather than
    // misread, with an error naming the version.
    std::string current = recordedImage();
    ASSERT_EQ(current.substr(0, 8), "AXHJNL3\n");
    for (char version : {'1', '2'}) {
        std::string old = current;
        old[6] = version;
        try {
            JobJournal::resumeBytes(old);
            FAIL() << "AXHJNL" << version << " image was accepted";
        } catch (const JournalError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("unsupported format version AXHJNL") +
                          version),
                      std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace approxhadoop::journal
