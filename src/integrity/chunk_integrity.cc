#include "integrity/chunk_integrity.h"

#include <cstring>
#include <string_view>

#include "integrity/blob.h"
#include "integrity/checksum.h"

namespace approxhadoop::integrity {

namespace {

/** Fixed hash seed: chunk digests are stable across jobs and replays. */
constexpr uint64_t kChunkHashSeed = 0x5CA1AB1E0DDBA11ULL;

/** Bytes of the record stream buffered per Hasher64::update(). */
constexpr size_t kFlushBytes = 4096;

/** Stream bytes of a row's four values. */
constexpr size_t kValueBytes = 32;

/** Writes @p row's four values' stream bytes at @p p. */
void
putValues(char* p, const mr::Row& row)
{
    storeDouble(p, row.value);
    storeDouble(p + 8, row.value2);
    storeDouble(p + 16, row.value3);
    storeDouble(p + 24, row.value4);
}

}  // namespace

uint64_t
chunkChecksum(const mr::MapOutputChunk& chunk)
{
    Hasher64 h(kChunkHashSeed);
    h.update(chunk.map_task);
    h.update(chunk.items_total);
    h.update(chunk.items_processed);
    h.update(chunk.records_skipped);
    h.update(static_cast<uint64_t>(chunk.records.size()));
    // The records' byte stream is exactly what field-by-field Hasher64
    // calls would feed — per row the LE key length, the key bytes, then
    // the four values' LE bit patterns — built in a buffer and hashed a
    // block at a time. An XXH64 digest does not depend on how its input
    // is split across updates.
    char buf[kFlushBytes];
    size_t used = 0;
    for (const mr::Row& row : chunk.records) {
        std::string_view key = chunk.key(row);
        size_t len = 8 + key.size() + kValueBytes;
        if (used + len > kFlushBytes) {
            h.update(buf, used);
            used = 0;
            if (len > kFlushBytes) {
                // A key longer than the buffer streams in place.
                h.update(static_cast<uint64_t>(key.size()));
                h.update(key.data(), key.size());
                putValues(buf, row);
                h.update(buf, kValueBytes);
                continue;
            }
        }
        char* p = buf + used;
        size_t n = key.size();
        storeU64(p, n);
        if (n >= 8 && n <= 16) {
            // The common intermediate key size: two overlapping word
            // copies instead of a variable-length memcpy call.
            std::memcpy(p + 8, key.data(), 8);
            std::memcpy(p + n, key.data() + n - 8, 8);
        } else {
            std::memcpy(p + 8, key.data(), n);
        }
        putValues(p + 8 + n, row);
        used += len;
    }
    h.update(buf, used);
    return h.digest();
}

void
stampChunk(mr::MapOutputChunk& chunk)
{
    chunk.checksum = chunkChecksum(chunk);
}

bool
verifyChunk(const mr::MapOutputChunk& chunk)
{
    return chunk.checksum == chunkChecksum(chunk);
}

void
corruptChunk(mr::MapOutputChunk& chunk, Rng& rng)
{
    if (chunk.records.empty()) {
        // Nothing in the payload to damage; corrupt the sampling
        // metadata instead (still checksum-covered).
        chunk.items_processed ^= 1ULL << rng.uniformInt(16);
        return;
    }
    size_t idx = static_cast<size_t>(rng.uniformInt(chunk.records.size()));
    mr::Row& row = chunk.records[idx];
    uint64_t bits = 0;
    std::memcpy(&bits, &row.value, sizeof(bits));
    bits ^= 1ULL << rng.uniformInt(64);
    std::memcpy(&row.value, &bits, sizeof(bits));
}

}  // namespace approxhadoop::integrity
