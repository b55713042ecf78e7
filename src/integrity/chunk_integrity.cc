#include "integrity/chunk_integrity.h"

#include <cstring>
#include <string>

#include "integrity/blob.h"
#include "integrity/checksum.h"

namespace approxhadoop::integrity {

namespace {

/** Fixed hash seed: chunk digests are stable across jobs and replays. */
constexpr uint64_t kChunkHashSeed = 0x5CA1AB1E0DDBA11ULL;

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
    // One update per record, over exactly the bytes the field-by-field
    // Hasher64 calls would feed: the LE key length, the key bytes, then
    // the four values' LE bit patterns.
    std::string buf;
    for (const mr::KeyValue& kv : chunk.records) {
        size_t key_len = kv.key.size();
        buf.resize(8 + key_len + 32);
        char* p = buf.data();
        storeU64(p, key_len);
        std::memcpy(p + 8, kv.key.data(), key_len);
        p += 8 + key_len;
        storeDouble(p, kv.value);
        storeDouble(p + 8, kv.value2);
        storeDouble(p + 16, kv.value3);
        storeDouble(p + 24, kv.value4);
        h.update(buf.data(), buf.size());
    }
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
    mr::KeyValue& kv = chunk.records[idx];
    uint64_t bits = 0;
    std::memcpy(&bits, &kv.value, sizeof(bits));
    bits ^= 1ULL << rng.uniformInt(64);
    std::memcpy(&kv.value, &bits, sizeof(bits));
}

}  // namespace approxhadoop::integrity
