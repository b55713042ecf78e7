#ifndef APPROXHADOOP_WORKLOADS_FORMAT_UTIL_H_
#define APPROXHADOOP_WORKLOADS_FORMAT_UTIL_H_

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/random.h"
#include "hdfs/dataset.h"

namespace approxhadoop::workloads {

/** Appends @p v in decimal (same bytes as printf %llu / operator<<). */
inline void
appendU64(std::string& out, uint64_t v)
{
    char buf[20];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, static_cast<size_t>(res.ptr - buf));
}

/**
 * Parses the leading decimal digits of @p s (no sign/whitespace), as
 * strtoull does on this repo's generated records. Returns 0 when @p s
 * does not start with a digit.
 */
inline uint64_t
parseU64(std::string_view s)
{
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9') {
            break;
        }
        v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    return v;
}

/**
 * The seed of the Rng that draws record @p index of @p block, shared by
 * the wiki, access-log and web-server generators. Frozen with the
 * record bytes (see wiki_dump.cc).
 */
inline uint64_t
recordSeed(uint64_t seed, uint64_t block, uint64_t index)
{
    return splitmix64(seed ^ (block * 0x9E3779B1ULL + index));
}

/**
 * Appends the records at @p indices of @p block to @p out in order,
 * calling @p append(rng, index, out.bytes()) for each with a fresh
 * Rng(recordSeed(seed, block, index)).
 *
 * The Rngs are built Mt19937_64::kLockstepLanes at a time and seeded
 * together (Mt19937_64::seedInLockstep) through the words their first
 * 12 engine draws read (draw d < 156 reads word d + 156), so the seeding
 * chains of neighbouring records overlap instead of running one after
 * another. A record takes about 6 (access log) to 12 (wiki) draws; a
 * draw past those seeds one more word lazily, as from any fresh Rng, so
 * every record byte is what the per-record generator appends.
 */
template <typename Append>
void
appendSeededRecords(uint64_t seed, uint64_t block, const uint64_t* indices,
                    size_t count, hdfs::RecordBuffer& out, Append&& append)
{
    constexpr size_t kLanes = Mt19937_64::kLockstepLanes;
    constexpr size_t kPrimedWord = Mt19937_64::kShift + 11;
    Rng rngs[kLanes];
    Mt19937_64* engines[kLanes];
    for (size_t start = 0; start < count; start += kLanes) {
        size_t n = std::min(kLanes, count - start);
        for (size_t l = 0; l < n; ++l) {
            rngs[l] = Rng(recordSeed(seed, block, indices[start + l]));
            engines[l] = &rngs[l].engine();
        }
        Mt19937_64::seedInLockstep(engines, n, kPrimedWord);
        for (size_t l = 0; l < n; ++l) {
            append(rngs[l], indices[start + l], out.bytes());
            out.endRecord();
        }
    }
}

}  // namespace approxhadoop::workloads

#endif  // APPROXHADOOP_WORKLOADS_FORMAT_UTIL_H_
