#ifndef APPROXHADOOP_BENCH_APPROX_OP_STATS_H_
#define APPROXHADOOP_BENCH_APPROX_OP_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "integrity/checksum.h"
#include "mapreduce/job.h"

/**
 * @file
 * Sample statistics and the op digest bench_approx reports with, on top
 * of the median the other bench binaries share (bench/bench_util.h).
 * Header-only so the benchmark stays one translation unit plus headers.
 */
namespace approxhadoop::benchapprox {

/** Samples a tail percentile must leave beyond it to be reported. */
constexpr size_t kMinTailSamples = 10;

/**
 * Nearest-rank percentile: the smallest sample with at least @p p percent
 * of the samples at or below it. Refuses (nullopt) when fewer than
 * @p min_beyond samples lie strictly beyond that rank, so a reported
 * tail always rests on enough samples: p90 needs n >= 100.
 */
inline std::optional<double>
percentile(std::vector<double> values, double p,
           size_t min_beyond = kMinTailSamples)
{
    if (values.empty() || !(p > 0.0 && p <= 100.0)) {
        return std::nullopt;
    }
    size_t n = values.size();
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < min_beyond) {
        return std::nullopt;
    }
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

using benchutil::median;

/** Nearest-rank p75 - p25; 0 with fewer than 4 samples. */
inline double
iqr(const std::vector<double>& values)
{
    if (values.size() < 4) {
        return 0.0;
    }
    return *percentile(values, 75.0, 0) - *percentile(values, 25.0, 0);
}

/**
 * XXH64 over everything an aggregation job reports: each output record's
 * key and the bit patterns of its value and bounds, the simulated
 * runtime, and the serialized counters. Two runs with equal digests
 * produced bit-identical results.
 */
inline uint64_t
jobDigest(const mr::JobResult& result)
{
    integrity::Hasher64 h;
    h.update(static_cast<uint64_t>(result.output.size()));
    for (const mr::OutputRecord& r : result.output) {
        h.update(r.key);
        h.update(r.value);
        h.update(r.lower);
        h.update(r.upper);
    }
    h.update(result.runtime);
    h.update(result.counters.serialize());
    return h.digest();
}

/** XXH64 of a deterministic text artifact (the service report JSON). */
inline uint64_t
textDigest(const std::string& text)
{
    return integrity::hash64(text.data(), text.size());
}

}  // namespace approxhadoop::benchapprox

#endif  // APPROXHADOOP_BENCH_APPROX_OP_STATS_H_
