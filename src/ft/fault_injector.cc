#include "ft/fault_injector.h"

#include <algorithm>
#include <cmath>

namespace approxhadoop::ft {

namespace {

// Salts keeping the corruption / bad-record / reduce-crash streams
// disjoint from each other and from the map-attempt stream (which must
// stay byte-stable: tests pin fault patterns across revisions).
constexpr uint64_t kCorruptSalt = 0xC0221791C0221791ULL;
constexpr uint64_t kBadRecordSalt = 0xBADCAFEBADCAFE01ULL;
constexpr uint64_t kReduceSalt = 0x2ED0C5ED2ED0C5EDULL;

/** Rng(@p seed)'s first raw draw, which every Rng(seed).derive() reads. */
uint64_t
firstDraw(uint64_t seed)
{
    return Rng(seed).engine()();
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t job_seed)
    : plan_(plan)
{
    uint64_t root = splitmix64(job_seed ^ 0xFA17F417FA17F417ULL) ^
                    splitmix64(plan.seed);
    if (plan_.enabled()) {
        attempt_draw_ = firstDraw(root);
    }
    if (plan_.chunk_corrupt_prob > 0.0) {
        corrupt_draw_ = firstDraw(root ^ kCorruptSalt);
    }
    if (plan_.bad_record_prob > 0.0) {
        bad_record_draw_ = firstDraw(root ^ kBadRecordSalt);
    }
    if (plan_.reduce_crash_prob > 0.0) {
        reduce_draw_ = firstDraw(root ^ kReduceSalt);
    }
}

FaultInjector::AttemptFate
FaultInjector::attemptFate(uint64_t task_id, uint64_t attempt_index) const
{
    AttemptFate fate;
    if (!enabled()) {
        return fate;
    }
    // A fresh stream per (task, attempt): immune to query order.
    Rng rng =
        Rng::derived(attempt_draw_, task_id * 0x10001ULL + attempt_index);
    if (plan_.task_crash_prob > 0.0 &&
        rng.bernoulli(plan_.task_crash_prob)) {
        fate.crashes = true;
        // Crash somewhere in the middle of the attempt; avoid the exact
        // endpoints so a crash never ties with the completion instant.
        fate.crash_fraction = rng.uniform(0.05, 0.95);
    }
    if (plan_.straggler_prob > 0.0 && rng.bernoulli(plan_.straggler_prob)) {
        double slowdown = plan_.straggler_factor;
        if (plan_.straggler_sigma > 0.0) {
            slowdown *= rng.lognormal(0.0, plan_.straggler_sigma);
        }
        fate.slowdown = std::max(1.0, slowdown);
    }
    return fate;
}

bool
FaultInjector::chunkCorrupted(uint64_t task_id, uint32_t partition,
                              uint64_t fetch) const
{
    if (plan_.chunk_corrupt_prob <= 0.0) {
        return false;
    }
    Rng rng = Rng::derived(corrupt_draw_,
                           splitmix64(task_id * 0x9E3779B97F4A7C15ULL +
                                      partition) +
                               fetch);
    return rng.bernoulli(plan_.chunk_corrupt_prob);
}

bool
FaultInjector::recordBad(uint64_t task_id, uint64_t item_index) const
{
    if (plan_.bad_record_prob <= 0.0) {
        return false;
    }
    Rng rng = Rng::derived(bad_record_draw_, splitmix64(task_id) + item_index);
    return rng.bernoulli(plan_.bad_record_prob);
}

FaultInjector::ReduceAttemptFate
FaultInjector::reduceAttemptFate(uint64_t reducer_id,
                                 uint64_t attempt_index) const
{
    ReduceAttemptFate fate;
    if (plan_.reduce_crash_prob <= 0.0) {
        return fate;
    }
    Rng rng = Rng::derived(reduce_draw_,
                           reducer_id * 0x10001ULL + attempt_index);
    if (rng.bernoulli(plan_.reduce_crash_prob)) {
        fate.crashes = true;
        fate.crash_fraction = rng.uniform(0.05, 0.95);
    }
    return fate;
}

}  // namespace approxhadoop::ft
