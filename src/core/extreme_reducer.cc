#include "core/extreme_reducer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "stats/block_minima.h"

namespace approxhadoop::core {

ApproxExtremeReducer::ApproxExtremeReducer(bool minimum, double percentile,
                                           double confidence,
                                           bool values_are_extremes)
    : minimum_(minimum), percentile_(percentile), confidence_(confidence),
      values_are_extremes_(values_are_extremes)
{
    assert(percentile > 0.0 && percentile < 1.0);
    assert(confidence > 0.0 && confidence < 1.0);
}

void
ApproxExtremeReducer::consume(const mr::MapOutputChunk& chunk)
{
    ++clusters_;
    const std::vector<uint32_t>& ids = values_.bind(chunk.keys);
    for (const mr::Row& row : chunk.records) {
        values_[ids[row.key]].push_back(row.value);
    }
}

stats::ExtremeEstimate
ApproxExtremeReducer::estimateKey(const std::string& key) const
{
    return estimate(values_.find(key));
}

stats::ExtremeEstimate
ApproxExtremeReducer::estimate(const std::vector<double>* values) const
{
    stats::ExtremeEstimate failed;
    failed.confidence = confidence_;
    failed.lower = -std::numeric_limits<double>::infinity();
    failed.upper = std::numeric_limits<double>::infinity();

    if (values == nullptr || values->size() < 3) {
        return failed;
    }
    std::vector<double> sample = *values;
    if (!values_are_extremes_) {
        size_t blocks = stats::defaultBlockCount(sample.size());
        sample = minimum_ ? stats::blockMinima(sample, blocks)
                          : stats::blockMaxima(sample, blocks);
        if (sample.size() < 3) {
            return failed;
        }
    }
    return minimum_
               ? stats::estimateMinimum(sample, percentile_, confidence_)
               : stats::estimateMaximum(sample, percentile_, confidence_);
}

std::vector<KeyEstimate>
ApproxExtremeReducer::currentEstimates(uint64_t /*total_clusters*/) const
{
    std::vector<KeyEstimate> estimates;
    estimates.reserve(values_.size());
    for (uint32_t id : values_.sorted()) {
        stats::ExtremeEstimate e = estimate(&values_[id]);
        KeyEstimate est;
        est.key = values_.key(id);
        est.value = e.value;
        est.lower = e.lower;
        est.upper = e.upper;
        est.finite = e.ok && std::isfinite(e.lower) && std::isfinite(e.upper);
        est.error_bound = est.finite
                              ? std::max(e.upper - e.value, e.value - e.lower)
                              : std::numeric_limits<double>::infinity();
        estimates.push_back(std::move(est));
    }
    return estimates;
}

void
ApproxExtremeReducer::finalize(mr::ReduceContext& ctx)
{
    for (uint32_t id : values_.sorted()) {
        const std::vector<double>& vals = values_[id];
        stats::ExtremeEstimate e = estimate(&vals);
        mr::OutputRecord rec;
        rec.key = values_.key(id);
        rec.has_bound = true;
        if (e.ok) {
            rec.value = e.value;
            rec.lower = e.lower;
            rec.upper = e.upper;
        } else {
            // Too little data for a fit: fall back to the observed
            // extreme with an unbounded interval.
            double observed = minimum_
                                  ? *std::min_element(vals.begin(),
                                                      vals.end())
                                  : *std::max_element(vals.begin(),
                                                      vals.end());
            rec.value = observed;
            rec.lower = -std::numeric_limits<double>::infinity();
            rec.upper = std::numeric_limits<double>::infinity();
        }
        ctx.write(std::move(rec));
    }
}

}  // namespace approxhadoop::core
