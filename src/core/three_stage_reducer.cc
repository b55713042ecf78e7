#include "core/three_stage_reducer.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace approxhadoop::core {

ThreeStageSamplingReducer::ThreeStageSamplingReducer(Op op, double confidence)
    : op_(op), confidence_(confidence)
{
    assert(confidence > 0.0 && confidence < 1.0);
}

void
ThreeStageSamplingReducer::consume(const mr::MapOutputChunk& chunk)
{
    uint64_t cluster_index = clusters_;
    ++clusters_;
    cluster_sizes_.emplace_back(chunk.items_total, chunk.items_processed);

    // Each of the chunk's keys finds its cluster list once.
    chunk_units_.resize(chunk.keys.size());
    for (uint32_t k = 0; k < chunk.keys.size(); ++k) {
        std::vector<stats::ThreeStageCluster>& clusters =
            data_[std::string(chunk.keys.key(k))];
        // Clusters arrive in order; pad with empty entries for clusters
        // that emitted nothing for this key so indices line up.
        while (clusters.size() <= cluster_index) {
            stats::ThreeStageCluster c;
            size_t idx = clusters.size();
            c.units_total = cluster_sizes_[idx].first;
            c.units_sampled = cluster_sizes_[idx].second;
            clusters.push_back(c);
        }
        chunk_units_[k] = &clusters[cluster_index].units;
    }
    for (const mr::Row& row : chunk.records) {
        stats::UnitSample unit;
        unit.sum = row.value;
        unit.sum_squares = row.value2;
        unit.subunits_total = static_cast<uint64_t>(row.value3);
        unit.subunits_sampled = static_cast<uint64_t>(row.value4);
        chunk_units_[row.key]->push_back(unit);
    }
}

std::vector<KeyEstimate>
ThreeStageSamplingReducer::currentEstimates(uint64_t total_clusters) const
{
    std::vector<KeyEstimate> estimates;
    estimates.reserve(data_.size());
    for (const auto& [key, clusters] : data_) {
        // Pad with trailing zero clusters up to the consumed count.
        std::vector<stats::ThreeStageCluster> padded = clusters;
        while (padded.size() < clusters_) {
            stats::ThreeStageCluster c;
            size_t idx = padded.size();
            c.units_total = cluster_sizes_[idx].first;
            c.units_sampled = cluster_sizes_[idx].second;
            padded.push_back(c);
        }
        stats::Estimate e =
            op_ == Op::kSum
                ? stats::ThreeStageEstimator::estimateSum(
                      padded, total_clusters, confidence_)
                : stats::ThreeStageEstimator::estimateAverage(
                      padded, total_clusters, confidence_);
        KeyEstimate est;
        est.key = key;
        est.value = e.value;
        est.error_bound = e.error_bound;
        est.lower = e.value - e.error_bound;
        est.upper = e.value + e.error_bound;
        est.finite = std::isfinite(e.error_bound);
        estimates.push_back(std::move(est));
    }
    return estimates;
}

void
ThreeStageSamplingReducer::finalize(mr::ReduceContext& ctx)
{
    for (KeyEstimate& est : currentEstimates(ctx.totalMapTasks())) {
        mr::OutputRecord rec;
        rec.key = est.key;
        rec.value = est.value;
        rec.has_bound = true;
        if (est.finite) {
            rec.lower = est.lower;
            rec.upper = est.upper;
        } else {
            rec.lower = -std::numeric_limits<double>::infinity();
            rec.upper = std::numeric_limits<double>::infinity();
        }
        ctx.write(std::move(rec));
    }
}

}  // namespace approxhadoop::core
