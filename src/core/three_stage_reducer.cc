#include "core/three_stage_reducer.h"

#include <cassert>

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

    // Clusters arrive in order, so padding each key to this cluster
    // leaves the cluster's entry last.
    const std::vector<uint32_t>& ids = data_.bind(chunk.keys);
    for (uint32_t id : ids) {
        pad(data_[id], cluster_index + 1);
    }
    for (const mr::Row& row : chunk.records) {
        stats::UnitSample unit;
        unit.sum = row.value;
        unit.sum_squares = row.value2;
        unit.subunits_total = static_cast<uint64_t>(row.value3);
        unit.subunits_sampled = static_cast<uint64_t>(row.value4);
        data_[ids[row.key]].back().units.push_back(unit);
    }
}

void
ThreeStageSamplingReducer::pad(std::vector<stats::ThreeStageCluster>& clusters,
                               size_t n) const
{
    while (clusters.size() < n) {
        stats::ThreeStageCluster& c = clusters.emplace_back();
        c.units_total = cluster_sizes_[clusters.size() - 1].first;
        c.units_sampled = cluster_sizes_[clusters.size() - 1].second;
    }
}

std::vector<KeyEstimate>
ThreeStageSamplingReducer::currentEstimates(uint64_t total_clusters) const
{
    std::vector<KeyEstimate> estimates;
    estimates.reserve(data_.size());
    for (uint32_t id : data_.sorted()) {
        std::vector<stats::ThreeStageCluster> padded = data_[id];
        pad(padded, clusters_);
        stats::Estimate e =
            op_ == Op::kSum
                ? stats::ThreeStageEstimator::estimateSum(
                      padded, total_clusters, confidence_)
                : stats::ThreeStageEstimator::estimateAverage(
                      padded, total_clusters, confidence_);
        estimates.push_back(
            symmetricEstimate(data_.key(id), e.value, e.error_bound));
    }
    return estimates;
}

void
ThreeStageSamplingReducer::finalize(mr::ReduceContext& ctx)
{
    writeEstimates(ctx, currentEstimates(ctx.totalMapTasks()));
}

}  // namespace approxhadoop::core
