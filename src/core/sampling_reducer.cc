#include "core/sampling_reducer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "integrity/blob.h"
#include "mapreduce/combiner.h"
#include "stats/moments.h"
#include "stats/student_t.h"

namespace approxhadoop::core {

MultiStageSamplingReducer::MultiStageSamplingReducer(Op op, double confidence)
    : op_(op), confidence_(confidence)
{
    assert(confidence > 0.0 && confidence < 1.0);
}

void
MultiStageSamplingReducer::consume(const mr::MapOutputChunk& chunk)
{
    uint64_t cluster_index = clusters_;
    ++clusters_;

    if (op_ == Op::kSum || op_ == Op::kCount) {
        // Fold this cluster's per-key moments into O(1)-per-key state.
        // chunk_ holds the chunk's moments by chunk key id, so the keys
        // fold in first-seen order and new keys join dirty_ (and later
        // image_) in the order the chunk introduced them.
        size_t nkeys = chunk.keys.size();
        const std::vector<uint32_t>& ids = aggs_.bind(chunk.keys);
        chunk_.assign(nkeys, Moments{});
        for (const mr::Row& row : chunk.records) {
            Moments& m = chunk_[row.key];
            if (mr::MomentsCombiner::isMomentsRecord(row)) {
                // Map-side MomentsCombiner output: unpack (sum, sum_sq,
                // count) so bounds match the uncombined execution.
                uint64_t count = static_cast<uint64_t>(row.value3);
                m.count += count;
                if (op_ == Op::kCount) {
                    m.sum += static_cast<double>(count);
                    m.sum_sq += static_cast<double>(count);
                } else {
                    m.sum += row.value;
                    m.sum_sq += row.value2;
                }
                continue;
            }
            double v = op_ == Op::kCount ? 1.0 : row.value;
            ++m.count;
            m.sum += v;
            m.sum_sq += v * v;
        }
        double big_m = static_cast<double>(chunk.items_total);
        double mi = static_cast<double>(chunk.items_processed);
        for (uint32_t k = 0; k < nkeys; ++k) {
            SumAggregate& agg = aggs_[ids[k]];
            const Moments& km = chunk_[k];
            if (!agg.dirty) {
                agg.dirty = true;
                dirty_.push_back(ids[k]);
            }
            ++agg.emitted_clusters;
            agg.records += km.count;
            if (mi <= 0.0) {
                continue;
            }
            double tau = big_m / mi * km.sum;
            agg.sum_tau += tau;
            agg.sum_tau_sq += tau * tau;
            double s2 = stats::varianceWithImplicitZeros(
                chunk.items_processed, km.sum, km.sum_sq);
            agg.sum_intra_variance += s2;
            if (chunk.items_processed < chunk.items_total) {
                agg.within += big_m * (big_m - mi) * s2 / mi;
            }
        }
        return;
    }

    // kAverage / kRatio: each of the chunk's keys appends this cluster's
    // sample, so every key's samples stay in cluster order.
    cluster_sizes_.emplace_back(chunk.items_total, chunk.items_processed);
    const std::vector<uint32_t>& ids = ratios_.bind(chunk.keys);
    for (uint32_t id : ids) {
        RatioSample& s = ratios_[id].emplace_back();
        s.cluster = cluster_index;
        s.sample.units_total = chunk.items_total;
        s.sample.units_sampled = chunk.items_processed;
    }
    for (const mr::Row& row : chunk.records) {
        stats::RatioClusterSample& s = ratios_[ids[row.key]].back().sample;
        double y = row.value;
        double x = op_ == Op::kAverage ? 1.0 : row.value2;
        s.sum_y += y;
        s.sum_squares_y += y * y;
        s.sum_x += x;
        s.sum_squares_x += x * x;
        s.sum_xy += y * x;
    }
}

double
MultiStageSamplingReducer::criticalT() const
{
    return stats::studentTCriticalCached(
        confidence_, static_cast<double>(clusters_) - 1.0);
}

std::pair<double, double>
MultiStageSamplingReducer::sumEstimateNumbers(const SumAggregate& agg,
                                              uint64_t total_clusters,
                                              double t) const
{
    uint64_t n = clusters_;
    if (n == 0) {
        return {0.0, std::numeric_limits<double>::infinity()};
    }
    double nd = static_cast<double>(n);
    double big_n = static_cast<double>(total_clusters);
    double value = big_n / nd * agg.sum_tau;
    if (n < 2) {
        return {value, std::numeric_limits<double>::infinity()};
    }
    // Inter-cluster variance over all n clusters: clusters that emitted
    // nothing for this key have tau_i = 0 and are implicit in the sums.
    double s2u = (agg.sum_tau_sq - agg.sum_tau * agg.sum_tau / nd) /
                 (nd - 1.0);
    if (s2u < 0.0) {
        s2u = 0.0;
    }
    double variance =
        big_n * (big_n - nd) * s2u / nd + (big_n / nd) * agg.within;
    return {value, t * std::sqrt(variance)};
}

stats::Estimate
MultiStageSamplingReducer::ratioEstimate(
    const std::vector<RatioSample>& emitted, uint64_t total_clusters) const
{
    std::vector<stats::RatioClusterSample> samples;
    samples.reserve(clusters_);
    auto next = emitted.begin();
    for (uint64_t c = 0; c < clusters_; ++c) {
        if (next != emitted.end() && next->cluster == c) {
            samples.push_back((next++)->sample);
            continue;
        }
        stats::RatioClusterSample& zero = samples.emplace_back();
        zero.units_total = cluster_sizes_[c].first;
        zero.units_sampled = cluster_sizes_[c].second;
    }
    return stats::TwoStageEstimator::estimateRatio(samples, total_clusters,
                                                   confidence_);
}

std::vector<KeyEstimate>
MultiStageSamplingReducer::currentEstimates(uint64_t total_clusters) const
{
    std::vector<KeyEstimate> estimates;
    if (op_ == Op::kSum || op_ == Op::kCount) {
        estimates.reserve(aggs_.size());
        double t = criticalT();
        for (uint32_t id : aggs_.sorted()) {
            auto [value, bound] =
                sumEstimateNumbers(aggs_[id], total_clusters, t);
            estimates.push_back(symmetricEstimate(aggs_.key(id), value, bound));
        }
    } else {
        estimates.reserve(ratios_.size());
        for (uint32_t id : ratios_.sorted()) {
            stats::Estimate e = ratioEstimate(ratios_[id], total_clusters);
            estimates.push_back(
                symmetricEstimate(ratios_.key(id), e.value, e.error_bound));
        }
    }
    return estimates;
}

std::vector<MultiStageSamplingReducer::KeyPlanStats>
MultiStageSamplingReducer::planStats(uint64_t total_clusters,
                                     size_t top_k) const
{
    std::vector<KeyPlanStats> result;
    if (op_ != Op::kSum && op_ != Op::kCount) {
        return result;
    }
    uint64_t n = clusters_;
    if (n < 2) {
        return result;
    }
    double nd = static_cast<double>(n);
    double big_n = static_cast<double>(total_clusters);
    double t = criticalT();

    auto make_stats = [&](uint32_t id) {
        const SumAggregate& agg = aggs_[id];
        KeyPlanStats stats;
        stats.key = aggs_.key(id);
        stats.tau_hat = big_n / nd * agg.sum_tau;
        double s2u = (agg.sum_tau_sq - agg.sum_tau * agg.sum_tau / nd) /
                     (nd - 1.0);
        stats.inter_cluster_variance = std::max(0.0, s2u);
        stats.mean_intra_variance = agg.sum_intra_variance / nd;
        stats.within_consumed = agg.within;
        stats.error_bound =
            sumEstimateNumbers(agg, total_clusters, t).second;
        return stats;
    };

    if (top_k == 0 || aggs_.size() <= top_k) {
        result.reserve(aggs_.size());
        for (uint32_t id : aggs_.sorted()) {
            result.push_back(make_stats(id));
        }
        return result;
    }

    // Partial top-k selection by error bound: scan once keeping a small
    // min-heap of (bound, key id); avoids copying the key strings of the
    // (potentially millions of) non-worst keys.
    using Entry = std::pair<double, uint32_t>;
    auto cmp = [](const Entry& a, const Entry& b) {
        return a.first > b.first;  // min-heap on bound
    };
    std::vector<Entry> heap;
    heap.reserve(top_k + 1);
    for (uint32_t id : aggs_.sorted()) {
        double bound = sumEstimateNumbers(aggs_[id], total_clusters, t).second;
        if (heap.size() < top_k) {
            heap.emplace_back(bound, id);
            std::push_heap(heap.begin(), heap.end(), cmp);
        } else if (bound > heap.front().first) {
            std::pop_heap(heap.begin(), heap.end(), cmp);
            heap.back() = Entry{bound, id};
            std::push_heap(heap.begin(), heap.end(), cmp);
        }
    }
    result.reserve(heap.size());
    for (const Entry& e : heap) {
        result.push_back(make_stats(e.second));
    }
    return result;
}

MultiStageSamplingReducer::WorstError
MultiStageSamplingReducer::worstAbsoluteError(uint64_t total_clusters) const
{
    WorstError worst;
    if (op_ == Op::kSum || op_ == Op::kCount) {
        // Ids in arrival order, with an equal bound going to the smaller
        // key: the same key a walk in key order keeps first.
        double t = criticalT();
        uint32_t worst_id = 0;
        for (uint32_t id = 0; id < aggs_.size(); ++id) {
            auto [value, bound] =
                sumEstimateNumbers(aggs_[id], total_clusters, t);
            if (value == 0.0) {
                continue;
            }
            worst.any_key = true;
            if (!std::isfinite(bound)) {
                worst.all_finite = false;
                continue;
            }
            if (bound > worst.error_bound ||
                (bound == worst.error_bound && bound > 0.0 &&
                 aggs_.key(id) < aggs_.key(worst_id))) {
                worst.error_bound = bound;
                worst.value = value;
                worst_id = id;
            }
        }
        return worst;
    }
    for (const KeyEstimate& est : currentEstimates(total_clusters)) {
        if (est.value == 0.0) {
            continue;
        }
        worst.any_key = true;
        if (!est.finite) {
            worst.all_finite = false;
            continue;
        }
        if (est.error_bound > worst.error_bound) {
            worst.error_bound = est.error_bound;
            worst.value = est.value;
        }
    }
    return worst;
}

double
MultiStageSamplingReducer::estimateDistinctKeys() const
{
    if (op_ != Op::kSum && op_ != Op::kCount) {
        return static_cast<double>(observedKeys());
    }
    uint64_t singletons = 0;
    uint64_t doubletons = 0;
    for (uint32_t id = 0; id < aggs_.size(); ++id) {
        const SumAggregate& agg = aggs_[id];
        if (agg.records == 1) {
            ++singletons;
        } else if (agg.records == 2) {
            ++doubletons;
        }
    }
    double d = static_cast<double>(aggs_.size());
    double f1 = static_cast<double>(singletons);
    double f2 = static_cast<double>(doubletons);
    if (f2 > 0.0) {
        return d + f1 * f1 / (2.0 * f2);
    }
    // Chao1 bias-corrected form when no doubletons were seen.
    return d + f1 * (f1 - 1.0) / 2.0;
}

void
MultiStageSamplingReducer::finalize(mr::ReduceContext& ctx)
{
    writeEstimates(ctx, currentEstimates(ctx.totalMapTasks()));
}

namespace {

/** Bytes of the blob header: op, confidence, clusters, sum key count. */
constexpr size_t kHeaderBytes = 32;
/** Offsets of the header's two counts. */
constexpr size_t kClustersOffset = 16;
constexpr size_t kKeyCountOffset = 24;
/** Value bytes of one sum/count key record: two u64s, four doubles. */
constexpr size_t kValueBytes = 48;
/** The empty cluster-roster and ratio sections that end a sum/count
 *  blob (two zero counts). */
constexpr char kEmptyRatioSections[16] = {};

/** A lineage no image in this process has had. */
uint64_t
freshLineage()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void
MultiStageSamplingReducer::stamp(size_t begin, size_t end) const
{
    for (size_t b = begin / journal::kImageBlock;
         b * journal::kImageBlock < end; ++b) {
        block_versions_[b] = version_;
    }
}

void
MultiStageSamplingReducer::refreshImage() const
{
    if (image_.empty()) {
        integrity::BlobWriter w;
        w.putU64(static_cast<uint64_t>(op_));
        w.putDouble(confidence_);
        w.putU64(0);
        w.putU64(0);
        image_ = w.release();
        assert(image_.size() == kHeaderBytes);
        image_.append(kEmptyRatioSections, sizeof(kEmptyRatioSections));
        lineage_ = freshLineage();
        version_ = 0;
        block_versions_.clear();
    }
    ++version_;
    // Keys never written are appended where the ratio sections start,
    // and the sections move to the new end.
    size_t records_end = image_.size() - sizeof(kEmptyRatioSections);
    image_.resize(records_end);
    for (uint32_t id : dirty_) {
        std::string_view key = aggs_.key(id);
        const SumAggregate& agg = aggs_[id];
        bool appended = agg.image_offset == 0;
        if (appended) {
            char len[8];
            integrity::storeU64(len, key.size());
            image_.append(len, sizeof(len));
            image_.append(key);
            agg.image_offset = image_.size();
            image_.resize(image_.size() + kValueBytes);
        }
        char* out = image_.data() + agg.image_offset;
        integrity::storeU64(out, agg.emitted_clusters);
        integrity::storeU64(out + 8, agg.records);
        integrity::storeDouble(out + 16, agg.sum_tau);
        integrity::storeDouble(out + 24, agg.sum_tau_sq);
        integrity::storeDouble(out + 32, agg.within);
        integrity::storeDouble(out + 40, agg.sum_intra_variance);
        if (!appended) {
            stamp(agg.image_offset, agg.image_offset + kValueBytes);
        }
        agg.dirty = false;
    }
    dirty_.clear();
    bool grew = image_.size() > records_end;
    image_.append(kEmptyRatioSections, sizeof(kEmptyRatioSections));
    block_versions_.resize(journal::imageBlocks(image_.size()), version_);
    if (grew) {
        stamp(records_end, image_.size());
    }
    integrity::storeU64(image_.data() + kClustersOffset, clusters_);
    integrity::storeU64(image_.data() + kKeyCountOffset, aggs_.size());
    stamp(kClustersOffset, kHeaderBytes);
}

bool
MultiStageSamplingReducer::snapshot(std::string& scratch,
                                    journal::ReducerImage& out) const
{
    if (op_ != Op::kSum && op_ != Op::kCount) {
        return ErrorBoundedReducer::snapshot(scratch, out);
    }
    refreshImage();
    out = journal::ReducerImage{image_, block_versions_.data(), lineage_,
                                version_};
    return true;
}

bool
MultiStageSamplingReducer::checkpoint(std::string& state) const
{
    if (op_ == Op::kSum || op_ == Op::kCount) {
        refreshImage();
        state.assign(image_);
        return true;
    }

    integrity::BlobWriter w;
    w.putU64(static_cast<uint64_t>(op_));
    w.putDouble(confidence_);
    w.putU64(clusters_);
    w.putU64(0);  // no sum/count records

    w.putU64(cluster_sizes_.size());
    for (const auto& [total, processed] : cluster_sizes_) {
        w.putU64(total);
        w.putU64(processed);
    }

    w.putU64(ratios_.size());
    for (uint32_t id : ratios_.sorted()) {
        w.putString(ratios_.key(id));
        w.putU64(ratios_[id].size());
        for (const auto& [cluster, s] : ratios_[id]) {
            w.putU64(cluster);
            w.putU64(s.units_total);
            w.putU64(s.units_sampled);
            w.putDouble(s.sum_y);
            w.putDouble(s.sum_squares_y);
            w.putDouble(s.sum_x);
            w.putDouble(s.sum_squares_x);
            w.putDouble(s.sum_xy);
        }
    }

    state = w.release();
    return true;
}

bool
MultiStageSamplingReducer::restore(const std::string& state)
{
    integrity::BlobReader r(state);
    Op op = static_cast<Op>(r.getU64());
    double confidence = r.getDouble();
    if (op != op_ || confidence != confidence_) {
        throw std::runtime_error(
            "sampling reducer checkpoint: op/confidence mismatch");
    }
    uint64_t clusters = r.getU64();

    // Keys get ids in blob order, which is first-seen order.
    mr::KeyedState<SumAggregate> aggs;
    uint64_t num_sums = r.getU64();
    for (uint64_t i = 0; i < num_sums; ++i) {
        SumAggregate& agg = aggs.add(r.getString());
        agg.image_offset = r.position();
        agg.emitted_clusters = r.getU64();
        agg.records = r.getU64();
        agg.sum_tau = r.getDouble();
        agg.sum_tau_sq = r.getDouble();
        agg.within = r.getDouble();
        agg.sum_intra_variance = r.getDouble();
    }
    size_t records_end = r.position();

    std::vector<std::pair<uint64_t, uint64_t>> cluster_sizes;
    uint64_t num_clusters = r.getU64();
    cluster_sizes.reserve(num_clusters);
    for (uint64_t i = 0; i < num_clusters; ++i) {
        uint64_t total = r.getU64();
        uint64_t processed = r.getU64();
        cluster_sizes.emplace_back(total, processed);
    }

    mr::KeyedState<std::vector<RatioSample>> ratios;
    uint64_t num_ratio_keys = r.getU64();
    for (uint64_t i = 0; i < num_ratio_keys; ++i) {
        std::vector<RatioSample>& samples = ratios.add(r.getString());
        uint64_t count = r.getU64();
        for (uint64_t c = 0; c < count; ++c) {
            uint64_t cluster = r.getU64();
            if (cluster >= clusters ||
                (!samples.empty() && cluster <= samples.back().cluster)) {
                throw std::runtime_error(
                    "sampling reducer checkpoint: ratio clusters out of order");
            }
            samples.push_back({cluster, {}});
            stats::RatioClusterSample& s = samples.back().sample;
            s.units_total = r.getU64();
            s.units_sampled = r.getU64();
            s.sum_y = r.getDouble();
            s.sum_squares_y = r.getDouble();
            s.sum_x = r.getDouble();
            s.sum_squares_x = r.getDouble();
            s.sum_xy = r.getDouble();
        }
    }
    r.expectEnd();

    clusters_ = clusters;
    aggs_ = std::move(aggs);
    dirty_.clear();
    if (op_ == Op::kSum || op_ == Op::kCount) {
        // The snapshot's header and records are the image, in the
        // order the keys were first seen. Its bytes do not follow from
        // the image's previous version, so it starts a new lineage,
        // whose versions count from 1 again.
        image_.assign(state, 0, records_end);
        image_.append(kEmptyRatioSections, sizeof(kEmptyRatioSections));
        lineage_ = freshLineage();
        version_ = 1;
        block_versions_.assign(journal::imageBlocks(image_.size()),
                               version_);
    } else {
        image_.clear();
    }
    cluster_sizes_ = std::move(cluster_sizes);
    ratios_ = std::move(ratios);
    return true;
}

}  // namespace approxhadoop::core
