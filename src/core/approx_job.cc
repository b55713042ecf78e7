#include "core/approx_job.h"

#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/approx_input_format.h"
#include "core/extreme_target_controller.h"
#include "core/ratio_controller.h"
#include "core/target_error_controller.h"

namespace approxhadoop::core {

namespace {

/**
 * Pre-creates @p count reducers, listing them in @p watched so a
 * controller can read their live error estimates (the JobTracker
 * error-collection role), and returns a factory that hands them to the
 * job one by one.
 */
template <typename ReducerT, typename... Args>
mr::Job::ReducerFactory
reducerPool(uint32_t count, std::vector<ReducerT*>& watched,
            const Args&... args)
{
    auto pool = std::make_shared<std::vector<std::unique_ptr<ReducerT>>>();
    for (uint32_t r = 0; r < count; ++r) {
        pool->push_back(std::make_unique<ReducerT>(args...));
        watched.push_back(pool->back().get());
    }
    auto next = std::make_shared<size_t>(0);
    return [pool, next]() -> std::unique_ptr<mr::Reducer> {
        if (*next >= pool->size()) {
            throw std::logic_error("reducer pool exhausted");
        }
        return std::move((*pool)[(*next)++]);
    };
}

/** Throws for the combinations assembleJob() rejects. */
void
checkSettings(const ApproxConfig& approx, const ReducerSet& reducers)
{
    const auto* aggregation = std::get_if<AggregationReducers>(&reducers);
    bool three_stage = std::holds_alternative<ThreeStageReducers>(reducers);
    if (aggregation != nullptr && aggregation->use_moments_combiner &&
        aggregation->op != MultiStageSamplingReducer::Op::kSum &&
        aggregation->op != MultiStageSamplingReducer::Op::kCount) {
        throw std::invalid_argument(
            "MomentsCombiner is only sound for sum/count reductions");
    }
    if (three_stage &&
        (approx.hasTarget() || approx.user_defined_fraction > 0.0)) {
        throw std::invalid_argument(
            "three-stage jobs take sampling and drop ratios only");
    }
    if (std::holds_alternative<mr::Job::ReducerFactory>(reducers) &&
        approx.hasTarget()) {
        throw std::invalid_argument(
            "user-defined jobs take sampling and drop ratios, not a target");
    }
    if (std::holds_alternative<ExtremeReducers>(reducers) &&
        approx.sampling_ratio != 1.0) {
        throw std::invalid_argument(
            "extreme-value jobs approximate by dropping tasks only");
    }
    // Target mode chooses the ratios itself; only the target controller
    // runs a pilot; only user-defined mappers have an approximate
    // variant for the fraction to select.
    if (approx.hasTarget() &&
        (approx.sampling_ratio != 1.0 || approx.drop_ratio > 0.0)) {
        throw std::invalid_argument(
            "a target error bound chooses the sampling and drop ratios; "
            "set one or the other");
    }
    if (approx.pilot.enabled &&
        !(approx.hasTarget() && aggregation != nullptr)) {
        throw std::invalid_argument(
            "a pilot wave runs only for a target on an aggregation job");
    }
    if (approx.user_defined_fraction > 0.0 &&
        (aggregation != nullptr ||
         std::holds_alternative<ExtremeReducers>(reducers))) {
        throw std::invalid_argument(
            "aggregation and extreme-value mappers have no user-defined "
            "approximate variant");
    }
}

}  // namespace

AssembledJob
assembleJob(sim::Cluster& cluster, const hdfs::BlockDataset& dataset,
            hdfs::NameNode& namenode, mr::JobConfig config,
            const ApproxConfig* approx, mr::Job::MapperFactory mapper_factory,
            ReducerSet reducers, obs::Observability* obs,
            journal::EpochSink* epoch_sink)
{
    auto* own = std::get_if<mr::Job::ReducerFactory>(&reducers);
    assert(approx != nullptr || own != nullptr);
    const auto* aggregation = std::get_if<AggregationReducers>(&reducers);
    const auto* three = std::get_if<ThreeStageReducers>(&reducers);
    const auto* extreme = std::get_if<ExtremeReducers>(&reducers);
    std::vector<MultiStageSamplingReducer*> sampling;
    std::vector<ThreeStageSamplingReducer*> unwatched;
    std::vector<ApproxExtremeReducer*> extremes;
    mr::Job::ReducerFactory reducer_factory;
    if (approx != nullptr) {
        checkSettings(*approx, reducers);
        config.framework_overhead = approx->framework_overhead;
    }
    if (aggregation != nullptr) {
        reducer_factory = reducerPool(config.num_reducers, sampling,
                                      aggregation->op, approx->confidence);
    } else if (three != nullptr) {
        reducer_factory = reducerPool(config.num_reducers, unwatched,
                                      three->op, approx->confidence);
    } else if (extreme != nullptr) {
        reducer_factory = reducerPool(
            config.num_reducers, extremes, extreme->minimum,
            approx->extreme_percentile, approx->confidence,
            extreme->values_are_extremes);
    } else {
        reducer_factory = std::move(*own);
    }

    AssembledJob out;
    out.job = std::make_unique<mr::Job>(cluster, dataset, namenode,
                                        std::move(config));
    mr::Job& job = *out.job;
    job.setObservability(obs);
    job.setEpochSink(epoch_sink);
    job.setMapperFactory(std::move(mapper_factory));
    job.setReducerFactory(std::move(reducer_factory));
    if (approx == nullptr) {
        return out;  // precise: stock Hadoop
    }
    // Extreme-value jobs keep full-block reads: sampling within a block
    // would bias the per-task extreme.
    if (extreme == nullptr) {
        job.setInputFormat(std::make_shared<ApproxTextInputFormat>());
    }
    // Target mode: the first wave (or the pilot) runs precise and the
    // controller takes over from there.
    if (!approx->hasTarget()) {
        job.setInitialSamplingRatio(approx->sampling_ratio);
    }
    job.setInitialApproximateFraction(approx->user_defined_fraction);
    if (aggregation != nullptr && aggregation->use_moments_combiner) {
        job.setCombiner(std::make_shared<mr::MomentsCombiner>());
    }

    if (approx->hasTarget() && aggregation != nullptr) {
        auto target =
            std::make_unique<TargetErrorController>(*approx, sampling);
        out.target = target.get();
        out.controller = std::move(target);
    } else if (approx->hasTarget()) {
        out.controller =
            std::make_unique<ExtremeTargetController>(*approx, extremes);
    } else if (approx->drop_ratio > 0.0) {
        out.controller =
            std::make_unique<UserRatioController>(approx->drop_ratio);
    }
    job.setController(out.controller.get());
    return out;
}

ApproxJobRunner::ApproxJobRunner(sim::Cluster& cluster,
                                 const hdfs::BlockDataset& dataset,
                                 hdfs::NameNode& namenode)
    : cluster_(cluster), dataset_(dataset), namenode_(namenode)
{
}

mr::JobResult
ApproxJobRunner::run(mr::JobConfig config, const ApproxConfig* approx,
                     mr::Job::MapperFactory mapper_factory,
                     ReducerSet reducers)
{
    last_target_achieved_ = false;
    AssembledJob assembled =
        assembleJob(cluster_, dataset_, namenode_, std::move(config), approx,
                    std::move(mapper_factory), std::move(reducers), obs_,
                    epoch_sink_);
    mr::JobResult result = assembled.job->run();
    last_target_achieved_ = assembled.controller != nullptr &&
                            assembled.controller->targetAchieved();
    return result;
}

}  // namespace approxhadoop::core
