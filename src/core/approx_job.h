#ifndef APPROXHADOOP_CORE_APPROX_JOB_H_
#define APPROXHADOOP_CORE_APPROX_JOB_H_

#include <memory>
#include <utility>
#include <variant>

#include "core/approx_config.h"
#include "core/extreme_reducer.h"
#include "core/sampling_reducer.h"
#include "core/three_stage_reducer.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

namespace approxhadoop::obs {
struct Observability;
}  // namespace approxhadoop::obs

namespace approxhadoop::core {

class TargetErrorController;

/** ApproxJobRunner::runAggregation's reducers. */
struct AggregationReducers
{
    MultiStageSamplingReducer::Op op;
    bool use_moments_combiner = false;
};

/** ApproxJobRunner::runThreeStageAggregation's reducers. */
struct ThreeStageReducers
{
    ThreeStageSamplingReducer::Op op;
};

/** ApproxJobRunner::runExtreme's reducers. */
struct ExtremeReducers
{
    bool minimum;
    bool values_are_extremes = true;
};

/** A framework reducer family, or the caller's own factory (user-defined
 *  and precise jobs). */
using ReducerSet = std::variant<AggregationReducers, ThreeStageReducers,
                                ExtremeReducers, mr::Job::ReducerFactory>;

/** A job built by assembleJob(), ready to run() or start(). */
struct AssembledJob
{
    std::unique_ptr<mr::Job> job;
    /** Null when the mode runs without a controller. */
    std::unique_ptr<mr::JobController> controller;
    /** controller, when it is an aggregation's TargetErrorController. */
    TargetErrorController* target = nullptr;
};

/**
 * Builds a job and its controller: the one place that wires the sampling
 * input format, the error-bounding reducers and the controller matching
 * @p approx (null for a precise job). The sinks are not owned.
 *
 * @throws std::invalid_argument for a setting the mode would silently
 *         ignore (a target error bound on a three-stage or user-defined
 *         job, a sampling ratio on an extreme-value job, a sampling or
 *         drop ratio next to a target, a pilot wave anywhere but a
 *         target on an aggregation job, a user-defined fraction on
 *         anything but a user-defined job), and for the MomentsCombiner
 *         on an average/ratio aggregation
 */
AssembledJob assembleJob(sim::Cluster& cluster,
                         const hdfs::BlockDataset& dataset,
                         hdfs::NameNode& namenode, mr::JobConfig config,
                         const ApproxConfig* approx,
                         mr::Job::MapperFactory mapper_factory,
                         ReducerSet reducers,
                         obs::Observability* obs = nullptr,
                         journal::EpochSink* epoch_sink = nullptr);

/**
 * High-level entry point: assembles and runs approximation-enabled jobs.
 *
 * Each run method builds its job with assembleJob() and runs it on the
 * simulated cluster.
 */
class ApproxJobRunner
{
  public:
    ApproxJobRunner(sim::Cluster& cluster, const hdfs::BlockDataset& dataset,
                    hdfs::NameNode& namenode);

    /**
     * Runs an aggregation job (sum/count/average/ratio) with multi-stage
     * sampling error bounds.
     *
     * @param use_moments_combiner install the map-side MomentsCombiner
     *        (sound for kSum/kCount only); cuts shuffle volume without
     *        changing any estimate or bound
     */
    mr::JobResult runAggregation(mr::JobConfig config,
                                 const ApproxConfig& approx,
                                 mr::Job::MapperFactory mapper_factory,
                                 MultiStageSamplingReducer::Op op,
                                 bool use_moments_combiner = false)
    {
        return run(std::move(config), &approx, std::move(mapper_factory),
                   AggregationReducers{op, use_moments_combiner});
    }

    /**
     * Runs a three-stage sampling aggregation: population units are the
     * intermediate pairs the mapper pre-aggregated into unit records
     * (see core::ThreeStageEmitter). Only user-specified ratios are
     * supported; the online optimizer targets two-stage jobs.
     * @throws std::invalid_argument with a target error bound
     */
    mr::JobResult
    runThreeStageAggregation(mr::JobConfig config,
                             const ApproxConfig& approx,
                             mr::Job::MapperFactory mapper_factory,
                             ThreeStageSamplingReducer::Op op)
    {
        return run(std::move(config), &approx, std::move(mapper_factory),
                   ThreeStageReducers{op});
    }

    /**
     * Runs a min/max job with GEV error bounds.
     *
     * @param minimum true for min, false for max
     * @param values_are_extremes true when each map emits a single
     *        per-task extreme (skips the Block Minima/Maxima transform)
     * @throws std::invalid_argument with a sampling ratio below 1
     */
    mr::JobResult runExtreme(mr::JobConfig config, const ApproxConfig& approx,
                             mr::Job::MapperFactory mapper_factory,
                             bool minimum, bool values_are_extremes = true)
    {
        return run(std::move(config), &approx, std::move(mapper_factory),
                   ExtremeReducers{minimum, values_are_extremes});
    }

    /**
     * Runs a job whose mapper derives from UserDefinedApproxMapper;
     * approx.user_defined_fraction selects the mix of approximate tasks,
     * and sampling/dropping ratios apply as usual.
     * @throws std::invalid_argument with a target error bound
     */
    mr::JobResult runUserDefined(mr::JobConfig config,
                                 const ApproxConfig& approx,
                                 mr::Job::MapperFactory mapper_factory,
                                 mr::Job::ReducerFactory reducer_factory)
    {
        return run(std::move(config), &approx, std::move(mapper_factory),
                   std::move(reducer_factory));
    }

    /** Runs a fully precise baseline job (stock Hadoop behaviour). */
    mr::JobResult runPrecise(mr::JobConfig config,
                             mr::Job::MapperFactory mapper_factory,
                             mr::Job::ReducerFactory reducer_factory)
    {
        return run(std::move(config), nullptr, std::move(mapper_factory),
                   std::move(reducer_factory));
    }

    /** True if the last target-mode run achieved its bound early. */
    bool lastTargetAchieved() const { return last_target_achieved_; }

    /**
     * Attaches an observability sink (trace recorder + metrics registry)
     * that every subsequently run job reports into. Not owned; must
     * outlive the run calls. Pass nullptr to detach. Strictly additive:
     * recording never changes scheduling, results, or error bounds.
     */
    void setObservability(obs::Observability* obs) { obs_ = obs; }

    /**
     * Attaches a journal epoch sink that every subsequently run job
     * seals its checkpoint epochs into (crash-consistent journaling;
     * see src/journal/). Not owned; must outlive the run calls. Pass
     * nullptr to detach. Like observability, strictly additive.
     */
    void setEpochSink(journal::EpochSink* sink) { epoch_sink_ = sink; }

  private:
    /** Assembles the job with this runner's sinks and runs it. */
    mr::JobResult run(mr::JobConfig config, const ApproxConfig* approx,
                      mr::Job::MapperFactory mapper_factory,
                      ReducerSet reducers);

    sim::Cluster& cluster_;
    const hdfs::BlockDataset& dataset_;
    hdfs::NameNode& namenode_;
    bool last_target_achieved_ = false;
    obs::Observability* obs_ = nullptr;
    journal::EpochSink* epoch_sink_ = nullptr;
};

}  // namespace approxhadoop::core

#endif  // APPROXHADOOP_CORE_APPROX_JOB_H_
