#ifndef APPROXHADOOP_CORE_EXTREME_TARGET_CONTROLLER_H_
#define APPROXHADOOP_CORE_EXTREME_TARGET_CONTROLLER_H_

#include <vector>

#include "core/approx_config.h"
#include "core/extreme_reducer.h"
#include "mapreduce/controller.h"

namespace approxhadoop::core {

/**
 * Target-error controller for extreme-value (min/max) jobs (paper
 * Section 4.5): the reduce side re-fits the GEV estimate as each map
 * completes; once the confidence interval is inside the target bound,
 * the controller asks the JobTracker to kill and drop all remaining
 * maps.
 */
class ExtremeTargetController : public mr::JobController
{
  public:
    /**
     * @param config   approximation policy (must have a target set)
     * @param reducers the job's extreme reducers (not owned)
     */
    ExtremeTargetController(const ApproxConfig& config,
                            std::vector<ApproxExtremeReducer*> reducers);

    void onMapComplete(mr::JobHandle& job,
                       const mr::MapTaskInfo& task) override;

    /** True once the target was achieved and remaining maps dropped. */
    bool targetAchieved() const override { return achieved_; }

  private:
    bool meetsTarget(const mr::JobHandle& job) const;

    ApproxConfig config_;
    std::vector<ApproxExtremeReducer*> reducers_;
    bool achieved_ = false;
};

}  // namespace approxhadoop::core

#endif  // APPROXHADOOP_CORE_EXTREME_TARGET_CONTROLLER_H_
