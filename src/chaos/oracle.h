#ifndef APPROXHADOOP_CHAOS_ORACLE_H_
#define APPROXHADOOP_CHAOS_ORACLE_H_

#include <optional>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "mapreduce/job.h"

namespace approxhadoop::obs {
struct Observability;
}  // namespace approxhadoop::obs

namespace approxhadoop::chaos {

/**
 * Deliberate single-invariant breakages used to prove the oracle has
 * teeth: `approxchaos --mutate X` must flag a violation, and CI asserts
 * it does. Each mutation corrupts the *observation* of an otherwise
 * healthy run (never the runtime itself), modeling the class of bug the
 * matching invariant exists to catch.
 */
enum class Mutation {
    kNone,
    /** Halves every reported CI half-width — the "skipped one CI
     *  widening" bug; caught by the absorb-identity / coverage checks. */
    kCiWidening,
    /** Over-reports completed maps by one; caught by conservation. */
    kCounters,
    /** Perturbs the parallel run's first output value in the last bit;
     *  caught by the 1-vs-N-thread determinism check. */
    kDeterminism,
    /** Swallows JobFailedError and reports success — the "wrong but
     *  zero exit" bug; caught by the exit-code contract. */
    kExitCode,
};

/** Parses "ci-widening", "counters", "determinism", "exit-code".
 *  @throws std::invalid_argument otherwise */
Mutation parseMutation(const std::string& name);
const char* toString(Mutation m);

/** One invariant violation found by the oracle. */
struct Violation
{
    /** Which invariant failed ("determinism", "conservation", ...). */
    std::string invariant;
    /** Human-readable specifics (values, keys, counters involved). */
    std::string detail;
};

/** Outcome of one job run under a scenario. */
struct RunOutcome
{
    /** True when the job aborted with JobFailedError (approxrun's
     *  exit-3 class). Any *other* exception is itself a violation. */
    bool failed = false;
    std::string error;
    mr::JobResult result;
    /** Counter snapshot (from the result, or the error on failure). */
    mr::Counters counters;
    /** Driver kills survived via journal resume. 0 when the scenario
     *  carries no dcrash= faults (or none fired before the job ended). */
    uint32_t resumes = 0;
    /** Journal image captured at the first driver kill — the crash-time
     *  snapshot the torn-journal invariant truncates. Empty when no
     *  kill fired. */
    std::string crash_journal;
};

/**
 * The invariant oracle. For each scenario it runs the job twice (1
 * thread and scenario.threads) and checks:
 *
 *  - determinism: outputs, counters, and runtime bit-identical across
 *    thread counts;
 *  - counter conservation: Counters::conservationViolation(), on
 *    failed runs too;
 *  - termination/exit-code contract: only retry mode may fail the job,
 *    and a successful retry-mode run completed every map;
 *  - statistical soundness (absorb identity): when the scenario's
 *    per-task samples can be replayed (no bad records), the headline
 *    key's estimate and CI must equal the analytic two-stage estimator
 *    run over the completed clusters — i.e. absorbed/failed tasks widen
 *    the CI *exactly* like dropped clusters (paper Section 3.1);
 *  - crash recovery (dcrash= scenarios): the run is wrapped in the
 *    journal record/kill/resume loop, and the resumed run must match
 *    the same scenario with its driver crashes removed bit-for-bit
 *    (resume equivalence); truncating the crash-time journal image at
 *    arbitrary byte offsets must recover a sealed prefix or throw
 *    JournalError — never crash and never invent an epoch.
 *
 * The CI *coverage* property is probabilistic per scenario, so it is
 * checked as a separate seeded battery (coverageBattery) with a
 * binomial tolerance rather than per run.
 */
class ChaosOracle
{
  public:
    explicit ChaosOracle(Mutation mutation = Mutation::kNone)
        : mutation_(mutation)
    {
    }

    /**
     * Runs the scenario once at the given thread count (applying this
     * oracle's mutation to the observation). When @p obs is non-null the
     * run records into it (trace + metrics) and @p config_out, if also
     * non-null, receives the job configuration — enough for the caller
     * to build an obs::JobReport of the run.
     */
    RunOutcome runScenario(const Scenario& scenario, uint32_t threads,
                           obs::Observability* obs = nullptr,
                           mr::JobConfig* config_out = nullptr) const;

    /** Runs and checks one scenario; empty result = all invariants hold. */
    std::vector<Violation> check(const Scenario& scenario) const;

    /**
     * Statistical-soundness battery: @p trials seeded absorb-mode runs
     * of a sampled aggregation under crashes and corruption, each
     * compared against a fault-free precise reference. The exact answer
     * must fall inside the reported CI of the headline key at least
     * confidence - 3*sqrt(confidence*(1-confidence)/trials) of the time
     * (three-sigma binomial tolerance, so a sound estimator essentially
     * never trips it while a broken widening reliably does).
     */
    std::optional<Violation> coverageBattery(uint64_t seed,
                                             int trials) const;

    /**
     * A handcrafted scenario guaranteed to exercise the code path the
     * given mutation corrupts (e.g. absorbed clusters with a nonzero CI
     * for kCiWidening, retry exhaustion for kExitCode). `approxchaos
     * --mutate X` runs it ahead of the random soak so the self-test is
     * deterministic.
     */
    static Scenario mutationProbe(Mutation mutation);

  private:
    Mutation mutation_;
};

}  // namespace approxhadoop::chaos

#endif  // APPROXHADOOP_CHAOS_ORACLE_H_
