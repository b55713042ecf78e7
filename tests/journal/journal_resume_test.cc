/**
 * @file
 * Kill-and-resume determinism — the tentpole acceptance test. A
 * journaled run killed by dcrash= driver faults and resumed (the same
 * restart loop approxrun runs in-process) must finish with a JobResult
 * bit-identical to the uninterrupted run of the same configuration:
 * identical outputs, counters (full serialized image) and simulated
 * runtime. The matrix crosses resume points spread over the job's
 * waves, host thread counts {1, 8}, failure modes {retry, absorb,
 * auto} under task-crash injection, an elastic fleet (revoke= +
 * addsrv= active), and reduce crashes (with corrupt chunks, and in a
 * precise job) under a map-interval epoch cadence, plus double-kill
 * runs.
 */
#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/aggregation_registry.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "ft/fault_plan.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "journal/journal.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

namespace approxhadoop {
namespace {

constexpr uint64_t kBlocks = 60;
constexpr uint64_t kItems = 40;
constexpr uint64_t kSeed = 11;
constexpr uint32_t kReducers = 2;

struct Scenario
{
    const char* label;
    uint32_t threads;
    ft::FailureMode mode;
    /** Base fault plan, "" for fault-free. */
    const char* faults;
    const char* cluster = "xeon10";
};

/* gtest puts the printed parameter in each ctest name. Without this it
 * prints a Scenario's raw bytes, label pointers included, so the names
 * would change whenever the string section moves. */
void
PrintTo(const Scenario& s, std::ostream* os)
{
    *os << s.label;
}

/** Driver-kill times (simulated seconds), epoch cadence and job kind of
 *  a run. */
struct KillPlan
{
    /** Map completions between interval epochs (0 = waves only). */
    uint64_t map_interval = 0;
    /** Kill times of the single-kill runs, one resume each. */
    std::array<double, 4> kills = {1.0, 3.0, 6.0, 12.0};
    /** Kill times of the double-kill run. */
    std::array<double, 2> double_kill = {2.0, 7.0};
    /** Runs the precise job (the workload's fold reducers) instead of
     *  sampling half of each block. */
    bool precise = false;
};

journal::RunSpec
specFor(const Scenario& s, const KillPlan& plan, const std::string& faults)
{
    journal::RunSpec spec;
    spec.app = "wikilength";
    spec.blocks = kBlocks;
    spec.items = kItems;
    spec.seed = kSeed;
    spec.reducers = kReducers;
    spec.threads = s.threads;
    spec.cluster = s.cluster;
    spec.precise = plan.precise;
    spec.sampling = plan.precise ? 1.0 : 0.5;
    spec.failure_mode = ft::toString(s.mode);
    spec.fault_plan = faults;
    spec.map_interval = plan.map_interval;
    return spec;
}

/**
 * One full run. With @p dcrash times, records into an in-memory
 * journal and loops through DriverKilledError exactly like approxrun:
 * resume re-executes from scratch with the journal verifying every
 * re-reached epoch against the sealed prefix.
 */
mr::JobResult
runScenario(const Scenario& s, const KillPlan& plan,
            const std::vector<double>& dcrash, uint32_t* resumes_out = nullptr)
{
    const apps::AggregationWorkload& w =
        *apps::findAggregationWorkload("wikilength");

    std::string faults = s.faults;
    for (double t : dcrash) {
        if (!faults.empty()) {
            faults += ",";
        }
        faults += "dcrash=" + std::to_string(t);
    }

    std::unique_ptr<journal::JobJournal> jj;
    if (!dcrash.empty()) {
        jj = journal::JobJournal::createInMemory(
            specFor(s, plan, faults));
    }

    core::ApproxConfig approx;
    approx.sampling_ratio = 0.5;

    for (;;) {
        std::unique_ptr<hdfs::BlockDataset> data =
            w.make_dataset(kBlocks, kItems, kSeed);
        mr::JobConfig config = w.job_config(kItems, kReducers);
        config.seed = kSeed;
        config.cluster_spec = s.cluster;
        config.num_exec_threads = s.threads;
        config.failure_mode = s.mode;
        if (!faults.empty()) {
            config.fault_plan = ft::FaultPlan::parse(faults);
        }
        if (jj != nullptr) {
            config.driver_crash_skip = jj->resumeCount();
            config.journal_map_interval = plan.map_interval;
        }
        sim::Cluster cluster(sim::ClusterConfig::parse(s.cluster));
        hdfs::NameNode nn(cluster.numServers(), 3, kSeed);
        core::ApproxJobRunner runner(cluster, *data, nn);
        runner.setEpochSink(jj.get());
        try {
            mr::JobResult result =
                plan.precise
                    ? runner.runPrecise(config, w.mapper_factory(),
                                        w.precise_reducer_factory())
                    : runner.runAggregation(config, approx,
                                            w.mapper_factory(), w.op);
            if (resumes_out != nullptr) {
                *resumes_out = jj ? jj->resumeCount() : 0;
            }
            return result;
        } catch (const journal::DriverKilledError&) {
            jj = journal::JobJournal::resumeBytes(jj->bytes());
        }
    }
}

void
expectResultsIdentical(const mr::JobResult& resumed,
                       const mr::JobResult& baseline,
                       const std::string& label)
{
    EXPECT_EQ(resumed.runtime, baseline.runtime) << label;
    // The full counter image, not a field sample: any divergence in
    // scheduling, retries, or shuffle shows up here.
    EXPECT_EQ(resumed.counters.serialize(), baseline.counters.serialize())
        << label;
    ASSERT_EQ(resumed.output.size(), baseline.output.size()) << label;
    for (size_t i = 0; i < baseline.output.size(); ++i) {
        const mr::OutputRecord& a = resumed.output[i];
        const mr::OutputRecord& b = baseline.output[i];
        EXPECT_EQ(a.key, b.key) << label;
        EXPECT_EQ(a.value, b.value) << label << " key " << b.key;
        EXPECT_EQ(a.lower, b.lower) << label << " key " << b.key;
        EXPECT_EQ(a.upper, b.upper) << label << " key " << b.key;
    }
}

/** Every single kill of @p plan resumes once and reproduces the
 *  uninterrupted run. Returns that run for further checks. */
mr::JobResult
expectSingleKillsMatch(const Scenario& s, const KillPlan& plan)
{
    mr::JobResult baseline = runScenario(s, plan, {});
    for (double at : plan.kills) {
        uint32_t resumes = 0;
        mr::JobResult resumed =
            runScenario(s, plan, {at}, &resumes);
        EXPECT_EQ(resumes, 1u)
            << s.label << " dcrash=" << at
            << ": the driver kill never fired (time beyond job end?)";
        expectResultsIdentical(
            resumed, baseline,
            std::string(s.label) + " dcrash=" + std::to_string(at));
    }
    return baseline;
}

/** The double kill of @p plan resumes twice and reproduces the
 *  uninterrupted run. */
void
expectDoubleKillMatches(const Scenario& s, const KillPlan& plan)
{
    mr::JobResult baseline = runScenario(s, plan, {});
    uint32_t resumes = 0;
    mr::JobResult resumed = runScenario(
        s, plan,
        {plan.double_kill[0], plan.double_kill[1]}, &resumes);
    EXPECT_EQ(resumes, 2u) << s.label;
    expectResultsIdentical(resumed, baseline,
                           std::string(s.label) + " double-kill");
}

std::string
paramName(const char* label)
{
    std::string name = label;
    for (char& c : name) {
        if (c == '-') {
            c = '_';
        }
    }
    return name;
}

/** The scenario axis of the matrix. The task-crash probability is high
 *  enough that retries/absorbs actually occur before the kill times. */
const Scenario kScenarios[] = {
    {"plain-1t", 1, ft::FailureMode::kRetry, ""},
    {"plain-8t", 8, ft::FailureMode::kRetry, ""},
    {"retry-crashy-1t", 1, ft::FailureMode::kRetry, "crash=0.15,seed=3"},
    {"absorb-crashy-8t", 8, ft::FailureMode::kAbsorb,
     "crash=0.15,seed=3"},
    {"auto-crashy-1t", 1, ft::FailureMode::kAuto, "crash=0.15,seed=3"},
    {"elastic-8t", 8, ft::FailureMode::kAuto,
     "revoke=2@4,addsrv=3atom@8,seed=5", "10xeon+4atom"},
};

class JournalResumeTest : public ::testing::TestWithParam<Scenario>
{
};

TEST_P(JournalResumeTest, SingleKillMatchesUninterruptedRun)
{
    // Kill times spread across the job: early (first waves), middle,
    // and late (usually the reduce phase).
    expectSingleKillsMatch(GetParam(), KillPlan{});
}

TEST_P(JournalResumeTest, DoubleKillMatchesUninterruptedRun)
{
    expectDoubleKillMatches(GetParam(), KillPlan{});
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, JournalResumeTest, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario>& info) {
        return paramName(info.param.label);
    });

/** A scenario run under its own kill plan. */
struct PlannedScenario
{
    Scenario scenario;
    KillPlan plan;
};

void
PrintTo(const PlannedScenario& p, std::ostream* os)
{
    *os << p.scenario.label;
}

/** Reduce crashes with corrupt chunks under a map-interval cadence. A
 *  reduce crash restores reducer 1 from its checkpoint image at the
 *  14th map delivery (t=62.264) while interval epochs snapshot both
 *  reducers every 4 maps (the next one at t=62.272): the kills land
 *  before any delivery, between two epochs before the restore, between
 *  the restore and the next epoch, and after it. */
const PlannedScenario kRestoreScenarios[] = {
    {{"absorb-reduce-crash-corrupt-1t", 1, ft::FailureMode::kAbsorb,
      "corrupt=0.05,rcrash=0.5,seed=3"},
     {4, {12.0, 61.0, 62.268, 63.0}, {62.268, 63.0}}},
    {{"absorb-reduce-crash-corrupt-8t", 8, ft::FailureMode::kAbsorb,
      "corrupt=0.05,rcrash=0.5,seed=3"},
     {4, {12.0, 61.0, 62.268, 63.0}, {62.268, 63.0}}},
    // The precise job's fold reducers checkpoint per-key accumulators:
    // reducer 1 restores at the 14th map delivery (t=68.900) and the
    // interval epochs seal at the 12th (t=68.495) and 16th (t=68.909).
    {{"precise-reduce-crash-8t", 8, ft::FailureMode::kRetry,
      "rcrash=0.5,seed=3"},
     {4, {12.0, 68.2, 68.905, 69.5}, {68.905, 69.5}, true}},
};

class JournalReduceRestoreResumeTest
    : public ::testing::TestWithParam<PlannedScenario>
{
};

TEST_P(JournalReduceRestoreResumeTest, SingleKillMatchesUninterruptedRun)
{
    const PlannedScenario& p = GetParam();
    mr::JobResult baseline = expectSingleKillsMatch(p.scenario, p.plan);
    EXPECT_GT(baseline.counters.reduce_attempts_failed, 0u)
        << p.scenario.label << ": no reducer was ever restored";
}

TEST_P(JournalReduceRestoreResumeTest, DoubleKillMatchesUninterruptedRun)
{
    expectDoubleKillMatches(GetParam().scenario, GetParam().plan);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, JournalReduceRestoreResumeTest,
    ::testing::ValuesIn(kRestoreScenarios),
    [](const ::testing::TestParamInfo<PlannedScenario>& info) {
        return paramName(info.param.scenario.label);
    });

TEST(JournalResumeTest, TargetErrorModeSurvivesKills)
{
    // Target-error mode exercises the controller's journaled replan
    // state (pilot wave, per-wave ratio updates).
    const apps::AggregationWorkload& w =
        *apps::findAggregationWorkload("wikilength");
    core::ApproxConfig approx;
    approx.target_relative_error = 0.05;

    auto run = [&](const std::vector<double>& dcrash) {
        std::string faults;
        for (double t : dcrash) {
            if (!faults.empty()) {
                faults += ",";
            }
            faults += "dcrash=" + std::to_string(t);
        }
        journal::RunSpec spec;
        spec.app = "wikilength";
        spec.blocks = kBlocks;
        spec.items = kItems;
        spec.seed = kSeed;
        spec.reducers = kReducers;
        spec.threads = 4;
        spec.cluster = "xeon10";
        spec.has_target = true;
        spec.target = 0.05;
        spec.failure_mode = "auto";
        spec.fault_plan = faults;
        std::unique_ptr<journal::JobJournal> jj;
        if (!dcrash.empty()) {
            jj = journal::JobJournal::createInMemory(spec);
        }
        for (;;) {
            std::unique_ptr<hdfs::BlockDataset> data =
                w.make_dataset(kBlocks, kItems, kSeed);
            mr::JobConfig config = w.job_config(kItems, kReducers);
            config.seed = kSeed;
            config.num_exec_threads = 4;
            if (!faults.empty()) {
                config.fault_plan = ft::FaultPlan::parse(faults);
            }
            if (jj != nullptr) {
                config.driver_crash_skip = jj->resumeCount();
            }
            sim::Cluster cluster(sim::ClusterConfig::xeon10());
            hdfs::NameNode nn(cluster.numServers(), 3, kSeed);
            core::ApproxJobRunner runner(cluster, *data, nn);
            runner.setEpochSink(jj.get());
            try {
                return runner.runAggregation(config, approx,
                                             w.mapper_factory(), w.op);
            } catch (const journal::DriverKilledError&) {
                jj = journal::JobJournal::resumeBytes(jj->bytes());
            }
        }
    };

    mr::JobResult baseline = run({});
    for (double at : {1.5, 4.0, 9.0}) {
        expectResultsIdentical(run({at}), baseline,
                               "target dcrash=" + std::to_string(at));
    }
}

}  // namespace
}  // namespace approxhadoop
