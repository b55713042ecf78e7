/**
 * @file
 * approxchaos — randomized fault-plan fuzzer with an invariant oracle
 * and scenario shrinking.
 *
 * Generates seeded random scenarios over the full fault-injection space
 * (every FaultPlan key, every failure mode, 1-8 threads, sampled /
 * targeted / full inputs), runs each against the invariant oracle
 * (src/chaos/oracle.h), and on violation shrinks the scenario to a
 * minimal reproducer emitted as a ready-to-paste `approxrun` command.
 *
 *   approxchaos --seed 1 --trials 200         # default soak
 *   approxchaos --seed 1 --scenario 17        # replay one scenario
 *   approxchaos --mutate ci-widening          # prove the oracle bites
 *   approxchaos --selftest                    # every mutation caught
 *
 * Exit codes: 0 all invariants held, 1 violation found (reproducers
 * printed, and appended to --repro-out if given), 2 bad usage.
 */
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "chaos/oracle.h"
#include "chaos/scenario.h"
#include "chaos/shrink.h"
#include "common/logging.h"
#include "common/spec.h"
#include "obs/observability.h"
#include "obs/report.h"

using namespace approxhadoop;

namespace {

struct Options
{
    uint64_t seed = 1;
    int trials = 200;
    int coverage_trials = 40;
    std::optional<uint64_t> scenario_index;
    chaos::Mutation mutation = chaos::Mutation::kNone;
    bool selftest = false;
    std::string repro_out;
    bool print_scenarios = false;
    bool verbose = false;
};

enum ExitCode { kExitClean = 0, kExitViolation = 1, kExitBadUsage = 2 };

using Arg = const std::string&;

int
readTrials(Arg v)
{
    return static_cast<int>(
        spec::Count{"a non-negative integer", 0, 1000000}.read(v));
}

const spec::Table<Options>&
flags()
{
    static const spec::Table<Options> kFlags = {
        {"--seed", "S", "scenario-family seed (default 1)",
         [](Options& o, Arg v) {
             o.seed = spec::Count{"a non-negative integer"}.read(v);
         }},
        {"--trials", "N", "random scenarios to run (default 200)",
         [](Options& o, Arg v) { o.trials = readTrials(v); }},
        {"--coverage-trials", "N",
         "CI-coverage battery trials (default 40;\n0 disables the battery)",
         [](Options& o, Arg v) { o.coverage_trials = readTrials(v); }},
        {"--scenario", "I",
         "regenerate and check only scenario index I\n"
         "(bit-identical to its soak appearance)",
         [](Options& o, Arg v) {
             o.scenario_index = spec::Count{"a scenario index"}.read(v);
         }},
        {"--mutate", "NAME",
         "deliberately break one invariant and\n"
         "verify the oracle flags it:\n"
         "ci-widening | counters | determinism |\nexit-code",
         [](Options& o, Arg v) { o.mutation = chaos::parseMutation(v); }},
        spec::toggle("--selftest",
                     "run every mutation probe (each must be\n"
                     "caught) plus a clean probe (must pass)",
                     &Options::selftest),
        {"--repro-out", "FILE", "append shrunk reproducer commands to FILE",
         [](Options& o, Arg v) { o.repro_out = spec::path(v); }},
        spec::toggle("--print", "print every scenario before running it",
                     &Options::print_scenarios),
        spec::toggle("--verbose", "framework INFO logging",
                     &Options::verbose),
    };
    return kFlags;
}

void
usage()
{
    std::printf("usage: approxchaos [options]\n"
                "\n"
                "%s"
                "\n"
                "exit codes: 0 clean, 1 invariant violated, 2 bad usage\n",
                spec::help(flags(), 22).c_str());
}

/** Shrinks a violating scenario and prints/records the reproducer. */
void
reportViolation(const Options& opt, const chaos::ChaosOracle& oracle,
                const chaos::Scenario& scenario,
                const std::vector<chaos::Violation>& violations)
{
    for (const chaos::Violation& v : violations) {
        std::printf("VIOLATION [%s] %s\n", v.invariant.c_str(),
                    v.detail.c_str());
    }
    std::printf("  scenario: %s\n", scenario.describe().c_str());

    chaos::ShrinkResult shrunk = chaos::shrinkScenario(
        scenario, [&oracle](const chaos::Scenario& candidate) {
            return !oracle.check(candidate).empty();
        });
    std::printf("  shrunk (%d oracle runs): %s\n", shrunk.evaluations,
                shrunk.scenario.describe().c_str());
    std::string repro = shrunk.scenario.approxrunCommand();
    std::printf("  minimal reproducer:\n    %s\n", repro.c_str());
    if (scenario.family_seed != 0 || scenario.index != 0) {
        std::printf("  harness replay:\n    approxchaos --seed %llu "
                    "--scenario %llu%s%s\n",
                    static_cast<unsigned long long>(scenario.family_seed),
                    static_cast<unsigned long long>(scenario.index),
                    opt.mutation != chaos::Mutation::kNone ? " --mutate "
                                                           : "",
                    opt.mutation != chaos::Mutation::kNone
                        ? chaos::toString(opt.mutation)
                        : "");
    }
    if (!opt.repro_out.empty()) {
        if (FILE* f = std::fopen(opt.repro_out.c_str(), "a")) {
            std::fprintf(f, "# [%s] %s\n%s\n",
                         violations.empty()
                             ? "?"
                             : violations.front().invariant.c_str(),
                         scenario.describe().c_str(), repro.c_str());
            std::fclose(f);
        } else {
            std::fprintf(stderr, "cannot append to %s\n",
                         opt.repro_out.c_str());
        }
        // Rerun the shrunk scenario with observability attached and save
        // the machine-readable artifacts next to the reproducer list, so
        // a CI failure ships the timeline and job report of the minimal
        // failing run, not just its command line.
        obs::Observability sink;
        mr::JobConfig config;
        chaos::RunOutcome rerun = oracle.runScenario(
            shrunk.scenario, shrunk.scenario.threads, &sink, &config);
        obs::JobReport report =
            rerun.failed
                ? obs::JobReport::fromFailure(shrunk.scenario.workload,
                                              config, rerun.error,
                                              rerun.counters, &sink)
                : obs::JobReport::build(shrunk.scenario.workload, config,
                                        rerun.result, &sink);
        std::string report_path = opt.repro_out + ".report.json";
        std::string trace_path = opt.repro_out + ".trace.json";
        auto save = [](const std::string& path, const std::string& text) {
            if (FILE* f = std::fopen(path.c_str(), "w")) {
                std::fwrite(text.data(), 1, text.size(), f);
                std::fclose(f);
                return true;
            }
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        };
        if (save(report_path, report.toJson()) &&
            save(trace_path, sink.trace.toChromeJson())) {
            std::printf("  artifacts: %s, %s\n", report_path.c_str(),
                        trace_path.c_str());
        }
    }
}

/** Checks one scenario; returns true when it violated an invariant. */
bool
checkScenario(const Options& opt, const chaos::ChaosOracle& oracle,
              const chaos::Scenario& scenario)
{
    if (opt.print_scenarios) {
        std::printf("scenario %s\n", scenario.describe().c_str());
    }
    std::vector<chaos::Violation> violations = oracle.check(scenario);
    if (violations.empty()) {
        return false;
    }
    reportViolation(opt, oracle, scenario, violations);
    return true;
}

int
runSoak(const Options& opt)
{
    chaos::ChaosOracle oracle(opt.mutation);
    chaos::ScenarioGenerator generator(opt.seed);
    int violations = 0;

    if (opt.scenario_index) {
        chaos::Scenario scenario = generator.generate(*opt.scenario_index);
        std::printf("scenario %s\n", scenario.describe().c_str());
        std::printf("  %s\n", scenario.approxrunCommand().c_str());
        if (checkScenario(opt, oracle, scenario)) {
            return kExitViolation;
        }
        std::printf("scenario %llu: all invariants held\n",
                    static_cast<unsigned long long>(*opt.scenario_index));
        return kExitClean;
    }

    if (opt.mutation != chaos::Mutation::kNone) {
        // Deterministic probe first: a scenario known to exercise the
        // code path this mutation corrupts, so `--mutate X` reliably
        // demonstrates the oracle catching the planted bug before the
        // random soak continues hunting.
        chaos::Scenario probe =
            chaos::ChaosOracle::mutationProbe(opt.mutation);
        std::printf("mutation '%s' active; probing...\n",
                    chaos::toString(opt.mutation));
        if (checkScenario(opt, oracle, probe)) {
            ++violations;
        }
    }

    for (int i = 0; i < opt.trials && violations == 0; ++i) {
        chaos::Scenario scenario =
            generator.generate(static_cast<uint64_t>(i));
        if (checkScenario(opt, oracle, scenario)) {
            ++violations;
            break;  // one shrunk reproducer is the actionable output
        }
        if ((i + 1) % 25 == 0) {
            std::printf("%d/%d scenarios clean\n", i + 1, opt.trials);
        }
    }

    if (violations == 0 && opt.coverage_trials > 0) {
        std::printf("running CI-coverage battery (%d trials)...\n",
                    opt.coverage_trials);
        std::optional<chaos::Violation> miss =
            oracle.coverageBattery(opt.seed, opt.coverage_trials);
        if (miss) {
            std::printf("VIOLATION [%s] %s\n", miss->invariant.c_str(),
                        miss->detail.c_str());
            ++violations;
        }
    }

    if (violations > 0) {
        return kExitViolation;
    }
    std::printf("clean: %d scenarios + %d coverage trials, all "
                "invariants held\n",
                opt.trials, opt.coverage_trials);
    return kExitClean;
}

/**
 * The harness-has-teeth test: a clean oracle must pass its probes and
 * every mutation must be caught on its own probe. Run by CI so a
 * refactor cannot silently neuter an invariant check.
 */
int
runSelftest(const Options& opt)
{
    static const chaos::Mutation kMutations[] = {
        chaos::Mutation::kCiWidening, chaos::Mutation::kCounters,
        chaos::Mutation::kDeterminism, chaos::Mutation::kExitCode};

    chaos::ChaosOracle clean;
    for (chaos::Mutation mutation : kMutations) {
        chaos::Scenario probe = chaos::ChaosOracle::mutationProbe(mutation);
        std::vector<chaos::Violation> baseline = clean.check(probe);
        if (!baseline.empty()) {
            std::printf("selftest FAILED: clean oracle reports a "
                        "violation on the %s probe: [%s] %s\n",
                        chaos::toString(mutation),
                        baseline.front().invariant.c_str(),
                        baseline.front().detail.c_str());
            return kExitViolation;
        }
        chaos::ChaosOracle mutated(mutation);
        std::vector<chaos::Violation> caught = mutated.check(probe);
        if (caught.empty()) {
            std::printf("selftest FAILED: mutation '%s' was NOT caught "
                        "— the matching invariant has no teeth\n",
                        chaos::toString(mutation));
            return kExitViolation;
        }
        std::printf("mutation '%s' caught: [%s] %s\n",
                    chaos::toString(mutation),
                    caught.front().invariant.c_str(),
                    caught.front().detail.c_str());
        // The shrinker must hand back a still-violating reproducer.
        chaos::ShrinkResult shrunk = chaos::shrinkScenario(
            probe, [&mutated](const chaos::Scenario& candidate) {
                return !mutated.check(candidate).empty();
            });
        if (mutated.check(shrunk.scenario).empty()) {
            std::printf("selftest FAILED: shrunk scenario for '%s' no "
                        "longer violates\n",
                        chaos::toString(mutation));
            return kExitViolation;
        }
        std::printf("  shrunk reproducer: %s\n",
                    shrunk.scenario.approxrunCommand().c_str());
    }
    (void)opt;
    std::printf("selftest OK: every mutation caught, clean probes "
                "clean\n");
    return kExitClean;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!spec::parseFlags(argc, argv, 1, flags(), opt)) {
        usage();
        return kExitBadUsage;
    }
    Logger::instance().setLevel(opt.verbose ? LogLevel::kInfo
                                            : LogLevel::kWarn);
    if (opt.selftest) {
        return runSelftest(opt);
    }
    return runSoak(opt);
}
