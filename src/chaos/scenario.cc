#include "chaos/scenario.h"

#include <cstdio>

#include "common/random.h"
#include "common/spec.h"

namespace approxhadoop::chaos {

using spec::formatDouble;

std::string
Scenario::describe() const
{
    char buf[320];
    std::string jobs_dim =
        concurrent_jobs > 1 ? " jobs=" + std::to_string(concurrent_jobs)
                            : "";
    std::string fleet_dim =
        cluster != "xeon10" ? " cluster=" + cluster : "";
    std::snprintf(buf, sizeof(buf),
                  "#%llu %s %llux%llu reducers=%u threads=%u seed=%llu "
                  "sampling=%.3g%s%s%s mode=%s attempts=%u plan[%s]",
                  static_cast<unsigned long long>(index), workload.c_str(),
                  static_cast<unsigned long long>(blocks),
                  static_cast<unsigned long long>(items), reducers, threads,
                  static_cast<unsigned long long>(job_seed), sampling,
                  has_target ? (" target=" + formatDouble(target)).c_str()
                             : "",
                  jobs_dim.c_str(), fleet_dim.c_str(), ft::toString(mode),
                  max_attempts, plan.summary().c_str());
    return buf;
}

std::string
Scenario::approxrunCommand() const
{
    std::string cmd = "approxrun " + workload;
    cmd += " --blocks " + std::to_string(blocks);
    cmd += " --items " + std::to_string(items);
    cmd += " --seed " + std::to_string(job_seed);
    cmd += " --reducers " + std::to_string(reducers);
    cmd += " --threads " + std::to_string(threads);
    if (cluster != "xeon10") {
        cmd += " --cluster " + cluster;
    }
    if (has_target) {
        cmd += " --target " + formatDouble(target);
    } else if (sampling < 1.0) {
        cmd += " --sampling " + formatDouble(sampling);
    }
    cmd += " --failure-mode ";
    cmd += ft::toString(mode);
    cmd += " --max-attempts " + std::to_string(max_attempts);
    cmd += " --checkpoint-interval " + std::to_string(checkpoint_interval);
    cmd += " --heartbeat-interval " + formatDouble(heartbeat_ms);
    cmd += " --task-timeout " + formatDouble(timeout_ms);
    std::string spec = plan.spec();
    if (!spec.empty()) {
        cmd += " --fault-plan \"" + spec + "\"";
    }
    if (plan.hasDriverCrash()) {
        // dcrash= kills abort the process; approxrun requires a journal
        // to resume from, so the reproducer must carry one.
        cmd += " --journal chaos.axj";
    }
    return cmd;
}

const std::vector<std::string>&
ScenarioGenerator::workloadNames()
{
    // Count/sum aggregations only: their per-key cluster statistics can
    // be recomputed analytically by replaying the mapper, which is what
    // the oracle's absorb-identity check needs. One workload per dataset
    // family keeps scenario runtime bounded; "skewstorm" is the
    // adversarial hot-key / Zipf-shifted-block-size variant of
    // projectpop.
    static const std::vector<std::string> kNames = {
        "wikilength", "projectpop", "pagetraffic", "totalsize",
        "skewstorm"};
    return kNames;
}

Scenario
ScenarioGenerator::generate(uint64_t index) const
{
    // All draws come from a child stream of (family seed, index) in a
    // fixed order, so generate(i) is a pure function of its inputs.
    Rng rng = Rng(family_seed_).derive(0xC4A05 + index);

    Scenario s;
    s.family_seed = family_seed_;
    s.index = index;
    s.workload =
        workloadNames()[rng.uniformInt(workloadNames().size())];
    s.blocks = 16 + rng.uniformInt(49);   // 16..64 map tasks
    s.items = 8 + rng.uniformInt(25);     // 8..32 items per block
    static const uint32_t kReducers[] = {1, 2, 4};
    s.reducers = kReducers[rng.uniformInt(3)];
    s.threads = static_cast<uint32_t>(2 + rng.uniformInt(7));  // 2..8
    s.job_seed = 1 + rng.uniformInt(1000000000);

    double approx_kind = rng.uniform();
    if (approx_kind < 0.45) {
        s.sampling = 1.0;
    } else if (approx_kind < 0.80) {
        s.sampling = 0.3 + 0.6 * rng.uniform();
    } else {
        s.has_target = true;
        s.target = 0.02 + 0.08 * rng.uniform();
    }

    static const ft::FailureMode kModes[] = {ft::FailureMode::kRetry,
                                             ft::FailureMode::kAbsorb,
                                             ft::FailureMode::kAuto};
    s.mode = kModes[rng.uniformInt(3)];
    s.max_attempts = static_cast<uint32_t>(2 + rng.uniformInt(7));
    static const uint64_t kCheckpoints[] = {0, 3, 8, 16};
    s.checkpoint_interval = kCheckpoints[rng.uniformInt(4)];
    static const double kHeartbeats[] = {250.0, 500.0, 1000.0};
    s.heartbeat_ms = kHeartbeats[rng.uniformInt(3)];
    static const double kTimeouts[] = {0.0, 2000.0, 8000.0};
    s.timeout_ms = kTimeouts[rng.uniformInt(3)];

    ft::FaultPlan& plan = s.plan;
    if (rng.bernoulli(0.5)) {
        plan.task_crash_prob = 0.6 * rng.uniform();
    }
    if (rng.bernoulli(0.4)) {
        plan.reduce_crash_prob = 0.8 * rng.uniform();
    }
    if (rng.bernoulli(0.4)) {
        plan.chunk_corrupt_prob = 0.5 * rng.uniform();
    }
    if (rng.bernoulli(0.35)) {
        plan.bad_record_prob = 0.3 * rng.uniform();
    }
    if (rng.bernoulli(0.35)) {
        plan.straggler_prob = 0.3 * rng.uniform();
        plan.straggler_factor = 2.0 + 6.0 * rng.uniform();
        plan.straggler_sigma = rng.bernoulli(0.5) ? 0.4 * rng.uniform()
                                                  : 0.0;
    }
    uint64_t server_crashes = rng.uniformInt(3);
    for (uint64_t c = 0; c < server_crashes; ++c) {
        ft::FaultPlan::ServerCrash crash;
        crash.server = static_cast<uint32_t>(rng.uniformInt(10));
        crash.at = 200.0 * rng.uniform();
        crash.down_for =
            rng.bernoulli(0.5) ? 10.0 + 100.0 * rng.uniform() : -1.0;
        plan.server_crashes.push_back(crash);
    }
    plan.seed = rng.uniformInt(100000);

    // A slice of guaranteed retry-exhaustion scenarios: every attempt
    // crashes and attempts run out, which must end in the exit-3
    // contract (JobFailedError), never a hang or a silent zero exit.
    if (rng.bernoulli(0.06)) {
        s.mode = ft::FailureMode::kRetry;
        s.plan.task_crash_prob = 1.0;
        s.max_attempts = 2;
        s.has_target = false;
        s.sampling = 1.0;
    }

    // Multi-job slice: 2-4 concurrent jobs through the JobService
    // (drawn last so the single-job field prefix above is unchanged for
    // a given (family seed, index)). Server crashes are stripped — a
    // whole-server crash is not attributable to one job when several
    // tenants hold map slots on it.
    if (rng.bernoulli(0.12)) {
        s.concurrent_jobs = static_cast<uint32_t>(2 + rng.uniformInt(3));
        s.plan.server_crashes.clear();
    }

    // Elastic/heterogeneous slice (drawn last, same reason as above).
    // Every fleet has >= 10 servers so the legacy `server=` ids drawn
    // earlier (0..9) always exist.
    if (rng.bernoulli(0.30)) {
        static const char* kFleets[] = {"10xeon+20atom", "6xeon+6atom",
                                        "atom60", "12atom", "16xeon"};
        s.cluster = kFleets[rng.uniformInt(5)];
    }
    // Fleet-change events only make sense standalone: the JobService
    // rejects fleet-changing fault plans (a revocation or resize cannot
    // be attributed to one tenant).
    if (s.concurrent_jobs == 1) {
        if (rng.bernoulli(0.25)) {
            ft::FaultPlan::Revocation storm;
            storm.count = static_cast<uint32_t>(1 + rng.uniformInt(5));
            storm.at = 200.0 * rng.uniform();
            storm.down_for =
                rng.bernoulli(0.5) ? 10.0 + 100.0 * rng.uniform() : -1.0;
            plan.revocations.push_back(storm);
        }
        if (rng.bernoulli(0.2)) {
            ft::FaultPlan::ScaleOut add;
            add.count = static_cast<uint32_t>(1 + rng.uniformInt(6));
            add.server_class = rng.bernoulli(0.5) ? "atom" : "xeon";
            add.at = 150.0 * rng.uniform();
            plan.scale_outs.push_back(add);
        }
        if (rng.bernoulli(0.2)) {
            ft::FaultPlan::Drain drain;
            drain.count = static_cast<uint32_t>(1 + rng.uniformInt(4));
            drain.at = 150.0 * rng.uniform();
            plan.drains.push_back(drain);
        }
        // Driver-crash dimension (drawn last, same stability reason):
        // one or two dcrash= kills early in the job. The oracle wraps
        // such scenarios in the journal record/resume loop and checks
        // the resumed run against the uninterrupted one. Kill times
        // past the job's end simply never fire — the equivalence then
        // holds trivially. Single-job only: the JobService rejects
        // dcrash plans (a driver kill is not attributable to one
        // tenant).
        if (rng.bernoulli(0.25)) {
            uint64_t kills = 1 + rng.uniformInt(2);
            for (uint64_t k = 0; k < kills; ++k) {
                plan.driver_crashes.push_back(0.5 + 15.0 * rng.uniform());
            }
        }
    }
    return s;
}

}  // namespace approxhadoop::chaos
