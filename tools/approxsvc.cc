/**
 * @file
 * approxsvc — multi-tenant service simulator CLI. Runs a JobService
 * simulation from a compact spec string and prints a per-tenant
 * summary; --report-json writes the machine-readable
 * approxhadoop-service-report/1 document (validated by
 * `obscheck --service-report`, byte-identical across same-spec runs).
 *
 *   approxsvc "tenants=2,arrival=0.05,duration=600,seed=7"
 *   approxsvc "tenants=2,arrival=0.05,slo=150+0" --report-json out.json
 *
 * Exit codes: 0 ok, 1 simulation error, 2 bad usage/spec.
 */
#include <cstdio>
#include <exception>
#include <string>

#include "common/spec.h"
#include "service/job_service.h"
#include "service/report.h"
#include "service/service_spec.h"

using namespace approxhadoop;

namespace {

struct Options
{
    std::string spec_text;
    std::string report_path;
    bool quiet = false;
    bool help = false;
};

const spec::Table<Options>&
flags()
{
    static const spec::Table<Options> kFlags = {
        {"", "spec", nullptr,
         [](Options& o, const std::string& v) { o.spec_text = v; }},
        {"--report-json", "FILE",
         "write the service report (approxhadoop-service-report/1)",
         [](Options& o, const std::string& v) {
             o.report_path = spec::path(v);
         }},
        spec::toggle("--quiet", "suppress the per-tenant table",
                     &Options::quiet),
        spec::toggle("--help", "print this help", &Options::help),
        spec::toggle("-h", nullptr, &Options::help),
    };
    return kFlags;
}

void
usage()
{
    std::printf(
        "usage: approxsvc <spec> [--report-json FILE] [--quiet]\n"
        "\n"
        "runs a multi-tenant JobService simulation: seeded Poisson\n"
        "arrivals over the shared diurnal curve, priority admission,\n"
        "weighted fair-share slot arbitration, end-game speculation,\n"
        "and accuracy-for-latency degradation under queue pressure\n"
        "\n%s"
        "\n%s"
        "\n"
        "exit codes: 0 ok, 1 simulation error, 2 bad usage/spec\n",
        service::serviceSpecHelp().c_str(), spec::help(flags(), 22).c_str());
}

bool
writeFile(const std::string& path, const std::string& content)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "approxsvc: cannot write %s\n", path.c_str());
        return false;
    }
    bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
              content.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

void
printTable(const service::ServiceReport& report)
{
    std::printf("service: %llu jobs submitted, %llu completed, %llu "
                "failed; makespan %.1f s; peak queue %llu; %.1f Wh\n",
                static_cast<unsigned long long>(report.jobs_submitted),
                static_cast<unsigned long long>(report.jobs_completed),
                static_cast<unsigned long long>(report.jobs_failed),
                report.sim_makespan,
                static_cast<unsigned long long>(report.peak_queue_depth),
                report.energy_wh);
    std::printf("%-8s %4s %6s %5s %5s %9s %9s %9s %9s %8s %5s\n", "tenant",
                "prio", "weight", "jobs", "done", "p50(s)", "p99(s)",
                "ci-mean", "ci-max", "slot-s", "degr");
    for (const service::TenantReport& t : report.tenants) {
        std::printf(
            "%-8s %4u %6.1f %5llu %5llu %9.1f %9.1f %9.4f %9.4f %8.1f "
            "%5llu\n",
            t.name.c_str(), t.priority, t.weight,
            static_cast<unsigned long long>(t.jobs_submitted),
            static_cast<unsigned long long>(t.jobs_completed),
            t.p50_latency, t.p99_latency, t.mean_rel_ci_width,
            t.max_rel_ci_width, t.slot_seconds,
            static_cast<unsigned long long>(t.jobs_degraded));
        if (t.slo_seconds > 0.0) {
            std::printf("         slo %.1f s: %llu violation(s)\n",
                        t.slo_seconds,
                        static_cast<unsigned long long>(t.slo_violations));
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!spec::parseFlags(argc, argv, 1, flags(), opt)) {
        usage();
        return 2;
    }
    if (opt.help) {
        usage();
        return 0;
    }
    if (opt.spec_text.empty()) {
        usage();
        return 2;
    }

    service::ServiceSpec spec;
    try {
        spec = service::parseServiceSpec(opt.spec_text);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "approxsvc: %s\n", e.what());
        return 2;
    }

    try {
        service::JobService svc(spec);
        service::ServiceReport report = svc.run();
        if (!opt.quiet) {
            printTable(report);
        }
        if (!opt.report_path.empty() &&
            !writeFile(opt.report_path, report.toJson() + "\n")) {
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "approxsvc: %s\n", e.what());
        return 1;
    }
}
