#include "service/service_spec.h"

#include <limits>
#include <stdexcept>

#include "obs/json.h"
#include "sim/cluster.h"

namespace approxhadoop::service {

namespace {

/** Builds the default N-class tenant ladder: t0 highest priority,
 *  weights halving per class so higher classes dominate fair share. */
std::vector<TenantClass>
defaultTenants(uint64_t count)
{
    std::vector<TenantClass> tenants;
    for (uint64_t i = 0; i < count; ++i) {
        TenantClass t;
        t.name = "t" + std::to_string(i);
        t.priority = static_cast<uint32_t>(i);
        t.weight = static_cast<double>(uint64_t{1} << (count - 1 - i));
        t.arrival_weight = 1.0;
        tenants.push_back(std::move(t));
    }
    return tenants;
}

/** Parse state: the spec plus the SLO list, which can only be checked
 *  against the tenant count once every clause is read. */
struct Draft
{
    ServiceSpec spec;
    std::vector<double> slos;
};

using Values = std::vector<std::string>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** A real-valued knob; echoed in the report's deterministic JSON number
 *  form (shortest round-trip) so the summary is byte-stable. */
spec::Row<Draft>
real(const char* key, const char* meta, const char* help,
     spec::Real grammar, double ServiceSpec::*field)
{
    return {key, meta, help,
            [grammar, field](Draft& d, const std::string& v) {
                d.spec.*field = grammar.read(v);
            },
            [field](const Draft& d, Values& out) {
                out.push_back(obs::JsonWriter::number(d.spec.*field));
            }};
}

spec::Row<Draft>
count(const char* key, const char* meta, const char* help,
      spec::Count grammar, uint64_t ServiceSpec::*field)
{
    return {key, meta, help,
            [grammar, field](Draft& d, const std::string& v) {
                d.spec.*field = grammar.read(v);
            },
            [field](const Draft& d, Values& out) {
                out.push_back(std::to_string(d.spec.*field));
            }};
}

/** A 0|1 switch, echoed only when on. */
spec::Row<Draft>
onOff(const char* key, const char* help, bool ServiceSpec::*field)
{
    return {key, "0|1", help,
            [field](Draft& d, const std::string& v) {
                d.spec.*field = spec::Count{"a switch", 0, 1}.read(v) == 1;
            },
            [field](const Draft& d, Values& out) {
                if (d.spec.*field) {
                    out.push_back("1");
                }
            }};
}

/** The fault-plan row @p key, applied to the per-job fault plan. Not
 *  emitted: specSummary() echoes the whole plan as `faults=`. */
spec::Row<Draft>
faultRow(const char* key)
{
    const spec::Row<ft::FaultPlan>& row =
        *spec::find(ft::FaultPlan::grammar(), key);
    return {row.name, row.meta, row.help,
            [&row](Draft& d, const std::string& v) {
                row.apply(d.spec.fault_plan, v);
            }};
}

const spec::Table<Draft>&
grammar()
{
    const spec::Count kNonNegative{"a non-negative integer"};
    const spec::Count kPositive{"an integer", 1};
    static const spec::Table<Draft> kTable = {
        {"tenants", "N", "priority classes t0..t(N-1); t0 highest",
         [](Draft& d, const std::string& v) {
             d.spec.tenants =
                 defaultTenants(spec::Count{"a tenant count", 1, 16}.read(v));
         },
         [](const Draft& d, Values& out) {
             out.push_back(std::to_string(d.spec.tenants.size()));
         }},
        real("arrival", "R", "aggregate arrival rate, jobs/sim-second",
             {"a rate", 0.0, kInf, true}, &ServiceSpec::arrival_rate),
        real("duration", "D", "arrival window, sim seconds",
             {"a duration", 0.0, kInf, true}, &ServiceSpec::duration),
        count("seed", "S", "root seed (arrivals and per-job seeds)",
              kNonNegative, &ServiceSpec::seed),
        count("blocks", "B", "per-job dataset blocks", kPositive,
              &ServiceSpec::blocks),
        count("items", "I", "per-job items per block", kPositive,
              &ServiceSpec::items),
        {"reducers", "R", "reduce tasks per job",
         [](Draft& d, const std::string& v) {
             d.spec.reducers = static_cast<uint32_t>(
                 spec::Count{"an integer", 1, 1024}.read(v));
         },
         [](const Draft& d, Values& out) {
             out.push_back(std::to_string(d.spec.reducers));
         }},
        real("target", "E", "per-job target relative error",
             {"a relative error", 0.0, kInf, true},
             &ServiceSpec::target_rel_error),
        count("pressure", "K", "queue depth triggering degradation (0=off)",
              kNonNegative, &ServiceSpec::pressure_threshold),
        real("degrade", "F", "target widening factor per pressure step",
             {"a factor", 1.0}, &ServiceSpec::degrade_factor),
        real("maxscale", "M", "cap on total target widening",
             {"a scale", 1.0}, &ServiceSpec::max_target_scale),
        real("endgame", "P", "endgame speculation left-percent (0=off)",
             {"a percentage", 0.0, 100.0},
             &ServiceSpec::endgame_left_percent),
        {"cluster", "SPEC",
         "xeon10 (default), atom60, or a mixed\n"
         "fleet like 10xeon+20atom",
         [](Draft& d, const std::string& v) {
             (void)sim::ClusterConfig::parse(v);
             d.spec.cluster = v;
         },
         [](const Draft& d, Values& out) { out.push_back(d.spec.cluster); }},
        onOff("preempt",
              "suspend the least important running job\n"
              "when a more important arrival cannot\n"
              "admit (resumed later; no work lost)",
              &ServiceSpec::preempt),
        onOff("defer",
              "hold lower-priority admissions while a\n"
              "priority-0 job is active",
              &ServiceSpec::defer),
        {"slo", "A+B+...", "per-tenant p99 SLO seconds",
         [](Draft& d, const std::string& v) {
             for (const std::string& s : spec::split(v, '+')) {
                 d.slos.push_back(spec::Real{"SLO seconds", 0.0}.read(s));
             }
         }},
        {"workloads", "a+b+...", "job-mix workload names",
         [](Draft& d, const std::string& v) {
             d.spec.workloads = spec::split(v, '+');
             for (const std::string& w : d.spec.workloads) {
                 if (w.empty()) {
                     throw spec::BadValue("'+'-separated workload names", v);
                 }
             }
         }},
        faultRow("straggler"),
        faultRow("crash"),
    };
    return kTable;
}

}  // namespace

ServiceSpec
parseServiceSpec(const std::string& text)
{
    Draft d;
    d.spec.tenants = defaultTenants(2);
    spec::parse(text, grammar(), d, "service spec:");
    if (!d.slos.empty()) {
        if (d.slos.size() != d.spec.tenants.size()) {
            throw std::invalid_argument(
                "service spec: slo wants one value per tenant (" +
                std::to_string(d.spec.tenants.size()) + ", got " +
                std::to_string(d.slos.size()) + ")");
        }
        for (size_t i = 0; i < d.slos.size(); ++i) {
            d.spec.tenants[i].slo_seconds = d.slos[i];
        }
    }
    return d.spec;
}

std::string
specSummary(const ServiceSpec& config)
{
    std::string s = spec::emit(grammar(), Draft{config, {}});
    if (config.fault_plan.enabled()) {
        s += ",faults=" + config.fault_plan.spec();
    }
    return s;
}

std::string
serviceSpecHelp()
{
    return "service spec clauses (comma-separated key=value):\n" +
           spec::help(grammar(), 21);
}

}  // namespace approxhadoop::service
