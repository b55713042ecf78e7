#include "ft/fault_plan.h"

#include <cstdio>
#include <limits>

namespace approxhadoop::ft {

namespace {

const spec::Real kProbability{"a probability", 0.0, 1.0};
const spec::Real kTime{"a time in s", 0.0};
const spec::Real kDowntime{"a duration in s", 0.0};
const spec::Real kKillTime{"a time in s", 0.0,
                           std::numeric_limits<double>::infinity(), true};
const spec::Count kServerId{"a server id", 0,
                            std::numeric_limits<uint32_t>::max()};
const spec::Count kServers{"a server count", 1, 100000};

using Values = std::vector<std::string>;

/** A probability-valued key stored in @p field; omitted at 0. */
spec::Row<FaultPlan>
probability(const char* key, const char* help, double FaultPlan::*field)
{
    return {key, "P", help,
            [field](FaultPlan& plan, const std::string& v) {
                plan.*field = kProbability.read(v);
            },
            [field](const FaultPlan& plan, Values& out) {
                if (plan.*field > 0.0) {
                    out.push_back(spec::formatDouble(plan.*field));
                }
            }};
}

/** Splits a scheduled event "WHAT@T[+D]" at its '@'. */
std::pair<std::string, std::string>
splitAt(const std::string& value, const char* grammar)
{
    size_t at = value.find('@');
    if (at == std::string::npos) {
        throw spec::BadValue(grammar, value);
    }
    return {value.substr(0, at), value.substr(at + 1)};
}

/** Reads an event time "T[+D]" as {T, D}, D = -1 when absent; a +D is
 *  rejected unless @p repairs. */
std::pair<double, double>
readWhen(const std::string& when, bool repairs = false)
{
    size_t plus = when.find('+');
    if (plus == std::string::npos) {
        return {kTime.read(when), -1.0};
    }
    if (!repairs) {
        throw spec::BadValue("a time T (this key takes no +D)", when);
    }
    return {kTime.read(when.substr(0, plus)),
            kDowntime.read(when.substr(plus + 1))};
}

/** Canonical "N@T[+D]" form; a negative @p down_for prints no +D. */
std::string
eventText(const std::string& what, double at, double down_for = -1.0)
{
    std::string out = what + '@' + spec::formatDouble(at);
    if (down_for >= 0.0) {
        out += '+' + spec::formatDouble(down_for);
    }
    return out;
}

}  // namespace

bool
FaultPlan::enabled() const
{
    return task_crash_prob > 0.0 || chunk_corrupt_prob > 0.0 ||
           bad_record_prob > 0.0 || reduce_crash_prob > 0.0 ||
           straggler_prob > 0.0 || changesFleet() || hasDriverCrash();
}

bool
FaultPlan::changesFleet() const
{
    return !server_crashes.empty() || !revocations.empty() ||
           !scale_outs.empty() || !drains.empty();
}

const spec::Table<FaultPlan>&
FaultPlan::grammar()
{
    static const spec::Table<FaultPlan> kTable = {
        probability("crash", "per-attempt map crash probability",
                    &FaultPlan::task_crash_prob),
        probability("corrupt",
                    "per-fetch shuffle-chunk corruption\nprobability",
                    &FaultPlan::chunk_corrupt_prob),
        probability("badrec", "per-record bad-input probability",
                    &FaultPlan::bad_record_prob),
        probability("rcrash", "per-attempt reduce crash probability",
                    &FaultPlan::reduce_crash_prob),
        {"straggler", "P:F[:S]",
         "probability, slowdown factor >= 1,\noptional lognormal sigma",
         [](FaultPlan& plan, const std::string& v) {
             std::vector<std::string> f = spec::split(v, ':');
             if (f.size() > 3) {
                 throw spec::BadValue("P[:F[:S]]", v);
             }
             plan.straggler_prob = kProbability.read(f[0]);
             if (f.size() > 1) {
                 plan.straggler_factor =
                     spec::Real{"a slowdown factor", 1.0}.read(f[1]);
             }
             if (f.size() > 2) {
                 plan.straggler_sigma =
                     spec::Real{"a lognormal sigma", 0.0}.read(f[2]);
             }
         },
         [](const FaultPlan& plan, Values& out) {
             if (plan.straggler_prob > 0.0) {
                 std::string s = spec::formatDouble(plan.straggler_prob) +
                                 ':' +
                                 spec::formatDouble(plan.straggler_factor);
                 if (plan.straggler_sigma > 0.0) {
                     s += ':' + spec::formatDouble(plan.straggler_sigma);
                 }
                 out.push_back(s);
             }
         }},
        {"server", "ID@T[+D]",
         "crash server ID at simulated time T,\n"
         "repaired after D s (repeatable)",
         [](FaultPlan& plan, const std::string& v) {
             auto [id, when] = splitAt(v, "ID@T[+D]");
             auto [at, down_for] = readWhen(when, true);
             plan.server_crashes.push_back(
                 {static_cast<uint32_t>(kServerId.read(id)), at, down_for});
         },
         [](const FaultPlan& plan, Values& out) {
             for (const ServerCrash& c : plan.server_crashes) {
                 out.push_back(
                     eventText(std::to_string(c.server), c.at, c.down_for));
             }
         },
         true},
        {"revoke", "N@T[+D]",
         "kill N servers at once at time T\n"
         "(correlated revocation storm; kills\n"
         "min(N, alive-1) so the job can finish);\n"
         "+D repairs them, else they leave for good\n"
         "(repeatable)",
         [](FaultPlan& plan, const std::string& v) {
             auto [count, when] = splitAt(v, "N@T[+D]");
             auto [at, down_for] = readWhen(when, true);
             plan.revocations.push_back(
                 {static_cast<uint32_t>(kServers.read(count)), at, down_for});
         },
         [](const FaultPlan& plan, Values& out) {
             for (const Revocation& r : plan.revocations) {
                 out.push_back(
                     eventText(std::to_string(r.count), r.at, r.down_for));
             }
         },
         true},
        {"addsrv", "NCLASS@T",
         "N servers of CLASS (xeon|atom) join the\n"
         "fleet at time T (repeatable)",
         [](FaultPlan& plan, const std::string& v) {
             const char* grammar = "NCLASS@T (e.g. 4atom@90)";
             auto [term, when] = splitAt(v, grammar);
             auto [count, cls] = spec::countedTerm(term, kServers, grammar);
             if (cls != "xeon" && cls != "atom") {
                 throw spec::BadValue("a class xeon or atom", cls);
             }
             plan.scale_outs.push_back({static_cast<uint32_t>(count), cls,
                                        readWhen(when).first});
         },
         [](const FaultPlan& plan, Values& out) {
             for (const ScaleOut& a : plan.scale_outs) {
                 out.push_back(eventText(
                     std::to_string(a.count) + a.server_class, a.at));
             }
         },
         true},
        {"drain", "N@T",
         "gracefully decommission N servers at\n"
         "time T, newest first (repeatable)",
         [](FaultPlan& plan, const std::string& v) {
             auto [count, when] = splitAt(v, "N@T");
             plan.drains.push_back(
                 {static_cast<uint32_t>(kServers.read(count)),
                  readWhen(when).first});
         },
         [](const FaultPlan& plan, Values& out) {
             for (const Drain& d : plan.drains) {
                 out.push_back(eventText(std::to_string(d.count), d.at));
             }
         },
         true},
        {"dcrash", "T",
         "kill the driver at simulated time T; the\n"
         "restarted driver resumes from its\n"
         "--journal (repeatable)",
         [](FaultPlan& plan, const std::string& v) {
             plan.driver_crashes.push_back(kKillTime.read(v));
         },
         [](const FaultPlan& plan, Values& out) {
             for (double at : plan.driver_crashes) {
                 out.push_back(spec::formatDouble(at));
             }
         },
         true},
        {"seed", "S", "fault-stream seed (non-negative integer)",
         [](FaultPlan& plan, const std::string& v) {
             plan.seed = spec::Count{"a non-negative integer"}.read(v);
         },
         [](const FaultPlan& plan, Values& out) {
             if (plan.seed != 0) {
                 out.push_back(std::to_string(plan.seed));
             }
         }},
    };
    return kTable;
}

FaultPlan
FaultPlan::parse(const std::string& spec)
{
    FaultPlan plan;
    spec::parse(spec, grammar(), plan, "fault plan:");
    return plan;
}

std::string
FaultPlan::spec() const
{
    return spec::emit(grammar(), *this);
}

const std::vector<std::string>&
FaultPlan::specKeys()
{
    static const std::vector<std::string> kKeys = spec::keys(grammar());
    return kKeys;
}

std::string
FaultPlan::helpText()
{
    return "comma-separated clauses (all optional):\n" +
           spec::help(grammar(), 21) +
           "e.g. \"crash=0.05,straggler=0.02:6,server=3@120+60,seed=7\"\n"
           "or \"revoke=3@60,addsrv=4atom@90\"";
}

std::string
FaultPlan::summary() const
{
    if (!enabled()) {
        return "none";
    }
    char buf[448];
    std::snprintf(buf, sizeof(buf),
                  "crash=%.3g corrupt=%.3g badrec=%.3g rcrash=%.3g "
                  "straggler=%.3g:%.3g server-crashes=%zu revoke=%zu "
                  "addsrv=%zu drain=%zu dcrash=%zu seed=%llu",
                  task_crash_prob, chunk_corrupt_prob, bad_record_prob,
                  reduce_crash_prob, straggler_prob, straggler_factor,
                  server_crashes.size(), revocations.size(),
                  scale_outs.size(), drains.size(), driver_crashes.size(),
                  static_cast<unsigned long long>(seed));
    return buf;
}

}  // namespace approxhadoop::ft
