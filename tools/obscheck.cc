/**
 * @file
 * obscheck — schema validator for approxrun/approxchaos observability
 * artifacts. CI runs it on every --report-json / --trace-out file so a
 * refactor cannot silently ship malformed or internally inconsistent
 * JSON.
 *
 *   obscheck --report run.report.json --trace run.trace.json
 *
 * Checks:
 *  - the report parses, carries the expected schema tag, and has every
 *    required top-level section;
 *  - maps_total == completed + killed + dropped + absorbed, on failed
 *    runs too;
 *  - per-wave plan/outcome rows match the counters' wave count on
 *    successful runs;
 *  - the trace parses, is a Chrome trace-event container, and simulated
 *    timestamps are monotone non-decreasing within each (pid, tid) row.
 *
 * Exit codes: 0 valid, 1 validation failure, 2 usage/IO error.
 */
#include <array>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/spec.h"
#include "journal/journal.h"
#include "mapreduce/counters.h"
#include "obs/json.h"

using namespace approxhadoop;

namespace {

enum ExitCode { kExitOk = 0, kExitInvalid = 1, kExitBadUsage = 2 };

/** Collects failures so one run reports every problem, not just the
 *  first. */
struct Checker
{
    int failures = 0;

    void fail(const std::string& what)
    {
        std::fprintf(stderr, "obscheck: %s\n", what.c_str());
        ++failures;
    }

    void require(bool ok, const std::string& what)
    {
        if (!ok) {
            fail(what);
        }
    }
};

/** The JSON artifact at @p path, or nullopt after failing the check
 *  when it does not parse. Exits 2 when the file cannot be read. */
std::optional<obs::JsonValue>
parseArtifact(const std::string& path, const char* what, Checker& check)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        std::fprintf(stderr, "obscheck: cannot read %s\n", path.c_str());
        std::exit(kExitBadUsage);
    }
    std::string text;
    char buf[65536];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);
    std::string error;
    std::optional<obs::JsonValue> doc = obs::parseJson(text, &error);
    if (!doc) {
        check.fail(std::string(what) + " " + path + ": " + error);
    }
    return doc;
}

void
checkReport(const std::string& path, Checker& check)
{
    std::optional<obs::JsonValue> doc = parseArtifact(path, "report", check);
    if (!doc) {
        return;
    }
    const obs::JsonValue& v = *doc;
    check.require(v.isObject(), "report: root is not an object");
    check.require(v.at("schema").string == "approxhadoop-job-report/1",
                  "report: schema tag is not approxhadoop-job-report/1");
    for (const char* key :
         {"app", "status", "config", "counters", "results", "waves",
          "replans", "metrics", "wall_clock"}) {
        check.require(v.has(key),
                      std::string("report: missing key '") + key + "'");
    }
    const std::string& status = v.at("status").string;
    check.require(status == "ok" || status == "failed",
                  "report: status must be ok or failed, got '" + status +
                      "'");
    check.require(v.at("runtime_s").isNumber(),
                  "report: runtime_s is not a number");
    const obs::JsonValue& counters = v.at("counters");
    check.require(counters.isObject(), "report: counters is not an object");
    for (const char* key :
         {"maps_total", "maps_completed", "maps_killed", "maps_dropped",
          "maps_absorbed", "waves", "items_total", "items_processed"}) {
        check.require(counters.at(key).isNumber(),
                      std::string("report: counters.") + key +
                          " is not a number");
    }
    // Every map task ends completed, killed, dropped or absorbed — a
    // failed job's teardown included.
    check.require(counters.at("maps_total").number ==
                      counters.at("maps_completed").number +
                          counters.at("maps_killed").number +
                          counters.at("maps_dropped").number +
                          counters.at("maps_absorbed").number,
                  "report: counters.maps_total != maps_completed + "
                  "maps_killed + maps_dropped + maps_absorbed");
    // Fleet-elasticity fields (additive in schema /1: absent in reports
    // from older builds, typed + conserved when present).
    for (const char* key : {"servers_added", "servers_revoked",
                            "servers_drained", "servers_retired"}) {
        if (counters.has(key)) {
            check.require(counters.at(key).isNumber(),
                          std::string("report: counters.") + key +
                              " is not a number");
        }
    }
    if (counters.has("servers_revoked") &&
        counters.has("server_crashes") &&
        counters.at("servers_revoked").isNumber() &&
        counters.at("server_crashes").isNumber()) {
        check.require(counters.at("servers_revoked").number <=
                          counters.at("server_crashes").number,
                      "report: counters.servers_revoked exceeds "
                      "server_crashes (every storm victim is a crash)");
    }
    if (counters.has("servers_retired") &&
        counters.has("servers_drained") &&
        counters.has("servers_revoked") &&
        counters.at("servers_retired").isNumber()) {
        check.require(counters.at("servers_retired").number <=
                          counters.at("servers_drained").number +
                              counters.at("servers_revoked").number,
                      "report: counters.servers_retired exceeds "
                      "drained+revoked (a server only leaves via drain "
                      "or permanent revocation)");
    }
    if (v.at("config").isObject() && v.at("config").has("cluster")) {
        check.require(v.at("config").at("cluster").isString(),
                      "report: config.cluster is not a string");
    }
    const obs::JsonValue& waves = v.at("waves");
    check.require(waves.isArray(), "report: waves is not an array");
    if (status == "ok" && waves.isArray() &&
        counters.at("waves").isNumber()) {
        // Every wave the job ran must carry exactly one plan/outcome row.
        double expected = counters.at("waves").number;
        check.require(
            static_cast<double>(waves.array.size()) == expected,
            "report: waves has " + std::to_string(waves.array.size()) +
                " rows but counters.waves = " +
                std::to_string(static_cast<long long>(expected)));
    }
    for (const obs::JsonValue& row : waves.array) {
        check.require(row.has("wave") && row.has("plan") &&
                          row.has("outcome"),
                      "report: wave row missing wave/plan/outcome");
        check.require(row.at("plan").at("maps_started").isNumber(),
                      "report: wave plan missing maps_started");
        check.require(row.at("outcome").at("completed").isNumber(),
                      "report: wave outcome missing completed");
    }
    for (const obs::JsonValue& rec : v.at("replans").array) {
        const std::string& trigger = rec.at("trigger").string;
        check.require(trigger == "pilot" || trigger == "replan" ||
                          trigger == "achieved" || trigger == "user-drop",
                      "report: bad replan trigger '" + trigger + "'");
        check.require(rec.at("sampling_ratio").isNumber() &&
                          rec.at("sampling_ratio").number > 0.0 &&
                          rec.at("sampling_ratio").number <= 1.0,
                      "report: replan sampling_ratio out of (0, 1]");
    }
    for (const obs::JsonValue& row : v.at("results").array) {
        check.require(row.has("key") && row.at("value").isNumber(),
                      "report: result row missing key/value");
    }
    check.require(v.at("wall_clock").isObject(),
                  "report: wall_clock is not an object");
}

void
checkServiceReport(const std::string& path, Checker& check)
{
    std::optional<obs::JsonValue> doc =
        parseArtifact(path, "service report", check);
    if (!doc) {
        return;
    }
    const obs::JsonValue& v = *doc;
    check.require(v.isObject(), "service report: root is not an object");
    check.require(
        v.at("schema").string == "approxhadoop-service-report/1",
        "service report: schema tag is not "
        "approxhadoop-service-report/1");
    for (const char* key :
         {"spec", "seed", "duration", "sim_makespan", "jobs_submitted",
          "jobs_completed", "jobs_failed", "peak_queue_depth",
          "energy_wh", "tenants"}) {
        check.require(v.has(key), std::string("service report: missing "
                                              "key '") +
                                      key + "'");
    }
    for (const char* key : {"seed", "duration", "sim_makespan",
                            "jobs_submitted", "jobs_completed",
                            "jobs_failed", "peak_queue_depth",
                            "energy_wh"}) {
        check.require(v.at(key).isNumber(),
                      std::string("service report: ") + key +
                          " is not a number");
    }
    // Submission accounting must balance: every job completed or
    // failed (the service refuses to finish with stalled jobs).
    check.require(v.at("jobs_submitted").number ==
                      v.at("jobs_completed").number +
                          v.at("jobs_failed").number,
                  "service report: submitted != completed + failed");
    const obs::JsonValue& tenants = v.at("tenants");
    if (!tenants.isArray() || tenants.array.empty()) {
        check.fail("service report: tenants is not a non-empty array");
        return;
    }
    double tenant_submitted = 0.0;
    for (const obs::JsonValue& t : tenants.array) {
        check.require(t.isObject() && t.has("name"),
                      "service report: tenant row missing name");
        for (const char* key :
             {"priority", "weight", "jobs_submitted", "jobs_completed",
              "jobs_failed", "jobs_degraded", "p50_latency",
              "p99_latency", "mean_latency", "goodput_per_ksec",
              "mean_rel_ci_width", "max_rel_ci_width",
              "target_rel_error", "slot_seconds", "slo_seconds",
              "slo_violations"}) {
            check.require(t.at(key).isNumber(),
                          std::string("service report: tenant.") + key +
                              " is not a number");
        }
        check.require(t.at("p50_latency").number <=
                          t.at("p99_latency").number,
                      "service report: tenant p50 > p99");
        check.require(t.at("jobs_degraded").number <=
                          t.at("jobs_completed").number,
                      "service report: tenant degraded > completed");
        check.require(t.at("slot_seconds").number >= 0.0,
                      "service report: negative tenant slot_seconds");
        tenant_submitted += t.at("jobs_submitted").number;
    }
    check.require(tenant_submitted == v.at("jobs_submitted").number,
                  "service report: tenant submissions do not sum to "
                  "the total");
}

void
checkTrace(const std::string& path, Checker& check)
{
    std::optional<obs::JsonValue> doc = parseArtifact(path, "trace", check);
    if (!doc) {
        return;
    }
    const obs::JsonValue& events = doc->at("traceEvents");
    if (!events.isArray()) {
        check.fail("trace: traceEvents is not an array");
        return;
    }
    check.require(!events.array.empty(), "trace: traceEvents is empty");
    // Per-row monotonicity: the exporter sorts by (pid, tid, ts), so the
    // simulated clock must never run backwards within one track row.
    std::map<std::pair<double, double>, double> last_ts;
    bool saw_metadata = false;
    for (const obs::JsonValue& e : events.array) {
        if (!e.isObject() || !e.has("ph") || !e.has("pid") ||
            !e.has("tid")) {
            check.fail("trace: event without ph/pid/tid");
            return;
        }
        const std::string& ph = e.at("ph").string;
        if (ph == "M") {
            saw_metadata = true;
            continue;
        }
        check.require(e.at("ts").isNumber() && e.at("ts").number >= 0.0,
                      "trace: non-'M' event without a valid ts");
        check.require(e.has("name"), "trace: event without a name");
        auto row = std::make_pair(e.at("pid").number, e.at("tid").number);
        auto it = last_ts.find(row);
        if (it != last_ts.end() && e.at("ts").number < it->second) {
            check.fail("trace: ts not monotone within a (pid, tid) row");
            return;
        }
        last_ts[row] = e.at("ts").number;
        if (ph == "X") {
            check.require(e.at("dur").isNumber() &&
                              e.at("dur").number >= 0.0,
                          "trace: 'X' event without a valid dur");
        }
    }
    check.require(saw_metadata,
                  "trace: no 'M' metadata events (track names missing)");
}

/**
 * Validates a --journal file: framing and checksum stamps (via
 * parseJournal), RunSpec sanity, consecutive non-marker epoch indices,
 * a non-decreasing simulated clock, monotone progress counters, resume
 * marker ordinals, and — when the run sealed its final epoch — the
 * counter conservation identities. A torn trailing frame is reported
 * but is NOT a failure: it is the expected artifact of a killed driver.
 */
void
checkJournal(const std::string& path, Checker& check)
{
    std::string bytes;
    try {
        bytes = journal::readJournalFile(path);
    } catch (const journal::JournalError& e) {
        std::fprintf(stderr, "obscheck: %s\n", e.what());
        std::exit(kExitBadUsage);
    }
    journal::LoadedJournal loaded;
    try {
        loaded = journal::parseJournal(bytes);
    } catch (const journal::JournalError& e) {
        check.fail("journal " + path + ": " + e.what());
        return;
    }
    if (loaded.torn_tail) {
        std::printf("obscheck: journal %s has a torn trailing frame "
                    "(killed driver); sealed prefix is %llu bytes\n",
                    path.c_str(),
                    static_cast<unsigned long long>(loaded.sealed_bytes));
    }

    const journal::RunSpec& spec = loaded.spec;
    check.require(!spec.app.empty(), "journal: RunSpec.app is empty");
    check.require(spec.blocks >= 1, "journal: RunSpec.blocks must be >= 1");
    check.require(spec.items >= 1, "journal: RunSpec.items must be >= 1");
    check.require(spec.reducers >= 1,
                  "journal: RunSpec.reducers must be >= 1");
    check.require(spec.threads >= 1,
                  "journal: RunSpec.threads must be >= 1");

    uint64_t expect_index = 0;
    uint32_t markers = 0;
    double last_sim = 0.0;
    uint64_t last_completed = 0;
    uint64_t last_terminal = 0;
    const journal::Epoch* final_epoch = nullptr;
    const journal::Epoch* last_nonmarker = nullptr;
    for (size_t i = 0; i < loaded.epochs.size(); ++i) {
        const journal::Epoch& e = loaded.epochs[i];
        std::string at = "journal: epoch frame " + std::to_string(i);
        check.require(e.sim_time >= last_sim,
                      at + ": sim_time runs backwards (" +
                          std::to_string(e.sim_time) + " after " +
                          std::to_string(last_sim) + ")");
        last_sim = e.sim_time;

        if (e.kind == journal::Epoch::kResumeMarker) {
            ++markers;
            check.require(e.index == markers,
                          at + ": resume marker ordinal " +
                              std::to_string(e.index) + ", expected " +
                              std::to_string(markers));
            continue;
        }
        check.require(e.index == expect_index,
                      at + ": epoch index " + std::to_string(e.index) +
                          ", expected " + std::to_string(expect_index));
        ++expect_index;
        if (e.kind == journal::Epoch::kWave) {
            check.require(e.wave >= 0, at + ": wave epoch without a "
                                            "wave number");
        } else {
            check.require(e.wave == -1,
                          at + ": non-wave epoch carries wave " +
                              std::to_string(e.wave));
        }
        check.require(e.maps_completed <= e.maps_terminal,
                      at + ": maps_completed exceeds maps_terminal");
        check.require(e.maps_completed >= last_completed &&
                          e.maps_terminal >= last_terminal,
                      at + ": map progress runs backwards");
        last_completed = e.maps_completed;
        last_terminal = e.maps_terminal;
        check.require(e.reducer_records.size() == spec.reducers,
                      at + ": reducer_records has " +
                          std::to_string(e.reducer_records.size()) +
                          " entries for " + std::to_string(spec.reducers) +
                          " reducers");
        if (e.kind == journal::Epoch::kFinal) {
            check.require(final_epoch == nullptr,
                          at + ": second kFinal epoch");
            final_epoch = &e;
        } else {
            check.require(final_epoch == nullptr,
                          at + ": epoch after the kFinal seal");
        }
        last_nonmarker = &e;
    }
    check.require(markers == loaded.resume_markers,
                  "journal: marker count disagrees with parse result");

    if (final_epoch != nullptr) {
        check.require(final_epoch == last_nonmarker,
                      "journal: kFinal epoch is not the last");
        try {
            mr::Counters c =
                mr::Counters::deserialize(final_epoch->counters_blob);
            check.require(c.maps_completed == final_epoch->maps_completed,
                          "journal: final epoch maps_completed disagrees "
                          "with its counters blob");
            std::string violation =
                c.conservationViolation(spec.reducers);
            check.require(violation.empty(),
                          "journal: final epoch counters: " + violation);
        } catch (const std::exception& e) {
            check.fail(std::string("journal: final epoch counters blob: ") +
                       e.what());
        }
    }
}

/** One artifact kind: its flag, what writes it, and its validator. */
struct Artifact
{
    const char* flag;
    const char* help;
    void (*check)(const std::string& path, Checker& check);
};

const Artifact kArtifacts[] = {
    {"--report", "approxrun --report-json artifact", checkReport},
    {"--trace", "approxrun --trace-out artifact", checkTrace},
    {"--service-report", "approxsvc --report-json artifact",
     checkServiceReport},
    {"--journal", "approxrun --journal artifact", checkJournal},
};

/** The file given for each artifact kind; empty when not given. */
using Paths = std::array<std::string, std::size(kArtifacts)>;

const spec::Table<Paths>&
flags()
{
    static const spec::Table<Paths> kFlags = [] {
        spec::Table<Paths> table;
        for (size_t i = 0; i < std::size(kArtifacts); ++i) {
            table.push_back({kArtifacts[i].flag, "FILE", kArtifacts[i].help,
                             [i](Paths& p, const std::string& v) {
                                 p[i] = spec::path(v);
                             }});
        }
        return table;
    }();
    return kFlags;
}

void
usage()
{
    std::printf("usage: obscheck FLAG FILE [FLAG FILE ...]\n\n"
                "validates observability and journal artifacts; at least\n"
                "one flag is required\n\n%s\n"
                "exit codes: 0 valid, 1 validation failure, 2 bad "
                "usage/unreadable file\n",
                spec::help(flags(), 26).c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    Paths paths;
    if (!spec::parseFlags(argc, argv, 1, flags(), paths) ||
        paths == Paths{}) {
        usage();
        return kExitBadUsage;
    }
    Checker check;
    std::string checked;
    for (size_t i = 0; i < paths.size(); ++i) {
        if (!paths[i].empty()) {
            kArtifacts[i].check(paths[i], check);
            checked += " " + paths[i];
        }
    }
    if (check.failures > 0) {
        return kExitInvalid;
    }
    std::printf("obscheck OK:%s\n", checked.c_str());
    return kExitOk;
}
