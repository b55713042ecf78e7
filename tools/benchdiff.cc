/**
 * @file
 * Compares a fresh BENCH_*.json report against a committed baseline and
 * fails CI on a throughput regression — the perf-gate of the batched
 * map-side execution work.
 *
 * Usage:
 *   benchdiff [--threshold <frac>] <baseline.json> <candidate.json>
 *
 * Both files must be schema "approxhadoop-bench/1" reports for the same
 * benchmark with the same repetition count. Metric names carry the
 * comparison semantics (see bench/bench_util.h BenchReport):
 *
 *   - "*_per_sec"  throughput: candidate must be >= baseline * (1 -
 *                  threshold); higher is always fine.
 *   - "sim_*"      simulated result: must equal the baseline exactly —
 *                  a speedup that changes simulated output is a
 *                  correctness bug, not a perf regression.
 *   - otherwise    informational: printed, never gated.
 *
 * Exit codes: 0 pass, 1 regression (or sim mismatch), 2 usage/parse
 * error.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/spec.h"
#include "obs/json.h"

using approxhadoop::obs::JsonValue;
using approxhadoop::obs::parseJson;

namespace {

constexpr const char* kSchema = "approxhadoop-bench/1";

bool
readFile(const char* path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "benchdiff: cannot read %s\n", path);
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
loadReport(const char* path, JsonValue& out)
{
    std::string text;
    if (!readFile(path, text)) {
        return false;
    }
    std::string error;
    auto parsed = parseJson(text, &error);
    if (!parsed.has_value()) {
        std::fprintf(stderr, "benchdiff: %s: %s\n", path, error.c_str());
        return false;
    }
    out = std::move(*parsed);
    if (!out.isObject() || !out.at("schema").isString() ||
        out.at("schema").string != kSchema) {
        std::fprintf(stderr, "benchdiff: %s: not a %s report\n", path,
                     kSchema);
        return false;
    }
    if (!out.at("bench").isString() || !out.at("reps").isNumber() ||
        !out.at("metrics").isObject()) {
        std::fprintf(stderr, "benchdiff: %s: missing bench/reps/metrics\n",
                     path);
        return false;
    }
    return true;
}

bool
endsWith(const std::string& s, const char* suffix)
{
    size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool
startsWith(const std::string& s, const char* prefix)
{
    return s.rfind(prefix, 0) == 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    double threshold = 0.15;
    const char* base_path = nullptr;
    const char* cand_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
            try {
                threshold = approxhadoop::spec::Real{"a fraction", 0, 1,
                                                     false, true}
                                .read(argv[++i]);
            } catch (const approxhadoop::spec::BadValue& e) {
                std::fprintf(stderr, "benchdiff: --threshold %s\n",
                             e.what());
                return 2;
            }
        } else if (base_path == nullptr) {
            base_path = argv[i];
        } else if (cand_path == nullptr) {
            cand_path = argv[i];
        } else {
            base_path = nullptr;
            break;
        }
    }
    if (base_path == nullptr || cand_path == nullptr) {
        std::fprintf(stderr,
                     "usage: benchdiff [--threshold <frac>] "
                     "<baseline.json> <candidate.json>\n");
        return 2;
    }

    JsonValue base;
    JsonValue cand;
    if (!loadReport(base_path, base) || !loadReport(cand_path, cand)) {
        return 2;
    }
    if (base.at("bench").string != cand.at("bench").string) {
        std::fprintf(stderr,
                     "benchdiff: benchmark mismatch: \"%s\" vs \"%s\"\n",
                     base.at("bench").string.c_str(),
                     cand.at("bench").string.c_str());
        return 2;
    }
    if (base.at("reps").number != cand.at("reps").number) {
        std::fprintf(stderr,
                     "benchdiff: rep count mismatch (%g vs %g) — medians "
                     "are not comparable\n",
                     base.at("reps").number, cand.at("reps").number);
        return 2;
    }

    const auto& base_metrics = base.at("metrics").object;
    const auto& cand_metrics = cand.at("metrics").object;
    std::printf("benchdiff: %s, threshold %.0f%%\n",
                base.at("bench").string.c_str(), 100.0 * threshold);

    int failures = 0;
    for (const auto& [name, base_v] : base_metrics) {
        if (!base_v.isNumber()) {
            continue;
        }
        auto it = cand_metrics.find(name);
        if (it == cand_metrics.end() || !it->second.isNumber()) {
            std::printf("  MISSING %-42s baseline %.6g\n", name.c_str(),
                        base_v.number);
            ++failures;
            continue;
        }
        double old_v = base_v.number;
        double new_v = it->second.number;
        if (endsWith(name, "_per_sec")) {
            double ratio = old_v > 0.0 ? new_v / old_v : 1.0;
            bool ok = new_v >= old_v * (1.0 - threshold);
            std::printf("  %-7s %-42s %.6g -> %.6g (%+.1f%%)\n",
                        ok ? "ok" : "FAIL", name.c_str(), old_v, new_v,
                        100.0 * (ratio - 1.0));
            if (!ok) {
                ++failures;
            }
        } else if (startsWith(name, "sim_")) {
            bool ok = old_v == new_v;
            if (ok) {
                std::printf("  %-7s %-42s %.6g (exact)\n", "ok",
                            name.c_str(), old_v);
            } else {
                std::printf("  %-7s %-42s %.17g != %.17g — simulated "
                            "result changed\n",
                            "FAIL", name.c_str(), old_v, new_v);
                ++failures;
            }
        } else {
            std::printf("  %-7s %-42s %.6g -> %.6g\n", "info",
                        name.c_str(), old_v, new_v);
        }
    }
    for (const auto& [name, v] : cand_metrics) {
        if (v.isNumber() && base_metrics.find(name) == base_metrics.end()) {
            std::printf("  info    %-42s (new metric) %.6g\n", name.c_str(),
                        v.number);
        }
    }

    if (failures > 0) {
        std::fprintf(stderr, "benchdiff: %d metric(s) failed\n", failures);
        return 1;
    }
    std::printf("benchdiff: pass\n");
    return 0;
}
