#include "workloads/webserver_log.h"

#include <array>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "workloads/format_util.h"

namespace approxhadoop::workloads {

namespace {

/** Cumulative distribution over the 168 hours of a week. */
const std::vector<double>&
hourCdf()
{
    static const std::vector<double> cdf = [] {
        std::vector<double> c(168);
        double total = 0.0;
        for (uint32_t h = 0; h < 168; ++h) {
            total += weeklyIntensity(h);
            c[h] = total;
        }
        for (double& v : c) {
            v /= total;
        }
        return c;
    }();
    return cdf;
}

uint32_t
sampleHour(Rng& rng)
{
    const std::vector<double>& cdf = hourCdf();
    double u = rng.uniform();
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<uint32_t>(it - cdf.begin());
}

const char*
sampleBrowser(Rng& rng)
{
    static const std::array<const char*, 5> kBrowsers = {
        "chrome", "firefox", "safari", "msie", "bot"};
    static const std::array<double, 5> kCdf = {0.45, 0.70, 0.84, 0.93, 1.0};
    double u = rng.uniform();
    for (size_t i = 0; i < kBrowsers.size(); ++i) {
        if (u <= kCdf[i]) {
            return kBrowsers[i];
        }
    }
    return kBrowsers.back();
}

/**
 * Appends one web-server log record, drawing from @p rng, the record's
 * fresh Rng(recordSeed(p.seed, block, index)). RNG stream and output
 * bytes are frozen (see wiki_dump.cc).
 */
void
appendWebLogRecord(const WebServerLogParams& p,
                   const ZipfDistribution& client_zipf,
                   const ZipfDistribution& url_zipf,
                   const ZipfDistribution& attacker_zipf, Rng& rng,
                   std::string& out)
{
    uint32_t hour = sampleHour(rng);
    bool attack = rng.bernoulli(p.attack_prob);
    uint64_t client = attack
                          ? attacker_zipf.sample(rng)
                          : p.num_attackers + client_zipf.sample(rng);
    uint64_t url = url_zipf.sample(rng);
    uint64_t bytes =
        static_cast<uint64_t>(rng.exponential(1.0 / p.mean_bytes)) + 128;
    const char* browser = sampleBrowser(rng);

    appendU64(out, hour);
    out.append("\tc");
    appendU64(out, client);
    out.append("\t/u");
    appendU64(out, url);
    out.push_back('\t');
    appendU64(out, bytes);
    out.push_back('\t');
    out.append(browser);
    out.push_back('\t');
    out.push_back(attack ? '1' : '0');
}

}  // namespace

std::unique_ptr<hdfs::BlockDataset>
makeWebServerLog(const WebServerLogParams& params)
{
    auto client_zipf = std::make_shared<ZipfDistribution>(
        params.num_clients, params.client_zipf);
    auto url_zipf = std::make_shared<ZipfDistribution>(params.num_urls,
                                                       params.url_zipf);
    auto attacker_zipf = std::make_shared<ZipfDistribution>(
        params.num_attackers, 1.2);
    WebServerLogParams p = params;

    auto generator = [p, client_zipf, url_zipf, attacker_zipf](
                         uint64_t block, uint64_t index) {
        std::string out;
        Rng rng(recordSeed(p.seed, block, index));
        appendWebLogRecord(p, *client_zipf, *url_zipf, *attacker_zipf, rng,
                           out);
        return out;
    };
    auto block_generator = [p, client_zipf, url_zipf, attacker_zipf](
                               uint64_t block, const uint64_t* indices,
                               size_t count, hdfs::RecordBuffer& out) {
        appendSeededRecords(
            p.seed, block, indices, count, out,
            [&](Rng& rng, uint64_t /*index*/, std::string& bytes) {
                appendWebLogRecord(p, *client_zipf, *url_zipf,
                                   *attacker_zipf, rng, bytes);
            });
    };
    return std::make_unique<hdfs::GeneratedDataset>(
        p.num_weeks, p.entries_per_week, generator, block_generator, 140);
}

bool
parseWebLogEntry(const std::string& record, WebLogEntry& entry)
{
    WebLogEntryView view;
    if (!parseWebLogEntry(std::string_view(record), view)) {
        return false;
    }
    entry.hour_of_week = view.hour_of_week;
    entry.client.assign(view.client);
    entry.url.assign(view.url);
    entry.bytes = view.bytes;
    entry.browser.assign(view.browser);
    entry.attack = view.attack;
    return true;
}

bool
parseWebLogEntry(std::string_view record, WebLogEntryView& entry)
{
    size_t pos = 0;
    std::array<std::string_view, 6> fields;
    for (int f = 0; f < 6; ++f) {
        size_t tab = record.find('\t', pos);
        if (tab == std::string_view::npos) {
            if (f != 5) {
                return false;
            }
            tab = record.size();
        }
        fields[f] = record.substr(pos, tab - pos);
        pos = tab + 1;
    }
    entry.hour_of_week = static_cast<uint32_t>(parseU64(fields[0]));
    entry.client = fields[1];
    entry.url = fields[2];
    entry.bytes = parseU64(fields[3]);
    entry.browser = fields[4];
    entry.attack = fields[5] == "1";
    return true;
}

}  // namespace approxhadoop::workloads
