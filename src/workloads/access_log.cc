#include "workloads/access_log.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "workloads/format_util.h"

namespace approxhadoop::workloads {

namespace {

/** The project and page of one of a block's trending pages. */
struct TrendingPage
{
    uint64_t project;
    uint64_t page;
};

/** Trending page @p t of @p block, drawn from a stream of its own:
 *  the project, then the page (frozen like the record streams). */
TrendingPage
drawTrendingPage(const AccessLogParams& p,
                 const ZipfDistribution& project_zipf,
                 const ZipfDistribution& page_zipf, uint64_t block,
                 uint64_t t)
{
    Rng trend_rng(splitmix64(p.seed * 977 + block * 17 + t));
    TrendingPage trending;
    trending.project = project_zipf.sample(trend_rng);
    trending.page = page_zipf.sample(trend_rng);
    return trending;
}

/**
 * Appends one access-log record, drawing from @p rng, the record's fresh
 * Rng(recordSeed(p.seed, block, index)); @p trending(t) yields the
 * block's trending page t. The per-record RNG stream and the output
 * bytes are frozen (see wiki_dump.cc). The former per-record block RNG
 * was constructed but never drawn from, so no record byte ever depended
 * on it; it is gone entirely.
 */
template <typename Trending>
void
appendAccessLogRecord(const AccessLogParams& p,
                      const ZipfDistribution& project_zipf,
                      const ZipfDistribution& page_zipf, uint64_t block,
                      Rng& rng, Trending&& trending, std::string& out)
{
    uint64_t project;
    uint64_t page;
    if (rng.bernoulli(p.trending_prob)) {
        // Temporal locality: this block's trending pages.
        TrendingPage hit = trending(rng.uniformInt(p.trending_pages));
        project = hit.project;
        page = hit.page;
    } else {
        project = project_zipf.sample(rng);
        page = page_zipf.sample(rng);
    }
    // Timestamps advance with the block (each block is a time slice).
    uint64_t ts = block * 3600 + rng.uniformInt(3600);
    uint64_t bytes =
        static_cast<uint64_t>(rng.exponential(1.0 / p.mean_bytes)) + 200;

    appendU64(out, ts);
    out.append("\tproj");
    appendU64(out, project);
    out.append("\tproj");
    appendU64(out, project);
    out.append("/page");
    appendU64(out, page);
    out.push_back('\t');
    appendU64(out, bytes);
}

}  // namespace

std::unique_ptr<hdfs::BlockDataset>
makeAccessLog(const AccessLogParams& params)
{
    auto project_zipf = std::make_shared<ZipfDistribution>(
        params.num_projects, params.project_zipf);
    auto page_zipf = std::make_shared<ZipfDistribution>(
        params.pages_per_project, params.page_zipf);
    AccessLogParams p = params;

    auto generator = [p, project_zipf, page_zipf](uint64_t block,
                                                  uint64_t index) {
        std::string out;
        Rng rng(recordSeed(p.seed, block, index));
        appendAccessLogRecord(
            p, *project_zipf, *page_zipf, block, rng,
            [&](uint64_t t) {
                return drawTrendingPage(p, *project_zipf, *page_zipf, block,
                                        t);
            },
            out);
        return out;
    };
    auto block_generator = [p, project_zipf, page_zipf](
                               uint64_t block, const uint64_t* indices,
                               size_t count, hdfs::RecordBuffer& out) {
        // Every trending record of the block reads one of its few
        // trending pages: draw each once per call, not once per record.
        std::vector<std::pair<uint64_t, TrendingPage>> drawn;
        auto trending = [&](uint64_t t) {
            for (const auto& [drawn_t, page] : drawn) {
                if (drawn_t == t) {
                    return page;
                }
            }
            drawn.emplace_back(t, drawTrendingPage(p, *project_zipf,
                                                   *page_zipf, block, t));
            return drawn.back().second;
        };
        appendSeededRecords(
            p.seed, block, indices, count, out,
            [&](Rng& rng, uint64_t /*index*/, std::string& bytes) {
                appendAccessLogRecord(p, *project_zipf, *page_zipf, block,
                                      rng, trending, bytes);
            });
    };
    return std::make_unique<hdfs::GeneratedDataset>(
        p.num_blocks, p.entries_per_block, generator, block_generator,
        120);
}

bool
parseAccessLogEntry(const std::string& record, AccessLogEntry& entry)
{
    AccessLogEntryView view;
    if (!parseAccessLogEntry(std::string_view(record), view)) {
        return false;
    }
    entry.timestamp = view.timestamp;
    entry.project.assign(view.project);
    entry.page.assign(view.page);
    entry.bytes = view.bytes;
    return true;
}

bool
parseAccessLogEntry(std::string_view record, AccessLogEntryView& entry)
{
    size_t t1 = record.find('\t');
    if (t1 == std::string_view::npos) {
        return false;
    }
    size_t t2 = record.find('\t', t1 + 1);
    if (t2 == std::string_view::npos) {
        return false;
    }
    size_t t3 = record.find('\t', t2 + 1);
    if (t3 == std::string_view::npos) {
        return false;
    }
    entry.timestamp = parseU64(record);
    entry.project = record.substr(t1 + 1, t2 - t1 - 1);
    entry.page = record.substr(t2 + 1, t3 - t2 - 1);
    entry.bytes = parseU64(record.substr(t3 + 1));
    return true;
}

const std::vector<LogPeriod>&
logPeriods()
{
    // Paper Table 2. Map counts are the compressed size divided into
    // 64 MB HDFS blocks, matching the 92 maps the paper reports for one
    // day and ~744 for one week.
    static const std::vector<LogPeriod> kPeriods = {
        {"1 day", 0.499, 5.7, 27.0, 92},
        {"2 days", 1.1, 12.4, 58.7, 199},
        {"5 days", 2.8, 32.1, 151.3, 514},
        {"1 week", 4.0, 46.0, 216.9, 744},
        {"10 days", 5.9, 67.5, 318.2, 1080},
        {"15 days", 9.0, 103.2, 486.7, 1652},
        {"1 month", 19.4, 222.0, 1024.0, 3552},
        {"3 months", 55.8, 638.0, 2970.0, 10208},
        {"6 months", 109.2, 1228.8, 5836.8, 19661},
        {"1 year", 234.2, 2355.2, 12800.0, 37683},
    };
    return kPeriods;
}

}  // namespace approxhadoop::workloads
