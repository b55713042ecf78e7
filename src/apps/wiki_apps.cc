#include "apps/wiki_apps.h"

#include <array>
#include <charconv>
#include <cstring>
#include <vector>

#include "mapreduce/reducer.h"
#include "workloads/wiki_dump.h"

namespace approxhadoop::apps {

// ---------------------------------------------------------------------------
// WikiLength
// ---------------------------------------------------------------------------

namespace {

/** "00" "01" ... "99": the two digits of every value below 100. */
constexpr auto kDigitPairs = [] {
    std::array<char, 200> pairs{};
    for (int i = 0; i < 100; ++i) {
        pairs[2 * i] = static_cast<char>('0' + i / 10);
        pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return pairs;
}();

/** Formats "len%08llu" into @p buf (no heap); same bytes as snprintf. */
std::string_view
formatBinKey(uint64_t bin, char (&buf)[24])
{
    std::memcpy(buf, "len", 3);
    if (bin >= 100000000) {
        // Nine digits or more: no padding, so to_chars writes the key.
        char* end = std::to_chars(buf + 3, buf + sizeof(buf), bin).ptr;
        return std::string_view(buf, static_cast<size_t>(end - buf));
    }
    auto v = static_cast<uint32_t>(bin);
    for (size_t at = 9; at >= 3; at -= 2) {
        std::memcpy(buf + at, &kDigitPairs[2 * (v % 100)], 2);
        v /= 100;
    }
    return std::string_view(buf, 11);
}

}  // namespace

std::string
WikiLength::binKey(uint64_t size_bytes)
{
    uint64_t bin = size_bytes / kBinWidthBytes * kBinWidthBytes;
    char buf[24];
    return std::string(formatBinKey(bin, buf));
}

void
WikiLength::Mapper::map(const std::string& record, mr::MapContext& ctx)
{
    std::string_view view(record);
    mapBatch(&view, 1, ctx);
}

void
WikiLength::Mapper::mapBatch(const std::string_view* records, size_t count,
                             mr::MapContext& ctx)
{
    // A direct-mapped memo from bin number to the task's key id, kept
    // for this call: records of a bin seen before skip formatting and
    // hashing the key. A miss formats the key and write() interns it,
    // which hands back the id the key already has; so the rows and ids
    // are those of one write() per record however the batch is split.
    constexpr size_t kMemoEntries = 256;
    std::array<uint64_t, kMemoEntries> tags{};  // bin number + 1; 0 empty
    std::array<uint32_t, kMemoEntries> ids;
    char buf[24];
    for (size_t i = 0; i < count; ++i) {
        uint64_t bin = workloads::wikiArticleSize(records[i]) /
                       kBinWidthBytes;
        size_t slot = bin % kMemoEntries;
        if (tags[slot] == bin + 1) {
            ctx.writeId(ids[slot], 1.0);
            continue;
        }
        ids[slot] = ctx.write(formatBinKey(bin * kBinWidthBytes, buf), 1.0);
        tags[slot] = bin + 1;
    }
}

mr::Job::MapperFactory
WikiLength::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
WikiLength::preciseReducerFactory()
{
    return [] { return std::make_unique<mr::SumReducer>(); };
}

mr::JobConfig
WikiLength::jobConfig(uint64_t items_per_block, uint32_t num_reducers)
{
    mr::JobConfig config;
    config.name = "WikiLength";
    config.num_reducers = num_reducers;
    // ~70 s per 400-article block: read-dominated, so input sampling can
    // save at most ~21% while dropping saves proportionally (Fig. 6).
    double scale = 400.0 / static_cast<double>(items_per_block);
    config.map_cost.t0 = 1.5;
    config.map_cost.t_read = 0.135 * scale;
    config.map_cost.t_process = 0.037 * scale;
    config.map_cost.noise_sigma = 0.03;
    config.map_cost.straggler_prob = 0.002;
    config.map_cost.straggler_factor = 2.0;
    config.reduce_cost.t0 = 2.0;
    config.reduce_cost.t_record = 2e-5;
    return config;
}

// ---------------------------------------------------------------------------
// WikiPageRank
// ---------------------------------------------------------------------------

void
WikiPageRank::Mapper::map(const std::string& record, mr::MapContext& ctx)
{
    std::vector<std::string> links;
    workloads::wikiArticleLinks(record, links);
    for (const std::string& target : links) {
        ctx.write(target, 1.0);
    }
}

void
WikiPageRank::Mapper::mapBatch(const std::string_view* records,
                               size_t count, mr::MapContext& ctx)
{
    for (size_t i = 0; i < count; ++i) {
        links_.clear();
        workloads::wikiArticleLinks(records[i], links_);
        for (std::string_view target : links_) {
            ctx.write(target, 1.0);
        }
    }
}

mr::Job::MapperFactory
WikiPageRank::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
WikiPageRank::preciseReducerFactory()
{
    return [] { return std::make_unique<mr::SumReducer>(); };
}

mr::JobConfig
WikiPageRank::jobConfig(uint64_t items_per_block, uint32_t num_reducers)
{
    mr::JobConfig config = WikiLength::jobConfig(items_per_block,
                                                 num_reducers);
    config.name = "WikiPageRank";
    // Link extraction is heavier per article than size binning; the
    // paper reports ~8% framework overhead for this app.
    config.map_cost.t_process *= 1.6;
    return config;
}

}  // namespace approxhadoop::apps
