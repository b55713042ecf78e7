#include "workloads/wiki_dump.h"

#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "workloads/format_util.h"

namespace approxhadoop::workloads {

namespace {

/** Per-block size multiplier (within-block locality), one draw per block. */
double
wikiBlockEffect(const WikiDumpParams& p, uint64_t block)
{
    Rng block_rng(splitmix64(p.seed * 31 + block));
    return block_rng.lognormal(-0.5 * p.block_effect_sigma *
                                   p.block_effect_sigma,
                               p.block_effect_sigma);
}

/**
 * Appends one dump record, drawing from @p rng, the record's fresh
 * Rng(recordSeed(p.seed, block, index)). That per-record stream (engine
 * seed and draw order) and the output bytes are frozen: changing either
 * changes the dataset and therefore every committed expectation
 * downstream. A stream per record keeps the data identical regardless
 * of which tasks run or in which order.
 */
void
appendWikiRecord(const WikiDumpParams& p, const ZipfDistribution& zipf,
                 uint64_t block, uint64_t index, double block_effect,
                 Rng& rng, std::string& out)
{
    uint64_t article_id = block * p.articles_per_block + index;
    double size = rng.lognormal(p.size_mu, p.size_sigma) * block_effect;
    uint64_t size_bytes = static_cast<uint64_t>(std::llround(size)) + 1;

    // Geometric number of outgoing links with the configured mean.
    double q = 1.0 / (1.0 + p.mean_links);
    uint64_t links = 0;
    while (!rng.bernoulli(q) && links < 64) {
        ++links;
    }

    out.push_back('a');
    appendU64(out, article_id);
    out.push_back('\t');
    appendU64(out, size_bytes);
    out.push_back('\t');
    for (uint64_t l = 0; l < links; ++l) {
        if (l > 0) {
            out.push_back(',');
        }
        out.push_back('a');
        appendU64(out, zipf.sample(rng));
    }
}

}  // namespace

std::unique_ptr<hdfs::BlockDataset>
makeWikiDump(const WikiDumpParams& params)
{
    auto zipf = std::make_shared<ZipfDistribution>(params.num_link_targets,
                                                   params.link_zipf);
    WikiDumpParams p = params;
    auto generator = [p, zipf](uint64_t block, uint64_t index) {
        std::string out;
        Rng rng(recordSeed(p.seed, block, index));
        appendWikiRecord(p, *zipf, block, index, wikiBlockEffect(p, block),
                         rng, out);
        return out;
    };
    // Batched synthesis draws the block-effect multiplier once per block
    // instead of once per record (one seeded Rng stream fewer per record;
    // the multiplier has a stream of its own, so hoisting it leaves every
    // record byte-identical), and seeds the records' Rngs in lock step.
    auto block_generator = [p, zipf](uint64_t block,
                                     const uint64_t* indices, size_t count,
                                     hdfs::RecordBuffer& out) {
        double block_effect = wikiBlockEffect(p, block);
        appendSeededRecords(
            p.seed, block, indices, count, out,
            [&](Rng& rng, uint64_t index, std::string& bytes) {
                appendWikiRecord(p, *zipf, block, index, block_effect, rng,
                                 bytes);
            });
    };
    return std::make_unique<hdfs::GeneratedDataset>(
        p.num_blocks, p.articles_per_block, generator, block_generator,
        1200);
}

uint64_t
wikiArticleSize(std::string_view record)
{
    // The title before the first tab is a few bytes long: a plain loop
    // beats a memchr call there.
    size_t first = 0;
    while (first < record.size() && record[first] != '\t') {
        ++first;
    }
    if (first == record.size()) {
        return 0;
    }
    return parseU64(record.substr(first + 1));
}

void
wikiArticleLinks(const std::string& record, std::vector<std::string>& out)
{
    std::vector<std::string_view> views;
    wikiArticleLinks(std::string_view(record), views);
    for (std::string_view v : views) {
        out.emplace_back(v);
    }
}

void
wikiArticleLinks(std::string_view record, std::vector<std::string_view>& out)
{
    size_t first = record.find('\t');
    if (first == std::string_view::npos) {
        return;
    }
    size_t second = record.find('\t', first + 1);
    if (second == std::string_view::npos) {
        return;
    }
    size_t pos = second + 1;
    while (pos < record.size()) {
        size_t comma = record.find(',', pos);
        if (comma == std::string_view::npos) {
            comma = record.size();
        }
        if (comma > pos) {
            out.push_back(record.substr(pos, comma - pos));
        }
        pos = comma + 1;
    }
}

}  // namespace approxhadoop::workloads
