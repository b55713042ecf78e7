/**
 * @file
 * Versioned reducer images and the consumers that read them by
 * reference:
 *
 *  - a journal epoch encoded from a versioned image is byte for byte
 *    the epoch encoded from whole checkpoint() blobs, and the
 *    reduce-crash copy synced from it equals checkpoint(), over seeded
 *    consume/snapshot/restore sequences;
 *  - a decorator that overrides only consume/finalize/checkpoint/restore
 *    takes the whole-blob default path and changes nothing in a run;
 *  - the journal bytes of one faulty pagepop run are pinned.
 */
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/aggregation_registry.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "core/sampling_reducer.h"
#include "ft/fault_plan.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "integrity/checksum.h"
#include "journal/journal.h"
#include "mapreduce/job.h"
#include "mapreduce/reducer.h"
#include "sim/cluster.h"

namespace approxhadoop {
namespace {

using journal::Epoch;
using journal::ImageMark;
using journal::ReducerBase;
using journal::ReducerImage;
using Op = core::MultiStageSamplingReducer::Op;

/**
 * Keys whose records (8-byte length, key, 48 value bytes) are 56 to 96
 * bytes long, so records straddle 64-byte blocks and appends move the
 * image's tail across block boundaries. The empty key comes first.
 */
std::vector<std::string>
keyPool()
{
    std::vector<std::string> keys = {""};
    for (size_t i = 1; i < 48; ++i) {
        std::string stem((i * 7) % 41, static_cast<char>('a' + i % 26));
        keys.push_back(stem + std::to_string(i));
    }
    return keys;
}

/** A chunk over the first @p known keys of @p keys. */
mr::MapOutputChunk
randomChunk(std::mt19937_64& rng, uint64_t task,
            const std::vector<std::string>& keys, size_t known)
{
    mr::MapOutputChunk c;
    c.map_task = task;
    c.items_total = 50;
    c.items_processed = 1 + rng() % 50;
    size_t records = rng() % 9;
    mr::RecordWriter out;
    for (size_t i = 0; i < records; ++i) {
        const std::string& key = keys[rng() % known];
        out.write(key, static_cast<double>(rng() % 1000) / 8.0);
    }
    c.assign(std::move(out));
    return c;
}

/** An epoch carrying one reducer image. */
Epoch
epochOf(uint64_t index, const ReducerImage& image)
{
    Epoch e;
    e.index = index;
    e.reducer_state = {image};
    e.reducer_records = {index};
    return e;
}

std::string
checkpointOf(const mr::Reducer& r)
{
    std::string blob;
    EXPECT_TRUE(r.checkpoint(blob));
    return blob;
}

TEST(JournalDeltaTest, VersionedImageMatchesWholeBlobDiff)
{
    const std::vector<std::string> keys = keyPool();
    for (Op op : {Op::kSum, Op::kCount}) {
        for (uint64_t seed : {1u, 2u, 3u, 4u}) {
            const std::string label = "op " +
                                      std::to_string(static_cast<int>(op)) +
                                      " seed " + std::to_string(seed);
            std::mt19937_64 rng(seed);
            // `versioned` is read through snapshot(), `reference` (fed
            // the same chunks) through checkpoint().
            core::MultiStageSamplingReducer versioned(op, 0.95);
            core::MultiStageSamplingReducer reference(op, 0.95);
            ReducerBase versioned_base;
            ReducerBase whole_base;
            std::string copy;
            ImageMark copied;
            std::vector<std::string> saved = {checkpointOf(reference)};
            std::string scratch;
            size_t known = 1;
            uint64_t task = 0;
            uint64_t epochs = 0;
            uint64_t restores = 0;
            uint64_t skippable = 0;
            for (int step = 0; step < 400; ++step) {
                uint64_t roll = rng() % 100;
                if (roll < 45) {
                    if (known < keys.size() && rng() % 3 == 0) {
                        known += 1 + rng() % 3;
                        known = std::min(known, keys.size());
                    }
                    mr::MapOutputChunk c =
                        randomChunk(rng, task++, keys, known);
                    versioned.consume(c);
                    reference.consume(c);
                } else if (roll < 75) {
                    // An epoch (sometimes right after another, so blocks
                    // are rewritten with identical bytes).
                    ReducerImage image;
                    ASSERT_TRUE(versioned.snapshot(scratch, image)) << label;
                    ASSERT_NE(image.block_versions, nullptr) << label;
                    if (!versioned_base.empty()) {
                        const ImageMark& seen = versioned_base[0].mark;
                        size_t n = journal::imageBlocks(image.bytes.size());
                        size_t visited = 0;
                        for (size_t b = image.nextWritten(seen, 0, n); b < n;
                             b = image.nextWritten(seen, b + 1, n)) {
                            ++visited;
                        }
                        skippable += n - visited;
                    }
                    std::string fast =
                        journal::encodeEpoch(epochOf(epochs, image),
                                             versioned_base);
                    std::string blob = checkpointOf(reference);
                    std::string slow = journal::encodeEpoch(
                        epochOf(epochs, ReducerImage{blob}), whole_base);
                    ASSERT_EQ(fast, slow) << label << " epoch " << epochs;
                    ASSERT_EQ(versioned_base[0].bytes, blob) << label;
                    ++epochs;
                } else if (roll < 93) {
                    // A reduce-crash checkpoint.
                    ReducerImage image;
                    ASSERT_TRUE(versioned.snapshot(scratch, image)) << label;
                    image.copyInto(copy, copied);
                    std::string blob = checkpointOf(reference);
                    ASSERT_EQ(copy, blob) << label << " step " << step;
                    saved.push_back(blob);
                } else {
                    // A reduce crash: both roll back to a saved
                    // checkpoint, possibly the pristine one.
                    const std::string& back = saved[rng() % saved.size()];
                    ASSERT_TRUE(versioned.restore(back)) << label;
                    ASSERT_TRUE(reference.restore(back)) << label;
                    ++restores;
                }
            }
            EXPECT_GT(epochs, 50u) << label;
            EXPECT_GT(restores, 5u) << label;
            EXPECT_GT(known, keys.size() / 2) << label;
            // The versioned path did skip blocks.
            EXPECT_GT(skippable, 0u) << label;
        }
    }
}

/** Forwards to an inner reducer, overriding only what the bench's
 *  tracing decorator overrides, so snapshot() takes the default
 *  whole-blob path. */
class Forwarding final : public mr::Reducer
{
  public:
    explicit Forwarding(std::unique_ptr<mr::Reducer> inner)
        : inner_(std::move(inner))
    {
    }

    void consume(const mr::MapOutputChunk& chunk) override
    {
        inner_->consume(chunk);
    }
    void finalize(mr::ReduceContext& ctx) override { inner_->finalize(ctx); }
    bool checkpoint(std::string& state) const override
    {
        return inner_->checkpoint(state);
    }
    bool restore(const std::string& state) override
    {
        return inner_->restore(state);
    }

  private:
    std::unique_ptr<mr::Reducer> inner_;
};

struct JournaledRun
{
    mr::JobResult result;
    std::string journal;
};

/** A wikilength run under reduce crashes and corrupt chunks with a
 *  4-map journal, its reducers made by @p make. */
JournaledRun
runJournaled(const std::function<std::unique_ptr<mr::Reducer>()>& make,
             bool precise)
{
    const apps::AggregationWorkload& w =
        *apps::findAggregationWorkload("wikilength");
    constexpr uint64_t kBlocks = 60;
    constexpr uint64_t kItems = 40;
    constexpr uint64_t kSeed = 5;
    journal::RunSpec spec;
    spec.app = "wikilength";
    spec.blocks = kBlocks;
    spec.items = kItems;
    spec.seed = kSeed;
    spec.reducers = 2;
    spec.map_interval = 4;
    std::unique_ptr<journal::JobJournal> jj =
        journal::JobJournal::createInMemory(spec);

    std::unique_ptr<hdfs::BlockDataset> data =
        w.make_dataset(kBlocks, kItems, kSeed);
    mr::JobConfig config = w.job_config(kItems, 2);
    config.seed = kSeed;
    config.fault_plan =
        ft::FaultPlan::parse("corrupt=0.05,rcrash=0.5,seed=3");
    config.failure_mode = ft::FailureMode::kAbsorb;
    config.journal_map_interval = 4;
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, kSeed);
    core::ApproxJobRunner runner(cluster, *data, nn);
    runner.setEpochSink(jj.get());
    JournaledRun run;
    if (precise) {
        run.result = runner.runPrecise(config, w.mapper_factory(), make);
    } else {
        core::ApproxConfig approx;
        approx.sampling_ratio = 0.5;
        approx.drop_ratio = 0.2;
        run.result =
            runner.runUserDefined(config, approx, w.mapper_factory(), make);
    }
    run.journal = jj->bytes();
    return run;
}

TEST(JournalDeltaTest, DecoratedReducersTakeTheWholeBlobPath)
{
    struct Case
    {
        const char* label;
        bool precise;
        std::function<std::unique_ptr<mr::Reducer>()> make;
    };
    const std::vector<Case> cases = {
        {"sampling sum", false,
         [] {
             return std::make_unique<core::MultiStageSamplingReducer>(
                 Op::kSum, 0.95);
         }},
        {"sampling average", false,
         [] {
             return std::make_unique<core::MultiStageSamplingReducer>(
                 Op::kAverage, 0.95);
         }},
        {"fold sum", true, [] { return std::make_unique<mr::SumReducer>(); }},
    };
    for (const Case& c : cases) {
        JournaledRun plain = runJournaled(c.make, c.precise);
        JournaledRun decorated = runJournaled(
            [&c] { return std::make_unique<Forwarding>(c.make()); },
            c.precise);
        // Reduce crashes restored state and epochs were journaled.
        EXPECT_GT(plain.result.counters.reduce_attempts_failed, 0u)
            << c.label;
        EXPECT_GT(plain.result.counters.reducer_checkpoints, 0u) << c.label;
        EXPECT_EQ(decorated.result.runtime, plain.result.runtime) << c.label;
        EXPECT_EQ(decorated.result.counters.serialize(),
                  plain.result.counters.serialize())
            << c.label;
        ASSERT_EQ(decorated.result.output.size(), plain.result.output.size())
            << c.label;
        for (size_t i = 0; i < plain.result.output.size(); ++i) {
            const mr::OutputRecord& a = decorated.result.output[i];
            const mr::OutputRecord& b = plain.result.output[i];
            EXPECT_EQ(a.key, b.key) << c.label;
            EXPECT_EQ(a.value, b.value) << c.label << " key " << b.key;
            EXPECT_EQ(a.lower, b.lower) << c.label << " key " << b.key;
            EXPECT_EQ(a.upper, b.upper) << c.label << " key " << b.key;
        }
        EXPECT_EQ(decorated.journal, plain.journal) << c.label;
    }
}

/**
 * The journal of `approxrun pagepop --reducers 2 --sampling 0.1
 * --drop 0.3 --failure-mode absorb --journal-interval 4 --fault-plan
 * corrupt=0.05,rcrash=0.05 --blocks 240 --items 400 --seed 7 --journal F`,
 * built in memory. Its XXH64 pins every byte: the reducer images, the
 * delta runs and the frames.
 */
TEST(JournalDeltaTest, JournalBytesArePinned)
{
    const apps::AggregationWorkload& w =
        *apps::findAggregationWorkload("pagepop");
    constexpr uint64_t kBlocks = 240;
    constexpr uint64_t kItems = 400;
    constexpr uint64_t kSeed = 7;
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.1;
    approx.drop_ratio = 0.3;
    mr::JobConfig config = w.job_config(kItems, 2);
    config.seed = kSeed;
    config.fault_plan = ft::FaultPlan::parse("corrupt=0.05,rcrash=0.05");
    config.failure_mode = ft::FailureMode::kAbsorb;
    config.journal_map_interval = 4;

    journal::RunSpec spec;
    spec.app = "pagepop";
    spec.blocks = kBlocks;
    spec.items = kItems;
    spec.seed = kSeed;
    spec.reducers = 2;
    spec.threads = 1;
    spec.cluster = "xeon10";
    spec.sampling = approx.sampling_ratio;
    spec.drop = approx.drop_ratio;
    spec.confidence = approx.confidence;
    spec.pilot_ratio = approx.pilot.sampling_ratio;
    spec.failure_mode = ft::toString(config.failure_mode);
    spec.max_attempts = config.recovery.max_attempts;
    spec.checkpoint_interval = config.reducer_checkpoint_interval;
    spec.heartbeat_ms = config.heartbeat_interval_ms;
    spec.timeout_ms = config.task_timeout_ms;
    spec.fault_plan = config.fault_plan.spec();
    spec.endgame_left_percent = config.endgame_left_percent;
    spec.map_interval = 4;
    std::unique_ptr<journal::JobJournal> jj =
        journal::JobJournal::createInMemory(spec);

    std::unique_ptr<hdfs::BlockDataset> data =
        w.make_dataset(kBlocks, kItems, kSeed);
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, kSeed);
    core::ApproxJobRunner runner(cluster, *data, nn);
    runner.setEpochSink(jj.get());
    mr::JobResult result =
        runner.runAggregation(config, approx, w.mapper_factory(), w.op);
    EXPECT_GT(result.counters.reducer_checkpoints, 0u);

    const std::string& bytes = jj->bytes();
    EXPECT_EQ(bytes.size(), 543402u);
    EXPECT_EQ(integrity::hash64(bytes.data(), bytes.size()),
              2177326152220917359ULL);
}

}  // namespace
}  // namespace approxhadoop
