#ifndef APPROXHADOOP_JOURNAL_SINK_H_
#define APPROXHADOOP_JOURNAL_SINK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/**
 * @file
 * The journal hook surface mr::Job sees. Header-only on purpose: the
 * mapreduce layer observes its own state into Epoch records and hands
 * them to an abstract EpochSink without linking against the journal
 * codec (src/journal/journal.h), which keeps the dependency graph
 * acyclic — approx_journal links integrity, mapreduce links neither.
 */
namespace approxhadoop::journal {

/** Bytes per block of a reducer image: the unit of its write versions
 *  and of the journal's reducer-state deltas. */
inline constexpr size_t kImageBlock = 64;

/** Blocks covering @p bytes bytes (the last may be short). */
inline constexpr size_t
imageBlocks(size_t bytes)
{
    return (bytes + kImageBlock - 1) / kImageBlock;
}

/** The image a consumer last read: lineage 0 means none, so every
 *  block must be compared or copied. */
struct ImageMark
{
    uint64_t lineage = 0;
    uint32_t version = 0;
};

/**
 * A reducer's checkpoint blob, read in place (mr::Reducer::snapshot).
 * A versioned image also says which kImageBlock-byte blocks were
 * written since a given version, so a consumer that keeps a copy of an
 * earlier version of the same lineage touches only those blocks.
 * Versions grow with every refresh of the image within a lineage. A
 * lineage is never reused, and a reducer takes a new one whenever its
 * image stops following from the previous version (restore()).
 */
struct ReducerImage
{
    std::string_view bytes;
    /** Version of the last write to each block of bytes (the last block
     *  may be short); null when any block may differ from any earlier
     *  image. */
    const uint32_t* block_versions = nullptr;
    uint64_t lineage = 0;
    /** The newest version stamped on any block. */
    uint32_t version = 0;

    /** The mark a consumer holding these bytes keeps. */
    ImageMark
    mark() const
    {
        return block_versions != nullptr ? ImageMark{lineage, version}
                                         : ImageMark{};
    }

    /**
     * The first block in [@p b, @p end) that may differ from the image
     * @p seen read, or @p end when none does. Every block may when the
     * image is unversioned or of another lineage; otherwise only those
     * written since.
     */
    size_t
    nextWritten(const ImageMark& seen, size_t b, size_t end) const
    {
        if (block_versions != nullptr && seen.lineage == lineage) {
            while (b < end && block_versions[b] <= seen.version) {
                ++b;
            }
        }
        return b;
    }

    /**
     * Makes @p copy equal bytes, given that it held the image @p mark
     * names, rewriting only the blocks that may differ (nextWritten);
     * then advances @p mark. @p copy may be the buffer bytes points
     * into.
     */
    void
    copyInto(std::string& copy, ImageMark& mark) const
    {
        if (block_versions == nullptr) {
            if (bytes.data() != copy.data()) {
                copy.assign(bytes);
            }
        } else {
            copy.resize(bytes.size());
            size_t n = imageBlocks(bytes.size());
            for (size_t b = nextWritten(mark, 0, n); b < n;
                 b = nextWritten(mark, b + 1, n)) {
                size_t at = b * kImageBlock;
                std::memcpy(copy.data() + at, bytes.data() + at,
                            std::min(kImageBlock, bytes.size() - at));
            }
        }
        mark = this->mark();
    }
};

/**
 * One sealed checkpoint of a running job, captured at a consistency
 * point (wave boundary, map-completion interval, or job completion).
 * Every field is a pure observation of driver state — capturing an
 * epoch never perturbs the run, so journal-on and journal-off runs are
 * bit-identical.
 *
 * Epochs are the crash-consistency proof for resume-by-re-execution:
 * a resumed driver replays the job from the journal header's RunSpec
 * and *verifies* each re-reached consistency point against the sealed
 * epoch recorded by the crashed run. Any divergence means the journal
 * and the binary/config disagree, and resume aborts with a diagnostic
 * instead of silently producing a different answer.
 */
struct Epoch
{
    /** kind codes */
    static constexpr uint32_t kWave = 0;
    static constexpr uint32_t kInterval = 1;
    static constexpr uint32_t kFinal = 2;
    /** Appended by each resume attempt before re-execution; its count
     *  is the number of driver crashes already survived (the dcrash
     *  skip cursor). */
    static constexpr uint32_t kResumeMarker = 3;

    /** Position in the journal's epoch stream (markers included). */
    uint64_t index = 0;
    uint32_t kind = kWave;
    /** Wave number for kWave epochs; -1 otherwise. */
    int32_t wave = -1;
    /** Simulated clock at capture. */
    double sim_time = 0.0;
    uint64_t maps_completed = 0;
    /** Terminal tasks (completed + killed + dropped + absorbed). */
    uint64_t maps_terminal = 0;
    /** mr::Counters::serialize() snapshot. */
    std::string counters_blob;
    /** (task_id, chunk-checksum digest) for map outputs delivered to
     *  reducers since the previous epoch. */
    std::vector<std::pair<uint64_t, uint64_t>> delivered;
    /** Digest of the driver's shared RNG engine state. */
    uint64_t rng_digest = 0;
    /** Controller-pending plan state for not-yet-started maps. */
    double pending_sampling_ratio = 1.0;
    double pending_approx_fraction = 0.0;
    /** JobController::journalState() blob (replan state). */
    std::string controller_blob;
    /**
     * Reducer::snapshot() image per reducer ("" when unsupported). The
     * bytes are borrowed: a captured epoch's views point into its
     * reducers and are valid only during EpochSink::onEpoch; a decoded
     * epoch's point into the blob store its decoder filled
     * (LoadedJournal).
     */
    std::vector<ReducerImage> reducer_state;
    /** Records shuffled into each reducer so far. */
    std::vector<uint64_t> reducer_records;
};

/** Receiver for job epochs (journal::JobJournal, or a test double). */
class EpochSink
{
  public:
    virtual ~EpochSink() = default;

    /**
     * Called by mr::Job at each consistency point. May throw (e.g. a
     * resume-divergence JournalError); the exception aborts the run.
     */
    virtual void onEpoch(const Epoch& epoch) = 0;
};

/**
 * Thrown by a `dcrash=T` fault event to terminate the driver mid-run.
 * Propagates out of mr::Job::run() past every catch for the contractual
 * JobFailedError: a driver kill is not a job failure, it is the host
 * process dying, and only a restart loop holding the journal (approxrun,
 * the chaos oracle) may catch it.
 */
class DriverKilledError : public std::runtime_error
{
  public:
    explicit DriverKilledError(double at)
        : std::runtime_error("driver killed (dcrash fault) at t=" +
                             std::to_string(at)),
          at_(at)
    {
    }

    double at() const { return at_; }

  private:
    double at_;
};

}  // namespace approxhadoop::journal

#endif  // APPROXHADOOP_JOURNAL_SINK_H_
