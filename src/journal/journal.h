#ifndef APPROXHADOOP_JOURNAL_JOURNAL_H_
#define APPROXHADOOP_JOURNAL_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "journal/sink.h"

/**
 * @file
 * Crash-consistent, epoch-structured write-ahead journal for mr::Job.
 *
 * File layout (all integers little-endian):
 *
 *   [8-byte magic "AXHJNL3\n"]
 *   [header frame: RunSpec blob]
 *   [epoch frame]*
 *
 * where every frame is
 *
 *   [u64 payload_len][payload bytes][u64 xxh64(payload)]
 *
 * An epoch payload stores each reducer's checkpoint blob as a delta
 * against the same reducer's blob in the previous non-marker epoch:
 *
 *   [u64 keep][u64 runs]{[u64 offset][u64 len][bytes]}*[u64 len][tail]
 *
 * i.e. the first `keep` bytes of the previous blob, with the runs of
 * differing 64-byte blocks patched in, followed by the new tail. The
 * first epoch has no base (keep 0, no runs: the blob in full), resume
 * markers carry no reducer state, and a resumed journal continues the
 * chain from its last sealed epoch. parseJournal() rebuilds the full
 * blobs, so resume verification compares whole blobs byte for byte.
 * A versioned ReducerImage of the lineage the base was encoded from
 * lets the encoder skip the blocks not written since; every other
 * block is compared, so the runs are the same either way.
 *
 * Appends are flushed frame-at-a-time, so a killed driver leaves at
 * worst one partial frame at the tail. parseJournal() discards a torn
 * tail silently (the expected crash artifact) but treats a checksum
 * mismatch on a *complete* frame — or any malformed frame not at EOF —
 * as corruption and throws JournalError. Recovery therefore always
 * lands on the last sealed epoch, never on a half-written one.
 *
 * Resume is re-execution, not state surgery: the resumed driver
 * replays the job deterministically from the RunSpec and verifies each
 * re-reached consistency point against the sealed epochs
 * (JobJournal::onEpoch), then switches to append mode. See DESIGN.md
 * §11.
 */
namespace approxhadoop::journal {

/** Unreadable, corrupt, or divergent journal. approxrun maps this to
 *  exit 2 (bad usage/input), never a crash. */
class JournalError : public std::runtime_error
{
  public:
    explicit JournalError(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Everything needed to re-execute the journaled run bit-identically:
 * the workload, input shape, seeds, approximation settings, recovery
 * policy, and fault plan. `approxrun --resume F` reconstructs its whole
 * configuration from this header — no other flags are needed (or
 * allowed to disagree).
 */
struct RunSpec
{
    /** Aggregation-registry workload name. */
    std::string app;
    /** True for `--precise` runs (no approximation controller). */
    bool precise = false;
    uint64_t blocks = 0;
    uint64_t items = 0;
    uint64_t seed = 0;
    uint32_t reducers = 1;
    uint32_t threads = 1;
    std::string cluster;
    /** Input sampling ratio; meaningful when !has_target && !precise. */
    double sampling = 1.0;
    /** Map dropping ratio. */
    double drop = 0.0;
    bool has_target = false;
    double target = 0.0;
    /** Confidence level for the error bounds. */
    double confidence = 0.95;
    /** Pilot wave (0 maps = disabled). */
    uint64_t pilot_maps = 0;
    double pilot_ratio = 1.0;
    /** --s3: suspend drained servers (energy mode). */
    bool s3 = false;
    /** ft::toString(FailureMode). */
    std::string failure_mode;
    uint32_t max_attempts = 4;
    uint64_t checkpoint_interval = 8;
    double heartbeat_ms = 1000.0;
    double timeout_ms = 10000.0;
    /** ft::FaultPlan::spec() ("" when no faults). */
    std::string fault_plan;
    double endgame_left_percent = 25.0;
    /** Map-completion interval between kInterval epochs (0 = waves only). */
    uint64_t map_interval = 0;

    std::string serialize() const;
    /** @throws JournalError on malformed input */
    static RunSpec deserialize(const std::string& blob);
};

/**
 * One reducer's full blob in the last non-marker epoch of a journal:
 * the base its next epoch is delta-encoded against. `mark` names the
 * image the encoder read it from; it is empty after a decode or a
 * resume, so the next encode compares every block.
 */
struct ReducerBlob
{
    std::string bytes;
    ImageMark mark{};
};

/** One ReducerBlob per reducer. Empty before the first epoch, which is
 *  therefore written in full. */
using ReducerBase = std::vector<ReducerBlob>;

/** Owns decoded reducer blobs; adding one never moves the others, so
 *  the epochs' views into it stay valid. */
using BlobStore = std::deque<std::string>;

/**
 * Epoch <-> blob codec (BlobWriter framing). Both sides advance @p base
 * past a non-marker epoch, so a stream of epochs must be encoded and
 * decoded in order, each side with its own base. decodeEpoch rebuilds
 * full reducer blobs into @p store, which the returned epoch's views
 * point into, and throws JournalError on malformed input, including a
 * delta that its base cannot satisfy.
 */
std::string encodeEpoch(const Epoch& epoch, ReducerBase& base);
/** encodeEpoch appending the blob to @p out in place. */
void encodeEpoch(const Epoch& epoch, ReducerBase& base, std::string& out);
Epoch decodeEpoch(const std::string& blob, ReducerBase& base,
                  BlobStore& store);

/** Result of parsing a journal image. Move-only: its epochs point into
 *  its blob store. */
struct LoadedJournal
{
    LoadedJournal() = default;
    LoadedJournal(LoadedJournal&&) = default;
    LoadedJournal& operator=(LoadedJournal&&) = default;

    RunSpec spec;
    /** Sealed epochs in file order, resume markers included. */
    std::vector<Epoch> epochs;
    /** The full reducer blobs the epochs view. */
    BlobStore reducer_blobs;
    /** Byte length of the sealed prefix (magic + header + epochs). */
    uint64_t sealed_bytes = 0;
    /** True when a partial trailing frame was discarded. */
    bool torn_tail = false;
    /** Resume markers seen (crashes already survived). */
    uint32_t resume_markers = 0;
};

/**
 * Parses journal bytes up to the last sealed frame.
 * @throws JournalError on bad magic, a checksum mismatch on a complete
 *         frame, an undecodable payload, or an absent/torn header.
 */
LoadedJournal parseJournal(const std::string& bytes);

/** Reads a whole file. @throws JournalError when unreadable. */
std::string readJournalFile(const std::string& path);

/**
 * The EpochSink mr::Job records through. Two modes:
 *
 *  - record (create/createInMemory): fresh journal; every epoch is
 *    appended and flushed.
 *  - resume (resumeFile/resumeBytes): the sealed prefix is loaded, any
 *    torn tail truncated, and a resume marker appended. Epochs from the
 *    re-executing job are then *verified* against the sealed prefix —
 *    any field mismatch throws JournalError with a named-field
 *    diagnostic — and once the prefix is exhausted the journal switches
 *    to append mode.
 *
 * File-backed journals also mirror every byte in memory (bytes()), so
 * the chaos oracle can run the whole kill/resume/truncate cycle without
 * touching disk via the InMemory variants.
 */
class JobJournal : public EpochSink
{
  public:
    static std::unique_ptr<JobJournal> create(const std::string& path,
                                              const RunSpec& spec);
    static std::unique_ptr<JobJournal> createInMemory(const RunSpec& spec);
    /** @throws JournalError on unreadable/corrupt/headerless input */
    static std::unique_ptr<JobJournal> resumeFile(const std::string& path);
    static std::unique_ptr<JobJournal> resumeBytes(std::string bytes);

    ~JobJournal() override;

    JobJournal(const JobJournal&) = delete;
    JobJournal& operator=(const JobJournal&) = delete;

    const RunSpec& spec() const { return spec_; }

    /** Crashes survived so far == dcrash events to skip on re-execution
     *  (JobConfig::driver_crash_skip). 0 in record mode. */
    uint32_t resumeCount() const { return resume_count_; }

    /** Sealed epochs still unverified (resume progress, for logging). */
    uint64_t epochsToVerify() const;

    /** Full journal image (identical to the file contents). */
    const std::string& bytes() const { return image_; }

    void onEpoch(const Epoch& epoch) override;

  private:
    JobJournal() = default;

    void adoptLoaded(LoadedJournal loaded, std::string bytes,
                     const std::string* path);
    /** Appends a frame holding @p payload. */
    void appendFrame(std::string_view payload);
    /** Appends a frame holding @p epoch, encoded in place. */
    void appendEpochFrame(const Epoch& epoch);
    /** Starts a frame at the end of image_ (a length placeholder) and
     *  returns its offset; the payload follows it. */
    size_t beginFrame();
    /** Patches the length of the frame begun at @p start, stamps its
     *  payload and writes the frame to the file, if any. On a write
     *  error the image is rolled back to @p start. */
    void endFrame(size_t start);
    void openFileTruncated(const std::string& path);

    RunSpec spec_;
    /** Sealed epochs awaiting verification (resume mode), and the
     *  blobs they view. */
    std::vector<Epoch> loaded_;
    BlobStore loaded_blobs_;
    size_t cursor_ = 0;
    /** Delta base for the next appended epoch. */
    ReducerBase base_;
    uint32_t resume_count_ = 0;
    std::string image_;
    std::FILE* file_ = nullptr;
};

/** Returns "" when the epochs match, else a named-field diagnostic
 *  ("epoch 7: sim_time: 12.5 vs 12.75"). Exposed for tests/obscheck. */
std::string epochMismatch(const Epoch& sealed, const Epoch& observed);

}  // namespace approxhadoop::journal

#endif  // APPROXHADOOP_JOURNAL_JOURNAL_H_
