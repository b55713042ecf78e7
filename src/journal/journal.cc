#include "journal/journal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "integrity/blob.h"
#include "integrity/checksum.h"

namespace approxhadoop::journal {

namespace {

/** File magic: 8 bytes, version-bearing. Version 3: precise reducers
 *  checkpoint per-key accumulators instead of every buffered record. */
constexpr char kMagic[8] = {'A', 'X', 'H', 'J', 'N', 'L', '3', '\n'};
/** Bytes of the magic before its version character. */
constexpr size_t kMagicStem = 6;

/** Seed for the per-frame XXH64 stamp (distinct from the shuffle-chunk
 *  stamp seed so a chunk blob can never masquerade as a frame). */
constexpr uint64_t kFrameSeed = 0x4A4E4C31u;

/** RunSpec blob version (first field of the header payload). */
constexpr uint64_t kSpecVersion = 1;

void
putRawU64(std::string& out, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
}

uint64_t
readRawU64(const std::string& bytes, size_t pos)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
    }
    return v;
}

uint64_t
stampOf(std::string_view payload)
{
    return integrity::hash64(payload.data(), payload.size(), kFrameSeed);
}

std::string
formatDiag(const char* field, double a, double b)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: %.17g vs %.17g", field, a, b);
    return buf;
}

/**
 * Writes @p image as a delta against @p base — [u64 keep][u64 runs]
 * {[u64 offset][string bytes]}* [string tail], meaning "the first keep
 * bytes of base, with these runs patched in, then tail" — and advances
 * @p base to @p image, rewriting only the bytes that differ. Runs are
 * maximal sequences of differing kImageBlock-byte blocks (the last
 * block of a blob may be shorter). A block the image has not written
 * since the version @p base was encoded from equals the base by
 * construction and is skipped; every other block is compared.
 */
void
putReducerDelta(integrity::BlobWriter& w, ReducerBlob& base,
                const ReducerImage& image)
{
    std::string_view blob = image.bytes;
    size_t keep = std::min(base.bytes.size(), blob.size());
    size_t blocks = imageBlocks(keep);
    std::vector<std::pair<size_t, size_t>> runs;  // (offset, length)
    for (size_t b = image.nextWritten(base.mark, 0, blocks); b < blocks;
         b = image.nextWritten(base.mark, b + 1, blocks)) {
        size_t at = b * kImageBlock;
        size_t len = std::min(kImageBlock, keep - at);
        if (std::memcmp(base.bytes.data() + at, blob.data() + at, len) ==
            0) {
            continue;
        }
        if (!runs.empty() && runs.back().first + runs.back().second == at) {
            runs.back().second += len;
        } else {
            runs.emplace_back(at, len);
        }
    }
    w.putU64(keep);
    w.putU64(runs.size());
    for (const auto& [offset, len] : runs) {
        w.putU64(offset);
        w.putString(blob.substr(offset, len));
        base.bytes.replace(offset, len, blob.substr(offset, len));
    }
    w.putString(blob.substr(keep));
    base.bytes.resize(keep);
    base.bytes.append(blob.substr(keep));
    base.mark = image.mark();
}

/** Inverse of putReducerDelta; @p base is null when the journal holds
 *  no earlier epoch for this reducer. */
std::string
getReducerDelta(integrity::BlobReader& r, const std::string* base)
{
    uint64_t keep = r.getU64();
    uint64_t runs = r.getU64();
    if (base == nullptr && (keep > 0 || runs > 0)) {
        throw JournalError(
            "journal: reducer state delta with no base epoch");
    }
    if (base != nullptr && keep > base->size()) {
        throw JournalError("journal: reducer state delta keeps " +
                           std::to_string(keep) + " bytes of a " +
                           std::to_string(base->size()) + "-byte base");
    }
    std::string blob = base != nullptr ? base->substr(0, keep) : "";
    for (uint64_t i = 0; i < runs; ++i) {
        uint64_t offset = r.getU64();
        std::string bytes = r.getString();
        if (offset > keep || bytes.size() > keep - offset) {
            throw JournalError(
                "journal: reducer state delta run at offset " +
                std::to_string(offset) + " length " +
                std::to_string(bytes.size()) + " passes the " +
                std::to_string(keep) + "-byte blob");
        }
        blob.replace(offset, bytes.size(), bytes);
    }
    blob += r.getString();
    return blob;
}

}  // namespace

std::string
RunSpec::serialize() const
{
    integrity::BlobWriter w;
    w.putU64(kSpecVersion);
    w.putString(app);
    w.putBool(precise);
    w.putU64(blocks);
    w.putU64(items);
    w.putU64(seed);
    w.putU64(reducers);
    w.putU64(threads);
    w.putString(cluster);
    w.putDouble(sampling);
    w.putDouble(drop);
    w.putBool(has_target);
    w.putDouble(target);
    w.putDouble(confidence);
    w.putU64(pilot_maps);
    w.putDouble(pilot_ratio);
    w.putBool(s3);
    w.putString(failure_mode);
    w.putU64(max_attempts);
    w.putU64(checkpoint_interval);
    w.putDouble(heartbeat_ms);
    w.putDouble(timeout_ms);
    w.putString(fault_plan);
    w.putDouble(endgame_left_percent);
    w.putU64(map_interval);
    return w.release();
}

RunSpec
RunSpec::deserialize(const std::string& blob)
{
    try {
        integrity::BlobReader r(blob);
        uint64_t version = r.getU64();
        if (version != kSpecVersion) {
            throw JournalError(
                "journal: unsupported header version " +
                std::to_string(version));
        }
        RunSpec spec;
        spec.app = r.getString();
        spec.precise = r.getBool();
        spec.blocks = r.getU64();
        spec.items = r.getU64();
        spec.seed = r.getU64();
        spec.reducers = static_cast<uint32_t>(r.getU64());
        spec.threads = static_cast<uint32_t>(r.getU64());
        spec.cluster = r.getString();
        spec.sampling = r.getDouble();
        spec.drop = r.getDouble();
        spec.has_target = r.getBool();
        spec.target = r.getDouble();
        spec.confidence = r.getDouble();
        spec.pilot_maps = r.getU64();
        spec.pilot_ratio = r.getDouble();
        spec.s3 = r.getBool();
        spec.failure_mode = r.getString();
        spec.max_attempts = static_cast<uint32_t>(r.getU64());
        spec.checkpoint_interval = r.getU64();
        spec.heartbeat_ms = r.getDouble();
        spec.timeout_ms = r.getDouble();
        spec.fault_plan = r.getString();
        spec.endgame_left_percent = r.getDouble();
        spec.map_interval = r.getU64();
        r.expectEnd();
        return spec;
    } catch (const JournalError&) {
        throw;
    } catch (const std::runtime_error& e) {
        throw JournalError(std::string("journal: malformed header: ") +
                           e.what());
    }
}


std::string
encodeEpoch(const Epoch& epoch, ReducerBase& base)
{
    std::string out;
    encodeEpoch(epoch, base, out);
    return out;
}

void
encodeEpoch(const Epoch& epoch, ReducerBase& base, std::string& out)
{
    integrity::BlobWriter w(out);
    w.putU64(epoch.index);
    w.putU64(epoch.kind);
    w.putU64(static_cast<uint64_t>(static_cast<int64_t>(epoch.wave)));
    w.putDouble(epoch.sim_time);
    w.putU64(epoch.maps_completed);
    w.putU64(epoch.maps_terminal);
    w.putString(epoch.counters_blob);
    w.putU64(epoch.delivered.size());
    for (const auto& [task, digest] : epoch.delivered) {
        w.putU64(task);
        w.putU64(digest);
    }
    w.putU64(epoch.rng_digest);
    w.putDouble(epoch.pending_sampling_ratio);
    w.putDouble(epoch.pending_approx_fraction);
    w.putString(epoch.controller_blob);
    // Resume markers carry no reducer state and are no base: the epoch
    // after a marker is a delta against the last epoch before it.
    ReducerBase none;
    ReducerBase& prev = epoch.kind == Epoch::kResumeMarker ? none : base;
    prev.resize(epoch.reducer_state.size());
    w.putU64(epoch.reducer_state.size());
    for (size_t i = 0; i < epoch.reducer_state.size(); ++i) {
        putReducerDelta(w, prev[i], epoch.reducer_state[i]);
    }
    w.putU64(epoch.reducer_records.size());
    for (uint64_t r : epoch.reducer_records) {
        w.putU64(r);
    }
}

Epoch
decodeEpoch(const std::string& blob, ReducerBase& base, BlobStore& store)
{
    try {
        integrity::BlobReader r(blob);
        Epoch e;
        e.index = r.getU64();
        e.kind = static_cast<uint32_t>(r.getU64());
        if (e.kind > Epoch::kResumeMarker) {
            throw JournalError("journal: unknown epoch kind " +
                               std::to_string(e.kind));
        }
        e.wave = static_cast<int32_t>(
            static_cast<int64_t>(r.getU64()));
        e.sim_time = r.getDouble();
        e.maps_completed = r.getU64();
        e.maps_terminal = r.getU64();
        e.counters_blob = r.getString();
        uint64_t delivered = r.getU64();
        for (uint64_t i = 0; i < delivered; ++i) {
            uint64_t task = r.getU64();
            uint64_t digest = r.getU64();
            e.delivered.emplace_back(task, digest);
        }
        e.rng_digest = r.getU64();
        e.pending_sampling_ratio = r.getDouble();
        e.pending_approx_fraction = r.getDouble();
        e.controller_blob = r.getString();
        bool marker = e.kind == Epoch::kResumeMarker;
        uint64_t states = r.getU64();
        for (uint64_t i = 0; i < states; ++i) {
            const std::string* prev =
                !marker && i < base.size() ? &base[i].bytes : nullptr;
            e.reducer_state.push_back(
                ReducerImage{store.emplace_back(getReducerDelta(r, prev))});
        }
        uint64_t records = r.getU64();
        for (uint64_t i = 0; i < records; ++i) {
            e.reducer_records.push_back(r.getU64());
        }
        r.expectEnd();
        if (!marker) {
            base.assign(e.reducer_state.size(), ReducerBlob{});
            for (size_t i = 0; i < base.size(); ++i) {
                base[i].bytes = e.reducer_state[i].bytes;
            }
        }
        return e;
    } catch (const JournalError&) {
        throw;
    } catch (const std::runtime_error& e) {
        throw JournalError(std::string("journal: malformed epoch: ") +
                           e.what());
    }
}

LoadedJournal
parseJournal(const std::string& bytes)
{
    if (bytes.size() < sizeof(kMagic) ||
        std::memcmp(bytes.data(), kMagic, kMagicStem) != 0) {
        throw JournalError("journal: bad magic (not a journal file)");
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        throw JournalError("journal: unsupported format version " +
                           bytes.substr(0, kMagicStem + 1) +
                           " (this build reads " +
                           std::string(kMagic, kMagicStem + 1) + ")");
    }

    LoadedJournal out;
    size_t pos = sizeof(kMagic);
    bool have_header = false;
    ReducerBase base;
    while (pos < bytes.size()) {
        // A frame needs [u64 len][payload][u64 stamp]; anything shorter
        // at the tail is the torn remains of an interrupted append.
        if (bytes.size() - pos < 8) {
            break;
        }
        uint64_t len = readRawU64(bytes, pos);
        if (len > bytes.size() || bytes.size() - pos - 8 < len + 8) {
            break;
        }
        std::string payload = bytes.substr(pos + 8, len);
        uint64_t stamp = readRawU64(bytes, pos + 8 + len);
        if (stamp != stampOf(payload)) {
            throw JournalError(
                "journal: frame checksum mismatch at byte offset " +
                std::to_string(pos) + " (corrupt journal)");
        }
        if (!have_header) {
            out.spec = RunSpec::deserialize(payload);
            have_header = true;
        } else {
            Epoch e = decodeEpoch(payload, base, out.reducer_blobs);
            if (e.kind == Epoch::kResumeMarker) {
                ++out.resume_markers;
            }
            out.epochs.push_back(std::move(e));
        }
        pos += 8 + len + 8;
        out.sealed_bytes = pos;
    }
    if (!have_header) {
        throw JournalError(
            "journal: missing or torn header (no sealed run spec)");
    }
    out.torn_tail = out.sealed_bytes != bytes.size();
    return out;
}

std::string
readJournalFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        throw JournalError("journal: cannot open '" + path + "'");
    }
    std::string bytes;
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        bytes.append(buf, n);
    }
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) {
        throw JournalError("journal: read error on '" + path + "'");
    }
    return bytes;
}

std::string
epochMismatch(const Epoch& sealed, const Epoch& observed)
{
    auto same_bytes = [](const ReducerImage& a, const ReducerImage& b) {
        return a.bytes == b.bytes;
    };
    std::string where =
        "epoch " + std::to_string(sealed.index) + ": ";
    if (sealed.index != observed.index) {
        return where + formatDiag("index",
                                  static_cast<double>(sealed.index),
                                  static_cast<double>(observed.index));
    }
    if (sealed.kind != observed.kind) {
        return where + formatDiag("kind", sealed.kind, observed.kind);
    }
    if (sealed.wave != observed.wave) {
        return where + formatDiag("wave", sealed.wave, observed.wave);
    }
    if (sealed.sim_time != observed.sim_time) {
        return where +
               formatDiag("sim_time", sealed.sim_time, observed.sim_time);
    }
    if (sealed.maps_completed != observed.maps_completed) {
        return where + formatDiag(
                           "maps_completed",
                           static_cast<double>(sealed.maps_completed),
                           static_cast<double>(observed.maps_completed));
    }
    if (sealed.maps_terminal != observed.maps_terminal) {
        return where + formatDiag(
                           "maps_terminal",
                           static_cast<double>(sealed.maps_terminal),
                           static_cast<double>(observed.maps_terminal));
    }
    if (sealed.counters_blob != observed.counters_blob) {
        return where + "counters snapshot differs";
    }
    if (sealed.delivered != observed.delivered) {
        size_t n = std::min(sealed.delivered.size(),
                            observed.delivered.size());
        for (size_t i = 0; i < n; ++i) {
            if (sealed.delivered[i] != observed.delivered[i]) {
                return where + "delivered chunk digest for task " +
                       std::to_string(sealed.delivered[i].first) +
                       " differs";
            }
        }
        return where + formatDiag(
                           "delivered count",
                           static_cast<double>(sealed.delivered.size()),
                           static_cast<double>(observed.delivered.size()));
    }
    if (sealed.rng_digest != observed.rng_digest) {
        return where + "driver RNG state digest differs";
    }
    if (sealed.pending_sampling_ratio != observed.pending_sampling_ratio) {
        return where + formatDiag("pending_sampling_ratio",
                                  sealed.pending_sampling_ratio,
                                  observed.pending_sampling_ratio);
    }
    if (sealed.pending_approx_fraction !=
        observed.pending_approx_fraction) {
        return where + formatDiag("pending_approx_fraction",
                                  sealed.pending_approx_fraction,
                                  observed.pending_approx_fraction);
    }
    if (sealed.controller_blob != observed.controller_blob) {
        return where + "controller replan state differs";
    }
    if (!std::equal(sealed.reducer_state.begin(),
                    sealed.reducer_state.end(),
                    observed.reducer_state.begin(),
                    observed.reducer_state.end(), same_bytes)) {
        return where + "reducer checkpoint state differs";
    }
    if (sealed.reducer_records != observed.reducer_records) {
        return where + "reducer record counts differ";
    }
    return "";
}

std::unique_ptr<JobJournal>
JobJournal::create(const std::string& path, const RunSpec& spec)
{
    std::unique_ptr<JobJournal> j(new JobJournal());
    j->spec_ = spec;
    j->image_.assign(kMagic, sizeof(kMagic));
    j->openFileTruncated(path);
    if (std::fwrite(kMagic, 1, sizeof(kMagic), j->file_) !=
            sizeof(kMagic) ||
        std::fflush(j->file_) != 0) {
        throw JournalError("journal: write error on '" + path + "'");
    }
    j->appendFrame(spec.serialize());
    return j;
}

std::unique_ptr<JobJournal>
JobJournal::createInMemory(const RunSpec& spec)
{
    std::unique_ptr<JobJournal> j(new JobJournal());
    j->spec_ = spec;
    j->image_.assign(kMagic, sizeof(kMagic));
    j->appendFrame(spec.serialize());
    return j;
}

void
JobJournal::adoptLoaded(LoadedJournal loaded, std::string bytes,
                        const std::string* path)
{
    spec_ = loaded.spec;
    loaded_ = std::move(loaded.epochs);
    loaded_blobs_ = std::move(loaded.reducer_blobs);
    resume_count_ = loaded.resume_markers + 1;
    Epoch marker;
    marker.kind = Epoch::kResumeMarker;
    marker.index = resume_count_;
    for (auto it = loaded_.rbegin(); it != loaded_.rend(); ++it) {
        if (it->kind != Epoch::kResumeMarker) {
            // Carry the last sealed clock so sim_time stays
            // non-decreasing across the whole epoch stream (obscheck
            // relies on this). Verified re-executed epochs equal the
            // sealed ones, so appends continue the delta chain from
            // the last sealed reducer blobs; no image version is known
            // for them, so the first append compares every block.
            marker.sim_time = it->sim_time;
            for (const ReducerImage& image : it->reducer_state) {
                base_.push_back(ReducerBlob{std::string(image.bytes), {}});
            }
            break;
        }
    }
    // Truncate any torn tail: the sealed prefix is the recovery point.
    image_ = bytes.substr(0, loaded.sealed_bytes);
    if (path != nullptr) {
        // Rewrite the sealed prefix rather than surgically truncating:
        // journals are small and this needs no platform-specific calls.
        openFileTruncated(*path);
        if (std::fwrite(image_.data(), 1, image_.size(), file_) !=
                image_.size() ||
            std::fflush(file_) != 0) {
            throw JournalError("journal: write error during resume");
        }
    }
    appendEpochFrame(marker);
}

std::unique_ptr<JobJournal>
JobJournal::resumeFile(const std::string& path)
{
    std::string bytes = readJournalFile(path);
    LoadedJournal loaded = parseJournal(bytes);
    std::unique_ptr<JobJournal> j(new JobJournal());
    j->adoptLoaded(std::move(loaded), std::move(bytes), &path);
    return j;
}

std::unique_ptr<JobJournal>
JobJournal::resumeBytes(std::string bytes)
{
    LoadedJournal loaded = parseJournal(bytes);
    std::unique_ptr<JobJournal> j(new JobJournal());
    j->adoptLoaded(std::move(loaded), std::move(bytes), nullptr);
    return j;
}

JobJournal::~JobJournal()
{
    if (file_ != nullptr) {
        std::fclose(file_);
    }
}

uint64_t
JobJournal::epochsToVerify() const
{
    uint64_t left = 0;
    for (size_t i = cursor_; i < loaded_.size(); ++i) {
        if (loaded_[i].kind != Epoch::kResumeMarker) {
            ++left;
        }
    }
    return left;
}

void
JobJournal::onEpoch(const Epoch& epoch)
{
    while (cursor_ < loaded_.size() &&
           loaded_[cursor_].kind == Epoch::kResumeMarker) {
        ++cursor_;
    }
    if (cursor_ < loaded_.size()) {
        std::string diff = epochMismatch(loaded_[cursor_], epoch);
        if (!diff.empty()) {
            throw JournalError(
                "journal: resume diverged from the sealed journal — "
                "the binary, dataset, or configuration changed since "
                "the crash (" +
                diff + ")");
        }
        ++cursor_;
        return;
    }
    appendEpochFrame(epoch);
}

void
JobJournal::openFileTruncated(const std::string& path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) {
        throw JournalError("journal: cannot write '" + path + "'");
    }
}

void
JobJournal::appendFrame(std::string_view payload)
{
    size_t start = beginFrame();
    image_ += payload;
    endFrame(start);
}

void
JobJournal::appendEpochFrame(const Epoch& epoch)
{
    size_t start = beginFrame();
    try {
        encodeEpoch(epoch, base_, image_);
    } catch (...) {
        image_.resize(start);
        throw;
    }
    endFrame(start);
}

size_t
JobJournal::beginFrame()
{
    size_t start = image_.size();
    putRawU64(image_, 0);
    return start;
}

void
JobJournal::endFrame(size_t start)
{
    size_t payload = start + 8;
    size_t len = image_.size() - payload;
    integrity::storeU64(image_.data() + start, len);
    putRawU64(image_,
              stampOf(std::string_view(image_.data() + payload, len)));
    if (file_ != nullptr) {
        // Flush frame-at-a-time: a SIGKILL leaves at worst one torn
        // frame at the tail, which parseJournal() discards. (Page-cache
        // durability is enough — we recover from process death, not
        // power loss.)
        size_t bytes = image_.size() - start;
        if (std::fwrite(image_.data() + start, 1, bytes, file_) != bytes ||
            std::fflush(file_) != 0) {
            image_.resize(start);
            throw JournalError("journal: write error");
        }
    }
}

}  // namespace approxhadoop::journal
