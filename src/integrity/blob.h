#ifndef APPROXHADOOP_INTEGRITY_BLOB_H_
#define APPROXHADOOP_INTEGRITY_BLOB_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace approxhadoop::integrity {

/** Writes @p v as BlobWriter::putU64 does, into the 8 bytes at @p out:
 *  for patching a field of an existing blob in place. */
inline void
storeU64(char* out, uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big) {
        v = __builtin_bswap64(v);
    }
    std::memcpy(out, &v, sizeof(v));
}

/** Bit-exact double counterpart of storeU64. */
inline void
storeDouble(char* out, double v)
{
    storeU64(out, std::bit_cast<uint64_t>(v));
}

/**
 * Minimal binary serializer for reducer checkpoints.
 *
 * Checkpoint blobs must restore reducer state *bit-identically* —
 * recovered runs are pinned to match fault-free runs exactly — so
 * doubles are encoded as raw IEEE-754 bit patterns, never via text
 * round-trips. All integers are fixed-width little-endian; strings are
 * length-prefixed. The format needs no schema evolution: a checkpoint
 * never outlives the job that wrote it.
 */
class BlobWriter
{
  public:
    /** Writes into a buffer of its own. */
    BlobWriter() : buf_(own_) {}
    /** Appends to @p out in place, e.g. a payload inside a larger image. */
    explicit BlobWriter(std::string& out) : buf_(out) {}
    BlobWriter(const BlobWriter&) = delete;
    BlobWriter& operator=(const BlobWriter&) = delete;

    void putU64(uint64_t v);
    /** Bit-exact double encoding. */
    void putDouble(double v);
    void putString(std::string_view s);
    void putBool(bool v) { putU64(v ? 1 : 0); }

    const std::string& str() const { return buf_; }
    std::string release() { return std::move(buf_); }

  private:
    std::string own_;
    std::string& buf_;
};

/**
 * Reader for BlobWriter output.
 *
 * @throws std::runtime_error on truncated or overlong input — a
 *         checkpoint that fails to parse is treated as corrupt.
 */
class BlobReader
{
  public:
    explicit BlobReader(const std::string& buf) : buf_(buf) {}
    /** The reader keeps a reference: binding a temporary would dangle. */
    explicit BlobReader(std::string&&) = delete;

    uint64_t getU64();
    double getDouble();
    std::string getString();
    bool getBool() { return getU64() != 0; }

    bool atEnd() const { return pos_ == buf_.size(); }
    /** Bytes consumed so far (the offset of the next field). */
    size_t position() const { return pos_; }

    /** @throws std::runtime_error unless the whole blob was consumed. */
    void expectEnd() const;

  private:
    void need(size_t bytes) const;

    const std::string& buf_;
    size_t pos_ = 0;
};

}  // namespace approxhadoop::integrity

#endif  // APPROXHADOOP_INTEGRITY_BLOB_H_
