#include "integrity/checksum.h"

#include <bit>
#include <cstring>

namespace approxhadoop::integrity {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t
rotl(uint64_t v, int bits)
{
    return (v << bits) | (v >> (64 - bits));
}

/** Little-endian loads so digests match across byte orders. */
inline uint64_t
readLE64(const unsigned char* p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big) {
        v = __builtin_bswap64(v);
    }
    return v;
}

inline uint32_t
readLE32(const unsigned char* p)
{
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t
round1(uint64_t acc, uint64_t input)
{
    acc += input * kPrime2;
    acc = rotl(acc, 31);
    acc *= kPrime1;
    return acc;
}

inline uint64_t
mergeRound(uint64_t acc, uint64_t val)
{
    acc ^= round1(0, val);
    acc = acc * kPrime1 + kPrime4;
    return acc;
}

}  // namespace

Hasher64::Hasher64(uint64_t seed)
    : v1_(seed + kPrime1 + kPrime2),
      v2_(seed + kPrime2),
      v3_(seed),
      v4_(seed - kPrime1),
      seed_(seed)
{
}

void
Hasher64::update(const void* data, size_t len)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    total_len_ += len;

    if (buf_len_ + len < 32) {
        std::memcpy(buf_ + buf_len_, p, len);
        buf_len_ += len;
        return;
    }

    if (buf_len_ > 0) {
        size_t fill = 32 - buf_len_;
        std::memcpy(buf_ + buf_len_, p, fill);
        v1_ = round1(v1_, readLE64(buf_));
        v2_ = round1(v2_, readLE64(buf_ + 8));
        v3_ = round1(v3_, readLE64(buf_ + 16));
        v4_ = round1(v4_, readLE64(buf_ + 24));
        p += fill;
        len -= fill;
        buf_len_ = 0;
    }

    while (len >= 32) {
        v1_ = round1(v1_, readLE64(p));
        v2_ = round1(v2_, readLE64(p + 8));
        v3_ = round1(v3_, readLE64(p + 16));
        v4_ = round1(v4_, readLE64(p + 24));
        p += 32;
        len -= 32;
    }

    if (len > 0) {
        std::memcpy(buf_, p, len);
        buf_len_ = len;
    }
}

void
Hasher64::update(uint64_t v)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    update(bytes, sizeof(bytes));
}

void
Hasher64::update(double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    update(bits);
}

void
Hasher64::update(const std::string& s)
{
    update(std::string_view(s));
}

void
Hasher64::update(std::string_view s)
{
    update(static_cast<uint64_t>(s.size()));
    update(s.data(), s.size());
}

uint64_t
Hasher64::digest() const
{
    uint64_t h;
    if (total_len_ >= 32) {
        h = rotl(v1_, 1) + rotl(v2_, 7) + rotl(v3_, 12) + rotl(v4_, 18);
        h = mergeRound(h, v1_);
        h = mergeRound(h, v2_);
        h = mergeRound(h, v3_);
        h = mergeRound(h, v4_);
    } else {
        h = seed_ + kPrime5;
    }
    h += total_len_;

    const unsigned char* p = buf_;
    size_t len = buf_len_;
    while (len >= 8) {
        h ^= round1(0, readLE64(p));
        h = rotl(h, 27) * kPrime1 + kPrime4;
        p += 8;
        len -= 8;
    }
    if (len >= 4) {
        h ^= static_cast<uint64_t>(readLE32(p)) * kPrime1;
        h = rotl(h, 23) * kPrime2 + kPrime3;
        p += 4;
        len -= 4;
    }
    while (len > 0) {
        h ^= *p * kPrime5;
        h = rotl(h, 11) * kPrime1;
        ++p;
        --len;
    }

    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

uint64_t
hash64(const void* data, size_t len, uint64_t seed)
{
    Hasher64 h(seed);
    h.update(data, len);
    return h.digest();
}

}  // namespace approxhadoop::integrity
