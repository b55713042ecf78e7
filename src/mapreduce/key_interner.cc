#include "mapreduce/key_interner.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace approxhadoop::mr {

namespace {

/** Odd 64-bit multipliers with evenly mixed bits (wyhash's). */
constexpr uint64_t kMulA = 0xa0761d6478bd642fULL;
constexpr uint64_t kMulB = 0xe7037ed1a0b428dbULL;
/** The bits of a probe slot that hold its key's hash tag. */
constexpr uint64_t kTagMask = ~uint64_t{0xffffffff};

size_t
roundUpPow2(size_t v)
{
    size_t p = 4;
    while (p < v) {
        p <<= 1;
    }
    return p;
}

uint64_t
load64(const char* p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

uint64_t
load32(const char* p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** The 128-bit product of @p a and @p b, its halves xor-ed together. */
uint64_t
fold(uint64_t a, uint64_t b)
{
    unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
    return static_cast<uint64_t>(r) ^ static_cast<uint64_t>(r >> 64);
}

/**
 * Byte equality of two keys. Keys of 8–16 bytes, the common intermediate
 * key size, compare as two overlapping words instead of a memcmp call;
 * both loads stay inside each key's own bytes.
 */
bool
sameKey(std::string_view a, std::string_view b)
{
    size_t n = a.size();
    if (n != b.size()) {
        return false;
    }
    if (n >= 8 && n <= 16) {
        return load64(a.data()) == load64(b.data()) &&
               load64(a.data() + n - 8) == load64(b.data() + n - 8);
    }
    return a == b;
}

/** KeyInterner::hash, defined here so intern() inlines it. */
inline uint64_t
probeHash(std::string_view key)
{
    // Every load lies inside the key: short keys take overlapping loads
    // from both ends, long ones 16 bytes per step and then their last 16.
    const char* p = key.data();
    size_t n = key.size();
    uint64_t a = 0;
    uint64_t b = 0;
    if (n < 4) {
        if (n > 0) {
            auto byte = [p](size_t i) {
                return static_cast<uint64_t>(static_cast<unsigned char>(p[i]));
            };
            a = byte(0) << 16 | byte(n / 2) << 8 | byte(n - 1);
        }
    } else if (n < 8) {
        a = load32(p);
        b = load32(p + n - 4);
    } else if (n <= 16) {
        a = load64(p);
        b = load64(p + n - 8);
    } else {
        uint64_t state = kMulA;
        size_t left = n;
        while (left > 16) {
            state = fold(load64(p) ^ kMulB, load64(p + 8) ^ state);
            p += 16;
            left -= 16;
        }
        a = load64(p + left - 16);
        b = load64(p + left - 8) ^ state;
    }
    // The length is folded in so keys that load the same words (a
    // repeated byte, a prefix of it) still hash apart.
    return fold(a ^ kMulB, b ^ kMulA ^ n);
}

}  // namespace

KeyInterner::KeyInterner(size_t initial_slots)
    : slots_(roundUpPow2(initial_slots), 0)
{
    mask_ = slots_.size() - 1;
}

uint64_t
KeyInterner::hash(std::string_view key)
{
    return probeHash(key);
}

uint32_t
KeyInterner::intern(std::string_view key)
{
    uint64_t h = probeHash(key);
    uint64_t tag = h & kTagMask;
    size_t slot = static_cast<size_t>(h) & mask_;
    for (uint64_t s = slots_[slot]; s != 0; s = slots_[slot]) {
        if ((s & kTagMask) == tag) {
            uint32_t id = static_cast<uint32_t>(s) - 1;
            if (sameKey(this->key(id), key)) {
                return id;
            }
        }
        slot = (slot + 1) & mask_;
    }
    uint32_t id = keys_.add(key);
    slots_[slot] = tag | (uint64_t{id} + 1);
    // Grow at 70% load so probe chains stay short.
    if (10 * keys_.size() >= 7 * slots_.size()) {
        rehash(slots_.size() * 2);
    }
    return id;
}

void
KeyInterner::reserve(size_t keys)
{
    size_t want = roundUpPow2(2 * std::min(keys, kMaxReservedSlots / 2));
    if (want > slots_.size()) {
        rehash(want);
    }
}

void
KeyInterner::rehash(size_t new_slots)
{
    assert((new_slots & (new_slots - 1)) == 0);
    slots_.assign(new_slots, 0);
    mask_ = new_slots - 1;
    for (uint32_t id = 0; id < keys_.size(); ++id) {
        uint64_t h = probeHash(keys_.key(id));
        size_t slot = static_cast<size_t>(h) & mask_;
        while (slots_[slot] != 0) {
            slot = (slot + 1) & mask_;
        }
        slots_[slot] = (h & kTagMask) | (uint64_t{id} + 1);
    }
}

const std::vector<uint32_t>&
KeyIndex::bind(const KeyTable& chunk)
{
    chunk_ids_.resize(chunk.size());
    for (uint32_t k = 0; k < chunk.size(); ++k) {
        chunk_ids_[k] = keys_.intern(chunk.key(k));
    }
    return chunk_ids_;
}

void
KeyIndex::add(std::string_view key)
{
    size_t before = keys_.size();
    if (keys_.intern(key) != before) {
        throw std::runtime_error("reducer checkpoint: duplicate key");
    }
}

const std::vector<uint32_t>&
KeyIndex::sorted() const
{
    size_t done = sorted_.size();
    if (done < keys_.size()) {
        for (size_t id = done; id < keys_.size(); ++id) {
            sorted_.push_back(static_cast<uint32_t>(id));
        }
        auto by_key = [this](uint32_t a, uint32_t b) {
            return keys_.key(a) < keys_.key(b);
        };
        auto mid = sorted_.begin() + static_cast<ptrdiff_t>(done);
        std::sort(mid, sorted_.end(), by_key);
        std::inplace_merge(sorted_.begin(), mid, sorted_.end(), by_key);
    }
    return sorted_;
}

uint32_t
KeyIndex::find(std::string_view key) const
{
    const std::vector<uint32_t>& order = sorted();
    auto it = std::lower_bound(
        order.begin(), order.end(), key,
        [this](uint32_t id, std::string_view k) { return keys_.key(id) < k; });
    return it != order.end() && keys_.key(*it) == key
               ? *it
               : static_cast<uint32_t>(keys_.size());
}

}  // namespace approxhadoop::mr
