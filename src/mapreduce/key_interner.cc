#include "mapreduce/key_interner.h"

#include <cassert>

namespace approxhadoop::mr {

namespace {

size_t
roundUpPow2(size_t v)
{
    size_t p = 4;
    while (p < v) {
        p <<= 1;
    }
    return p;
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
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint32_t
KeyInterner::intern(std::string_view key)
{
    uint64_t h = hash(key);
    size_t slot = static_cast<size_t>(h) & mask_;
    while (slots_[slot] != 0) {
        uint32_t id = slots_[slot] - 1;
        if (hashes_[id] == h && this->key(id) == key) {
            return id;
        }
        slot = (slot + 1) & mask_;
    }
    uint32_t id = keys_.add(key);
    hashes_.push_back(h);
    slots_[slot] = id + 1;
    // Grow at 70% load so probe chains stay short.
    if (10 * keys_.size() >= 7 * slots_.size()) {
        rehash(slots_.size() * 2);
    }
    return id;
}

void
KeyInterner::rehash(size_t new_slots)
{
    assert((new_slots & (new_slots - 1)) == 0);
    slots_.assign(new_slots, 0);
    mask_ = new_slots - 1;
    for (uint32_t id = 0; id < keys_.size(); ++id) {
        size_t slot = static_cast<size_t>(hashes_[id]) & mask_;
        while (slots_[slot] != 0) {
            slot = (slot + 1) & mask_;
        }
        slots_[slot] = id + 1;
    }
}

}  // namespace approxhadoop::mr
