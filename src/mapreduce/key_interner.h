#ifndef APPROXHADOOP_MAPREDUCE_KEY_INTERNER_H_
#define APPROXHADOOP_MAPREDUCE_KEY_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace approxhadoop::mr {

/**
 * Intermediate-key interning table.
 *
 * Maps each distinct key string to a dense id (0, 1, 2, ... in first-seen
 * order) through an open-addressing hash table, so hot per-record paths
 * — map-side grouping for the combiner, partition lookup, the precise
 * reducers' per-key accumulators — work on integer ids instead of
 * re-hashing and re-comparing std::strings per record. Ids are stable
 * for the table's lifetime. The table stores each key's bytes once,
 * back to back in one arena string, so a key costs its length plus an
 * end offset and a cached hash rather than a std::string object and,
 * past the small-string size, its own heap block.
 *
 * Uses the same FNV-1a hash as HashPartitioner so behavior is platform-
 * stable, with linear probing and growth at 70% load. Not thread-safe;
 * each map task's output stage and each FoldReducer owns its own.
 */
class KeyInterner
{
  public:
    /** @param initial_slots power-of-two probe-table size (tests shrink
     *         it to force collisions/rehashing early). */
    explicit KeyInterner(size_t initial_slots = 64);

    /** Returns the id of @p key, inserting it on first sight. */
    uint32_t intern(std::string_view key);

    /**
     * The interned key for @p id. The view points into the arena, so it
     * stays valid only until the next intern() (which may grow it).
     */
    std::string_view
    key(uint32_t id) const
    {
        uint64_t begin = id == 0 ? 0 : ends_[id - 1];
        return std::string_view(arena_.data() + begin, ends_[id] - begin);
    }

    /** Number of distinct keys interned. */
    size_t size() const { return ends_.size(); }

    /** Probe-table slots (exposed so tests can observe rehashing). */
    size_t slotCount() const { return slots_.size(); }

    /** FNV-1a over the key bytes; identical to HashPartitioner::fnv1a. */
    static uint64_t hash(std::string_view key);

  private:
    void rehash(size_t new_slots);

    /** Every interned key's bytes, concatenated in id order. */
    std::string arena_;
    /** End offset of each id's key in arena_; key id starts where id - 1
     *  ends (id 0 at 0). */
    std::vector<uint64_t> ends_;
    /** Cached hash per id (avoids re-hashing keys on rehash/compare). */
    std::vector<uint64_t> hashes_;
    /** Open-addressing probe table holding id + 1; 0 marks an empty slot. */
    std::vector<uint32_t> slots_;
    size_t mask_ = 0;
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_KEY_INTERNER_H_
