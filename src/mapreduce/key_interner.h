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
 * for the table's lifetime; the interned key strings are owned by the
 * table.
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

    /** The interned key for @p id (valid for the table's lifetime). */
    const std::string& key(uint32_t id) const { return keys_[id]; }

    /** Number of distinct keys interned. */
    size_t size() const { return keys_.size(); }

    /** Probe-table slots (exposed so tests can observe rehashing). */
    size_t slotCount() const { return slots_.size(); }

    /** FNV-1a over the key bytes; identical to HashPartitioner::fnv1a. */
    static uint64_t hash(std::string_view key);

  private:
    void rehash(size_t new_slots);

    /** Interned keys, indexed by id. */
    std::vector<std::string> keys_;
    /** Cached hash per id (avoids re-hashing keys on rehash/compare). */
    std::vector<uint64_t> hashes_;
    /** Open-addressing probe table holding id + 1; 0 marks an empty slot. */
    std::vector<uint32_t> slots_;
    size_t mask_ = 0;
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_KEY_INTERNER_H_
