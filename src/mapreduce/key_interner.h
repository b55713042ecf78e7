#ifndef APPROXHADOOP_MAPREDUCE_KEY_INTERNER_H_
#define APPROXHADOOP_MAPREDUCE_KEY_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace approxhadoop::mr {

/**
 * Keys by dense id: every key's bytes stored once, back to back in one
 * arena string, with an end offset per id. A key costs its length plus
 * one offset rather than a std::string object and, past the small-string
 * size, its own heap block. The table never looks a key up; KeyInterner
 * adds the hash index that dedupes keys as they are added.
 */
class KeyTable
{
  public:
    /** Appends @p key under the next id (no dedupe) and returns the id. */
    uint32_t
    add(std::string_view key)
    {
        arena_.append(key);
        ends_.push_back(arena_.size());
        return static_cast<uint32_t>(ends_.size() - 1);
    }

    /**
     * The key for @p id. The view points into the arena, so it stays
     * valid only until the next add() (which may grow it).
     */
    std::string_view
    key(uint32_t id) const
    {
        uint64_t begin = id == 0 ? 0 : ends_[id - 1];
        return std::string_view(arena_.data() + begin, ends_[id] - begin);
    }

    /** Number of keys. */
    size_t size() const { return ends_.size(); }

    /** Makes room for @p keys more keys of @p bytes bytes in total. */
    void
    reserve(size_t keys, size_t bytes)
    {
        ends_.reserve(ends_.size() + keys);
        arena_.reserve(arena_.size() + bytes);
    }

  private:
    /** Every key's bytes, concatenated in id order. */
    std::string arena_;
    /** End offset of each id's key in arena_; key id starts where id - 1
     *  ends (id 0 at 0). */
    std::vector<uint64_t> ends_;
};

/**
 * Intermediate-key interning table.
 *
 * Maps each distinct key string to a dense id (0, 1, 2, ... in first-seen
 * order) through an open-addressing hash table over a KeyTable, so hot
 * per-record paths — a map task's output, map-side grouping for the
 * combiner, the reducers' per-key state — work on integer ids instead
 * of re-hashing and re-comparing std::strings per record. Ids are stable
 * for the table's lifetime.
 *
 * Ids never depend on the hash or the table size: they only place
 * probes, so the id order, and everything built on it, is the same on
 * every platform and however the table was sized. Linear probing,
 * growth at 70% load. Not thread-safe; each map task's output
 * and each reducer owns its own.
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
    std::string_view key(uint32_t id) const { return keys_.key(id); }

    /** Number of distinct keys interned. */
    size_t size() const { return keys_.size(); }

    /**
     * Grows the probe table so that @p keys keys fill at most half of
     * it, capped at kMaxReservedSlots so a large batch never zeroes a
     * large table; interning past that grows the table as usual. Never
     * shrinks it. A table sized from its input probes at a low load
     * from the first key instead of filling up and rehashing on the way.
     */
    void reserve(size_t keys);

    /** reserve()'s cap: 4096 slots, 32 KB. */
    static constexpr size_t kMaxReservedSlots = 4096;

    /** Moves the keys out of an interner that is done. */
    KeyTable release() && { return std::move(keys_); }

    /** Probe-table slots (exposed so tests can observe rehashing). */
    size_t slotCount() const { return slots_.size(); }

    /**
     * Probe hash, exposed so tests can build colliding keys: reads the
     * key a word at a time and folds it with one 128-bit multiply. Its
     * low bits pick the first probe slot and its upper 32 bits are the
     * slot tag. Host-endian, so its values differ across platforms;
     * only probe placement depends on it.
     */
    static uint64_t hash(std::string_view key);

  private:
    void rehash(size_t new_slots);

    KeyTable keys_;
    /**
     * Open-addressing probe table. A slot holds the upper 32 bits of its
     * key's hash above id + 1, so most mismatches are rejected without
     * reading the key; 0 marks an empty slot.
     */
    std::vector<uint64_t> slots_;
    size_t mask_ = 0;
};

/**
 * The keys of a per-key store, apart from its values: a KeyInterner,
 * the ids sorted by key, and the chunk binding. KeyedState adds one T
 * per id; the key work is here once, not once per T. Not thread-safe,
 * not even its const calls: sorted() and find() extend the sorted list.
 */
class KeyIndex
{
  public:
    /**
     * Interns each of @p chunk's keys once, in id order (the order of
     * each key's first row). Returns our id for each chunk key id, valid
     * until the next bind(); a key never seen gets the next id.
     */
    const std::vector<uint32_t>& bind(const KeyTable& chunk);

    /** Adds @p key under the next id (restore side); throws
     *  std::runtime_error if the key is already there. */
    void add(std::string_view key);

    /**
     * Every id, sorted by key bytes (std::string ordering). Ids added
     * since the previous call are sorted and merged in, so a walk per
     * consumed chunk costs the new keys' sort plus one merge.
     */
    const std::vector<uint32_t>& sorted() const;

    /** The id of @p key, or size() when the key was never seen. */
    uint32_t find(std::string_view key) const;

    /** The key of @p id; the view lasts until the next bind() or add(). */
    std::string_view key(uint32_t id) const { return keys_.key(id); }

    /** Number of keys. */
    size_t size() const { return keys_.size(); }

  private:
    KeyInterner keys_;
    /** The ids sorted by key, as of the last sorted(). */
    mutable std::vector<uint32_t> sorted_;
    /** bind()'s result, reused across chunks. */
    std::vector<uint32_t> chunk_ids_;
};

/**
 * The per-key store every reducer keeps its state in: a KeyIndex and one
 * T per key id, ids in first-seen order.
 *
 * consume() binds a chunk's key table once, then folds each row into
 * the state of the id its chunk key maps to. Readers that must not
 * depend on arrival order (output, estimates, tie-breaks) walk sorted().
 * A restore fills a fresh store through add(), which rejects a repeated
 * key, and swaps it in.
 */
template <typename T>
class KeyedState : public KeyIndex
{
  public:
    /** KeyIndex::bind, starting a default T for each key never seen. */
    const std::vector<uint32_t>&
    bind(const KeyTable& chunk)
    {
        const std::vector<uint32_t>& ids = KeyIndex::bind(chunk);
        values_.resize(size());
        return ids;
    }

    /** KeyIndex::add; returns the new key's default T. */
    T&
    add(std::string_view key)
    {
        KeyIndex::add(key);
        return values_.emplace_back();
    }

    /** The state of @p key, or nullptr when the key was never seen. */
    const T*
    find(std::string_view key) const
    {
        uint32_t id = KeyIndex::find(key);
        return id < values_.size() ? &values_[id] : nullptr;
    }

    T& operator[](uint32_t id) { return values_[id]; }
    const T& operator[](uint32_t id) const { return values_[id]; }

  private:
    /** Indexed by key id. */
    std::vector<T> values_;
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_KEY_INTERNER_H_
