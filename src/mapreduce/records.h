#ifndef APPROXHADOOP_MAPREDUCE_RECORDS_H_
#define APPROXHADOOP_MAPREDUCE_RECORDS_H_

#include <cassert>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "mapreduce/key_interner.h"
#include "mapreduce/types.h"

namespace approxhadoop::mr {

/**
 * Builds intermediate records as rows over an interned key table: a map
 * task's output (MapContext), a combiner's output. Each distinct key is
 * stored once; its id is assigned at its first row, so ids follow the
 * order of each key's first row — the order a MapOutputChunk promises.
 * Every id has a row: ids come only from write(), and writeId() takes
 * only ids that write() returned.
 */
class RecordWriter
{
  public:
    /** Appends one record, interning @p key; returns the key's id. */
    uint32_t
    write(std::string_view key, double value, double value2 = 0.0,
          double value3 = 0.0, double value4 = 0.0)
    {
        uint32_t id = keys_.intern(key);
        rows_.push_back(Row{id, value, value2, value3, value4});
        return id;
    }

    /**
     * Appends one record under @p id, a key id an earlier write() of
     * this writer returned, without hashing the key again.
     */
    void
    writeId(uint32_t id, double value, double value2 = 0.0,
            double value3 = 0.0, double value4 = 0.0)
    {
        assert(id < keys_.size());
        rows_.push_back(Row{id, value, value2, value3, value4});
    }

    size_t size() const { return rows_.size(); }
    bool empty() const { return rows_.empty(); }
    const Row& operator[](size_t i) const { return rows_[i]; }
    std::vector<Row>::const_iterator begin() const { return rows_.begin(); }
    std::vector<Row>::const_iterator end() const { return rows_.end(); }

    /** The key of @p row (a row of this writer). */
    std::string_view key(const Row& row) const { return keys_.key(row.key); }

    /** The distinct keys written so far, in id order. */
    const KeyInterner& keys() const { return keys_; }

    /**
     * Makes room for @p rows more rows, and sizes the key table for as
     * many keys (KeyInterner::reserve): a writer that expects n rows
     * can see at most n distinct keys.
     */
    void
    reserve(size_t rows)
    {
        rows_.reserve(rows_.size() + rows);
        keys_.reserve(keys_.size() + rows);
    }

    /** Moves the rows and the key table out of a writer that is done. */
    std::pair<std::vector<Row>, KeyTable>
    release() &&
    {
        return {std::move(rows_), std::move(keys_).release()};
    }

  private:
    KeyInterner keys_;
    std::vector<Row> rows_;
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_RECORDS_H_
