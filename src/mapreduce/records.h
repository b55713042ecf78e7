#ifndef APPROXHADOOP_MAPREDUCE_RECORDS_H_
#define APPROXHADOOP_MAPREDUCE_RECORDS_H_

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
 */
class RecordWriter
{
  public:
    /** Appends one record, interning @p key. */
    void
    write(std::string_view key, double value, double value2 = 0.0,
          double value3 = 0.0, double value4 = 0.0)
    {
        rows_.push_back(
            Row{keys_.intern(key), value, value2, value3, value4});
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

    /** Makes room for @p rows more rows. */
    void reserve(size_t rows) { rows_.reserve(rows_.size() + rows); }

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
