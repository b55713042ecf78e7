/**
 * @file
 * Records with their keys spelled out, for tests that build shuffle
 * chunks or read a map task's output record by record. The framework
 * itself carries records as rows over a key table (mr::Row, see
 * mapreduce/records.h); these helpers convert in both directions.
 */
#ifndef APPROXHADOOP_TESTS_SUPPORT_KEY_VALUE_H_
#define APPROXHADOOP_TESTS_SUPPORT_KEY_VALUE_H_

#include <string>
#include <utility>
#include <vector>

#include "mapreduce/combiner.h"
#include "mapreduce/records.h"
#include "mapreduce/reducer.h"

namespace approxhadoop::mr {

/** One record: its key and the four values of a Row. */
struct KeyValue
{
    std::string key;
    double value = 0.0;
    double value2 = 0.0;
    double value3 = 0.0;
    double value4 = 0.0;
};

/** Sets @p chunk's records to @p records, in order; keys are numbered
 *  in first-row order, as the framework numbers them. */
inline void
setRecords(MapOutputChunk& chunk, const std::vector<KeyValue>& records)
{
    RecordWriter out;
    for (const KeyValue& kv : records) {
        out.write(kv.key, kv.value, kv.value2, kv.value3, kv.value4);
    }
    chunk.assign(std::move(out));
}

/** @p rows spelled out, each key read through @p key_of. */
template <typename Rows, typename KeyOf>
std::vector<KeyValue>
spellOut(const Rows& rows, KeyOf key_of)
{
    std::vector<KeyValue> out;
    for (const Row& row : rows) {
        out.push_back(KeyValue{std::string(key_of(row)), row.value,
                               row.value2, row.value3, row.value4});
    }
    return out;
}

/** @p chunk's records spelled out, in row order. */
inline std::vector<KeyValue>
keyValues(const MapOutputChunk& chunk)
{
    return spellOut(chunk.records,
                    [&chunk](const Row& row) { return chunk.key(row); });
}

/** A map task's emitted records spelled out, in emission order. */
inline std::vector<KeyValue>
keyValues(const RecordWriter& output)
{
    return spellOut(output,
                    [&output](const Row& row) { return output.key(row); });
}

/** @p combiner's output for one key's records, all spelled out. */
inline std::vector<KeyValue>
combine(Combiner& combiner, const std::string& key,
        const std::vector<KeyValue>& values)
{
    std::vector<Row> rows;
    for (const KeyValue& kv : values) {
        rows.push_back(Row{0, kv.value, kv.value2, kv.value3, kv.value4});
    }
    RecordWriter out;
    combiner.combine(key, rows.data(), rows.size(), out);
    return keyValues(out);
}

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_TESTS_SUPPORT_KEY_VALUE_H_
