#include "mapreduce/combiner.h"

namespace approxhadoop::mr {

void
SumCombiner::combine(std::string_view key, const Row* rows, size_t count,
                     RecordWriter& out)
{
    double sum = 0.0;
    for (size_t i = 0; i < count; ++i) {
        sum += rows[i].value;
    }
    out.write(key, sum);
}

void
CountCombiner::combine(std::string_view key, const Row* /*rows*/,
                       size_t count, RecordWriter& out)
{
    out.write(key, static_cast<double>(count));
}

void
MomentsCombiner::combine(std::string_view key, const Row* rows,
                         size_t count, RecordWriter& out)
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (size_t i = 0; i < count; ++i) {
        sum += rows[i].value;
        sum_sq += rows[i].value * rows[i].value;
    }
    out.write(key, sum, sum_sq, static_cast<double>(count), kMomentsMarker);
}

bool
MomentsCombiner::isMomentsRecord(const Row& row)
{
    return row.value4 == kMomentsMarker;
}

}  // namespace approxhadoop::mr
