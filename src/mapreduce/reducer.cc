#include "mapreduce/reducer.h"

#include <algorithm>

#include "integrity/blob.h"

namespace approxhadoop::mr {

void
FoldReducer::consume(const MapOutputChunk& chunk)
{
    // A key's accumulator starts with n == 0: min/max then start from
    // its first value, sums from 0.0.
    const std::vector<uint32_t>& ids = acc_.bind(chunk.keys);
    for (const Row& row : chunk.records) {
        Accumulator& a = acc_[ids[row.key]];
        switch (fold_) {
        case Fold::kSum:
        case Fold::kAverage:
            a.value += row.value;
            break;
        case Fold::kMin:
            a.value = a.n == 0 ? row.value : std::min(a.value, row.value);
            break;
        case Fold::kMax:
            a.value = a.n == 0 ? row.value : std::max(a.value, row.value);
            break;
        case Fold::kCount:
            break;
        }
        ++a.n;
    }
}

void
FoldReducer::finalize(ReduceContext& ctx)
{
    for (uint32_t id : acc_.sorted()) {
        const Accumulator& a = acc_[id];
        double value = a.value;
        if (fold_ == Fold::kCount) {
            value = static_cast<double>(a.n);
        } else if (fold_ == Fold::kAverage) {
            value = a.value / static_cast<double>(a.n);
        }
        ctx.write(std::string(acc_.key(id)), value);
    }
}

bool
FoldReducer::checkpoint(std::string& state) const
{
    integrity::BlobWriter w;
    w.putU64(acc_.size());
    for (uint32_t id = 0; id < acc_.size(); ++id) {
        w.putString(acc_.key(id));
        w.putDouble(acc_[id].value);
        w.putU64(acc_[id].n);
    }
    state = w.release();
    return true;
}

bool
FoldReducer::restore(const std::string& state)
{
    integrity::BlobReader r(state);
    KeyedState<Accumulator> acc;
    uint64_t num_keys = r.getU64();
    for (uint64_t i = 0; i < num_keys; ++i) {
        Accumulator& a = acc.add(r.getString());
        a.value = r.getDouble();
        a.n = r.getU64();
    }
    r.expectEnd();
    acc_ = std::move(acc);
    return true;
}

}  // namespace approxhadoop::mr
