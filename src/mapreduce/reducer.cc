#include "mapreduce/reducer.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "integrity/blob.h"

namespace approxhadoop::mr {

void
FoldReducer::consume(const MapOutputChunk& chunk)
{
    // One intern per distinct key of the chunk, in the order of each
    // key's first row, so ids stay in first-seen order. A key's
    // accumulator starts with n == 0: min/max then start from its first
    // value, sums from 0.0.
    chunk_ids_.resize(chunk.keys.size());
    for (uint32_t k = 0; k < chunk.keys.size(); ++k) {
        uint32_t id = keys_.intern(chunk.keys.key(k));
        if (id == acc_.size()) {
            acc_.emplace_back();
        }
        chunk_ids_[k] = id;
    }
    for (const Row& row : chunk.records) {
        Accumulator& a = acc_[chunk_ids_[row.key]];
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
    std::vector<uint32_t> order(acc_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
        return keys_.key(a) < keys_.key(b);
    });
    for (uint32_t id : order) {
        const Accumulator& a = acc_[id];
        double value = a.value;
        if (fold_ == Fold::kCount) {
            value = static_cast<double>(a.n);
        } else if (fold_ == Fold::kAverage) {
            value = a.value / static_cast<double>(a.n);
        }
        ctx.write(std::string(keys_.key(id)), value);
    }
}

bool
FoldReducer::checkpoint(std::string& state) const
{
    integrity::BlobWriter w;
    w.putU64(acc_.size());
    for (uint32_t id = 0; id < acc_.size(); ++id) {
        w.putString(keys_.key(id));
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
    KeyInterner keys;
    std::vector<Accumulator> acc;
    uint64_t num_keys = r.getU64();
    for (uint64_t i = 0; i < num_keys; ++i) {
        if (keys.intern(r.getString()) != acc.size()) {
            throw std::runtime_error("fold reducer: duplicate checkpoint key");
        }
        Accumulator a;
        a.value = r.getDouble();
        a.n = r.getU64();
        acc.push_back(a);
    }
    r.expectEnd();
    keys_ = std::move(keys);
    acc_ = std::move(acc);
    return true;
}

}  // namespace approxhadoop::mr
