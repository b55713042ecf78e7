#include "hdfs/dataset.h"

#include <cassert>
#include <numeric>
#include <utility>

namespace approxhadoop::hdfs {

uint64_t
BlockDataset::totalItems() const
{
    uint64_t total = 0;
    for (uint64_t b = 0; b < numBlocks(); ++b) {
        total += itemsInBlock(b);
    }
    return total;
}

InMemoryDataset::InMemoryDataset(std::vector<std::vector<std::string>> blocks)
    : blocks_(std::move(blocks))
{
}

InMemoryDataset::InMemoryDataset(const std::vector<std::string>& records,
                                 uint64_t block_size)
{
    assert(block_size > 0);
    for (size_t i = 0; i < records.size(); i += block_size) {
        size_t end = std::min(records.size(), i + block_size);
        blocks_.emplace_back(records.begin() + i, records.begin() + end);
    }
}

uint64_t
InMemoryDataset::numBlocks() const
{
    return blocks_.size();
}

uint64_t
InMemoryDataset::itemsInBlock(uint64_t block) const
{
    assert(block < blocks_.size());
    return blocks_[block].size();
}

std::string
InMemoryDataset::item(uint64_t block, uint64_t index) const
{
    assert(block < blocks_.size());
    assert(index < blocks_[block].size());
    return blocks_[block][index];
}

GeneratedDataset::GeneratedDataset(uint64_t num_blocks,
                                   uint64_t items_per_block,
                                   Generator generator,
                                   uint64_t bytes_per_item)
    : num_blocks_(num_blocks), items_per_block_(items_per_block),
      generator_(std::move(generator)), bytes_per_item_(bytes_per_item)
{
    assert(num_blocks > 0);
    assert(items_per_block > 0);
}

GeneratedDataset::GeneratedDataset(uint64_t num_blocks,
                                   uint64_t items_per_block,
                                   Generator generator,
                                   BlockGenerator block_generator,
                                   uint64_t bytes_per_item,
                                   size_t cache_cap_bytes)
    : num_blocks_(num_blocks), items_per_block_(items_per_block),
      generator_(std::move(generator)),
      block_generator_(std::move(block_generator)),
      bytes_per_item_(bytes_per_item), cache_cap_bytes_(cache_cap_bytes)
{
    assert(num_blocks > 0);
    assert(items_per_block > 0);
}

uint64_t
GeneratedDataset::itemsInBlock([[maybe_unused]] uint64_t block) const
{
    assert(block < num_blocks_);
    return items_per_block_;
}

std::string
GeneratedDataset::item(uint64_t block, uint64_t index) const
{
    assert(block < num_blocks_);
    assert(index < items_per_block_);
    {
        std::lock_guard<std::mutex> lock(cache_mu_);
        auto it = cache_.find(block);
        if (it != cache_.end()) {
            return std::string(it->second->record(index));
        }
    }
    return generator_(block, index);
}

bool
RecordBuffer::takesAllOf(const RecordBuffer& source, const uint64_t* indices,
                         size_t count) const
{
    if (size() != 0 || payloadBytes() != 0 || count != source.size()) {
        return false;
    }
    for (size_t i = 0; i < count; ++i) {
        if (indices[i] != i) {
            return false;
        }
    }
    return true;
}

void
RecordBuffer::appendFrom(const RecordBuffer& source, const uint64_t* indices,
                         size_t count)
{
    // Keeps shared records alive while they are read: @p source may be
    // the buffer we share.
    std::shared_ptr<const RecordBuffer> keep = unshare();
    if (takesAllOf(source, indices, count)) {
        bytes_ = source.data().bytes_;
        ends_ = source.data().ends_;
        return;
    }
    size_t bytes = 0;
    for (size_t i = 0; i < count; ++i) {
        bytes += source.record(indices[i]).size();
    }
    bytes_.reserve(bytes_.size() + bytes);
    ends_.reserve(ends_.size() + count);
    for (size_t i = 0; i < count; ++i) {
        append(source.record(indices[i]));
    }
}

void
RecordBuffer::appendFrom(std::shared_ptr<const RecordBuffer> source,
                         const uint64_t* indices, size_t count)
{
    if (takesAllOf(*source, indices, count)) {
        shared_ = source->shared_ ? source->shared_ : std::move(source);
        return;
    }
    appendFrom(*source, indices, count);
}

void
GeneratedDataset::generate(uint64_t block, const uint64_t* indices,
                           size_t count, RecordBuffer& out) const
{
    if (block_generator_) {
        block_generator_(block, indices, count, out);
    } else {
        for (size_t i = 0; i < count; ++i) {
            out.append(generator_(block, indices[i]));
        }
    }
}

void
GeneratedDataset::readItems(uint64_t block, const uint64_t* indices,
                            size_t count, RecordBuffer& out) const
{
    assert(block < num_blocks_);
    std::shared_ptr<const RecordBuffer> cached;
    {
        std::lock_guard<std::mutex> lock(cache_mu_);
        auto it = cache_.find(block);
        if (it != cache_.end()) {
            cached = it->second;
        }
    }
    if (cached) {
        out.appendFrom(std::move(cached), indices, count);
        return;
    }
    // Whole-block synthesis (which feeds the cache) only pays off when
    // the full block is requested — precise scans, which also re-read
    // blocks across repetitions. Sampled reads typically touch a block
    // once, so doing extra records up front is pure overhead for them;
    // they keep the lazy per-index path.
    bool whole_block = count == items_per_block_;
    if (!whole_block) {
        generate(block, indices, count, out);
        return;
    }
    // count == items_per_block_ and indices are distinct and in range,
    // so they cover the block exactly (though not necessarily in order).
    auto full = std::make_shared<RecordBuffer>();
    std::vector<uint64_t> all(items_per_block_);
    std::iota(all.begin(), all.end(), 0);
    generate(block, all.data(), all.size(), *full);
    out.appendFrom(*full, indices, count);
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_bytes_ + full->payloadBytes() <= cache_cap_bytes_ &&
        cache_.find(block) == cache_.end()) {
        cache_bytes_ += full->payloadBytes();
        cache_.emplace(block, std::move(full));
    }
}

}  // namespace approxhadoop::hdfs
