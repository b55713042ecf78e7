#ifndef APPROXHADOOP_HDFS_DATASET_H_
#define APPROXHADOOP_HDFS_DATASET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace approxhadoop::hdfs {

/**
 * Arena of materialized records: one contiguous byte buffer plus record
 * boundaries, so a batch of records costs one allocation instead of one
 * std::string each. Producers either append() whole records or write
 * bytes straight into bytes() and mark boundaries with endRecord().
 *
 * A buffer may instead share another, immutable buffer's records (see
 * appendFrom): a whole, in-order read of a cached block then costs a
 * reference count, not a copy of the block. Reads see the shared
 * records; the first write (bytes(), endRecord(), append(), appendFrom)
 * copies them into the buffer's own arena. The shared records live as
 * long as any buffer sharing them, so a buffer may outlive the dataset
 * it was read from.
 */
class RecordBuffer
{
  public:
    /** Raw byte sink; append record bytes here, then call endRecord(). */
    std::string&
    bytes()
    {
        unshare();
        return bytes_;
    }

    /** Marks the end of the record being written into bytes(). */
    void
    endRecord()
    {
        unshare();
        ends_.push_back(bytes_.size());
    }

    /** Appends one complete record (which may view this buffer). */
    void
    append(std::string_view record)
    {
        std::shared_ptr<const RecordBuffer> keep = unshare();
        bytes_.append(record);
        ends_.push_back(bytes_.size());
    }

    /**
     * Appends records @p indices[0..count) of @p source, in that order.
     * An empty buffer asked for every record of @p source in order copies
     * its bytes and boundaries wholesale; otherwise the buffer reserves
     * room for the records before appending them one by one.
     */
    void appendFrom(const RecordBuffer& source, const uint64_t* indices,
                    size_t count);

    /**
     * As above, except that an empty buffer asked for every record of
     * @p source in order shares @p source's records instead of copying
     * them. @p source must never be written to again.
     */
    void appendFrom(std::shared_ptr<const RecordBuffer> source,
                    const uint64_t* indices, size_t count);

    /** Number of complete records. */
    size_t size() const { return data().ends_.size(); }

    /** View of record @p i; valid until the buffer is cleared/appended. */
    std::string_view
    record(size_t i) const
    {
        const RecordBuffer& d = data();
        size_t begin = i == 0 ? 0 : d.ends_[i - 1];
        return std::string_view(d.bytes_).substr(begin, d.ends_[i] - begin);
    }

    /** Total payload bytes. */
    size_t payloadBytes() const { return data().bytes_.size(); }

    void
    clear()
    {
        shared_.reset();
        bytes_.clear();
        ends_.clear();
    }

  private:
    /** The buffer whose arena holds our records: the shared one, if any
     *  (which never shares another itself), else this one. */
    const RecordBuffer& data() const { return shared_ ? *shared_ : *this; }

    /** Whether @p indices[0..count) is every record of @p source, in
     *  order, and this buffer is empty. */
    bool takesAllOf(const RecordBuffer& source, const uint64_t* indices,
                    size_t count) const;

    /**
     * Copies shared records into our own arena and stops sharing them.
     * Returns the reference it dropped (null when not sharing), so a
     * caller may keep the old records alive while it still reads them.
     */
    std::shared_ptr<const RecordBuffer>
    unshare()
    {
        std::shared_ptr<const RecordBuffer> dropped = std::move(shared_);
        if (dropped) {
            bytes_ = dropped->bytes_;
            ends_ = dropped->ends_;
        }
        return dropped;
    }

    std::string bytes_;
    std::vector<size_t> ends_;
    /** Records shared instead of held; bytes_ and ends_ are empty then. */
    std::shared_ptr<const RecordBuffer> shared_;
};

/**
 * A block-structured input dataset, the HDFS file abstraction the
 * MapReduce runtime consumes.
 *
 * Data items (records) are addressed as (block, index) pairs; one map
 * task processes one block. Implementations may hold records in memory
 * (InMemoryDataset) or synthesize them on demand (GeneratedDataset),
 * which is how the benchmarks model multi-terabyte logs without
 * materializing them: item() is called only for records the sampled map
 * tasks actually process.
 */
class BlockDataset
{
  public:
    virtual ~BlockDataset() = default;

    /** Number of blocks (equals the number of map tasks). */
    virtual uint64_t numBlocks() const = 0;

    /** Number of data items in block @p block. */
    virtual uint64_t itemsInBlock(uint64_t block) const = 0;

    /**
     * Materializes one record.
     * @pre block < numBlocks() and index < itemsInBlock(block)
     */
    virtual std::string item(uint64_t block, uint64_t index) const = 0;

    /**
     * Materializes a batch of records of one block into @p out (appending;
     * the caller clears). Record i of the batch is the block's record
     * indices[i], byte-identical to item(block, indices[i]) — overrides
     * may only change *how* the bytes are produced (amortizing per-block
     * work over the batch), never the bytes themselves.
     *
     * Thread safety: may be called concurrently from parallel map tasks.
     */
    virtual void
    readItems(uint64_t block, const uint64_t* indices, size_t count,
              RecordBuffer& out) const
    {
        for (size_t i = 0; i < count; ++i) {
            out.append(item(block, indices[i]));
        }
    }

    /** Nominal bytes per item, for I/O and locality accounting. */
    virtual uint64_t bytesPerItem() const { return 100; }

    /** Total items across all blocks. */
    uint64_t totalItems() const;
};

/** Dataset backed by in-memory record vectors; used by tests/examples. */
class InMemoryDataset : public BlockDataset
{
  public:
    /** Wraps pre-split blocks of records. */
    explicit InMemoryDataset(std::vector<std::vector<std::string>> blocks);

    /**
     * Splits a flat record list into blocks of at most @p block_size
     * records, mirroring how HDFS splits a file.
     */
    InMemoryDataset(const std::vector<std::string>& records,
                    uint64_t block_size);

    uint64_t numBlocks() const override;
    uint64_t itemsInBlock(uint64_t block) const override;
    std::string item(uint64_t block, uint64_t index) const override;

  private:
    std::vector<std::vector<std::string>> blocks_;
};

/**
 * Dataset whose records are produced lazily by a generator function.
 * The generator must be deterministic in (block, index) so that precise
 * and approximate runs observe identical data.
 *
 * Two generator forms exist. The per-item Generator is the baseline
 * contract. Workloads may additionally supply a BlockGenerator that
 * synthesizes many records of one block in a single call — hoisting
 * per-block state (e.g. the block-locality RNG) out of the per-record
 * loop — which readItems() uses for batched map execution. Both forms
 * must produce byte-identical records for the same (block, index).
 *
 * Blocks synthesized in full are retained in a bounded in-memory block
 * cache (a DataNode block cache stand-in): the simulated cluster re-reads
 * the same blocks across runs and repetitions, and re-synthesizing them
 * (one seeded Rng stream per record) each time would dominate wall-clock
 * time without modeling anything (real input bytes exist; they are not
 * recomputed per read). The cache never changes record content, only
 * where the bytes come from. A cached block is immutable: a whole,
 * in-order read of it into an empty buffer shares its records
 * (RecordBuffer::appendFrom) instead of copying them; other reads copy.
 */
class GeneratedDataset : public BlockDataset
{
  public:
    using Generator = std::function<std::string(uint64_t block,
                                                uint64_t index)>;
    /** Appends records indices[0..count) of @p block to @p out. */
    using BlockGenerator = std::function<void(uint64_t block,
                                              const uint64_t* indices,
                                              size_t count,
                                              RecordBuffer& out)>;

    /** Default block-cache capacity (bytes of cached record payload). */
    static constexpr size_t kDefaultCacheCapBytes = 64u << 20;

    /**
     * @param num_blocks      number of blocks
     * @param items_per_block items in every block
     * @param generator       record synthesizer
     * @param bytes_per_item  nominal record size for I/O accounting
     */
    GeneratedDataset(uint64_t num_blocks, uint64_t items_per_block,
                     Generator generator, uint64_t bytes_per_item = 100);

    /** As above, plus a batched synthesizer used by readItems(). */
    GeneratedDataset(uint64_t num_blocks, uint64_t items_per_block,
                     Generator generator, BlockGenerator block_generator,
                     uint64_t bytes_per_item = 100,
                     size_t cache_cap_bytes = kDefaultCacheCapBytes);

    uint64_t numBlocks() const override { return num_blocks_; }
    uint64_t itemsInBlock(uint64_t block) const override;
    std::string item(uint64_t block, uint64_t index) const override;
    void readItems(uint64_t block, const uint64_t* indices, size_t count,
                   RecordBuffer& out) const override;
    uint64_t bytesPerItem() const override { return bytes_per_item_; }

  private:
    /** Appends the requested records via the best available generator. */
    void generate(uint64_t block, const uint64_t* indices, size_t count,
                  RecordBuffer& out) const;

    uint64_t num_blocks_;
    uint64_t items_per_block_;
    Generator generator_;
    BlockGenerator block_generator_;
    uint64_t bytes_per_item_;
    size_t cache_cap_bytes_ = kDefaultCacheCapBytes;

    // Block cache: fully synthesized blocks, keyed by block id. Guarded
    // by cache_mu_ because parallel map tasks read concurrently; the
    // blocks themselves are immutable and shared with readers.
    mutable std::mutex cache_mu_;
    mutable std::unordered_map<uint64_t, std::shared_ptr<const RecordBuffer>>
        cache_;
    mutable size_t cache_bytes_ = 0;
};

}  // namespace approxhadoop::hdfs

#endif  // APPROXHADOOP_HDFS_DATASET_H_
