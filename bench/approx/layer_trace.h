#ifndef APPROXHADOOP_BENCH_APPROX_LAYER_TRACE_H_
#define APPROXHADOOP_BENCH_APPROX_LAYER_TRACE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/approx_config.h"
#include "core/approx_input_format.h"
#include "core/ratio_controller.h"
#include "core/sampling_reducer.h"
#include "core/target_error_controller.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "integrity/chunk_integrity.h"
#include "journal/sink.h"
#include "mapreduce/controller.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job.h"
#include "mapreduce/mapper.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/reducer.h"
#include "obs/json.h"
#include "sim/cluster.h"

/**
 * @file
 * Outside-in layer tracing for bench_approx. Decorators wrap the public
 * interfaces mr::Job calls into (BlockDataset, Mapper, Reducer,
 * JobController, InputFormat, Partitioner, EpochSink) and record one span
 * per call, so a traced op says where its host time went without any
 * hook inside the program. The decorators forward every call unchanged:
 * a traced op produces the same digest as an untraced one, which the
 * benchmark checks.
 *
 * Tracing is single-threaded: traced ops run at one exec thread, where
 * every decorated call happens on the driver thread and spans add up.
 */
namespace approxhadoop::benchapprox {

/** The layers a traced op attributes time to, named after src/ modules. */
enum class Layer : uint8_t {
    kReadItems,
    kMapBatch,
    kInputSelect,
    kPartition,
    kChecksum,
    kReduceConsume,
    kReduceFinalize,
    kController,
    kReduceCheckpoint,
    kReduceRestore,
    kOnEpoch,
    kOp,  ///< the whole traced op (root span; not a layer)
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kOp);

inline const char*
layerName(Layer layer)
{
    static constexpr const char* kNames[] = {
        "hdfs.read_items",        "apps.map_batch",
        "core.input_select",      "mapreduce.partition",
        "integrity.checksum",     "core.reduce_consume",
        "core.reduce_finalize",   "core.controller",
        "core.reduce_checkpoint", "core.reduce_restore",
        "journal.on_epoch",       "op",
    };
    return kNames[static_cast<size_t>(layer)];
}

/** Per-op self times and the counts recorded at the same boundaries. */
struct LayerTotals
{
    std::array<int64_t, kNumLayers> self_ns{};
    int64_t op_ns = 0;
    uint64_t read_calls = 0;
    uint64_t read_full_block_calls = 0;
    uint64_t read_records = 0;
    uint64_t checksum_records = 0;
    uint64_t consume_chunks = 0;
    uint64_t controller_calls = 0;
    uint64_t checkpoint_bytes = 0;
    uint64_t epochs = 0;
};

/**
 * In-memory span recorder. A span's self time is its duration minus the
 * durations of the spans directly inside it, so self times plus the
 * op's unattributed residual add up to the op's wall time even when a
 * controller callback drives the job into a reducer finalize.
 */
class Tracer
{
  public:
    struct Span
    {
        Layer layer = Layer::kOp;
        uint32_t op = 0;
        /** Index of the enclosing span among those recorded (-1 for an
         *  op). */
        int64_t parent = -1;
        int64_t start_ns = 0;
        int64_t end_ns = 0;
    };

    /** Closes the span it opened when it goes out of scope. */
    class Scope
    {
      public:
        explicit Scope(Tracer& tracer) : tracer_(tracer) {}
        ~Scope() { tracer_.close(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
    };

    Tracer() : origin_(std::chrono::steady_clock::now()) {}

    /** Starts op @p op: resets the per-op totals, opens the root span. */
    [[nodiscard]] Scope beginOp(uint32_t op)
    {
        totals_ = LayerTotals{};
        op_ = op;
        open(Layer::kOp);
        return Scope(*this);
    }

    [[nodiscard]] Scope span(Layer layer)
    {
        open(layer);
        return Scope(*this);
    }

    /** Totals of the current (or last finished) op; counts are bumped
     *  by the decorators directly. */
    LayerTotals& totals() { return totals_; }

    /** Chrome trace-event JSON of every span recorded (Perfetto opens
     *  it); one track per op. */
    std::string chromeTraceJson() const
    {
        obs::JsonWriter w;
        w.beginObject();
        w.field("displayTimeUnit", "ms");
        w.beginArray("traceEvents");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            w.beginObject();
            w.field("name", layerName(s.layer));
            w.field("cat", s.layer == Layer::kOp ? "op" : "layer");
            w.field("ph", "X");
            w.field("ts", static_cast<double>(s.start_ns) / 1e3);
            w.field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
            w.field("pid", 1);
            w.field("tid", static_cast<uint64_t>(s.op) + 1);
            w.beginObject("args");
            w.field("op", static_cast<uint64_t>(s.op));
            w.field("span", static_cast<uint64_t>(i));
            w.field("parent", static_cast<int64_t>(s.parent));
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }

  private:
    struct Open
    {
        size_t span = 0;
        int64_t child_ns = 0;
    };

    int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    void open(Layer layer)
    {
        Span s;
        s.layer = layer;
        s.op = op_;
        s.parent = stack_.empty() ? -1
                                  : static_cast<int64_t>(stack_.back().span);
        spans_.push_back(s);
        stack_.push_back(Open{spans_.size() - 1, 0});
        spans_.back().start_ns = now();
    }

    void close()
    {
        int64_t end = now();
        Open top = stack_.back();
        stack_.pop_back();
        Span& s = spans_[top.span];
        s.end_ns = end;
        int64_t dur = end - s.start_ns;
        if (s.layer == Layer::kOp) {
            totals_.op_ns = dur;
        } else {
            totals_.self_ns[static_cast<size_t>(s.layer)] +=
                dur - top.child_ns;
        }
        if (!stack_.empty()) {
            stack_.back().child_ns += dur;
        }
    }

    std::chrono::steady_clock::time_point origin_;
    uint32_t op_ = 0;
    LayerTotals totals_;
    std::vector<Open> stack_;
    std::vector<Span> spans_;
};

class TracedDataset final : public hdfs::BlockDataset
{
  public:
    TracedDataset(const hdfs::BlockDataset& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    uint64_t numBlocks() const override { return inner_.numBlocks(); }
    uint64_t itemsInBlock(uint64_t block) const override
    {
        return inner_.itemsInBlock(block);
    }
    std::string item(uint64_t block, uint64_t index) const override
    {
        return inner_.item(block, index);
    }
    uint64_t bytesPerItem() const override { return inner_.bytesPerItem(); }

    void readItems(uint64_t block, const uint64_t* indices, size_t count,
                   hdfs::RecordBuffer& out) const override
    {
        LayerTotals& t = tracer_.totals();
        ++t.read_calls;
        t.read_records += count;
        if (count == inner_.itemsInBlock(block)) {
            ++t.read_full_block_calls;
        }
        Tracer::Scope s = tracer_.span(Layer::kReadItems);
        inner_.readItems(block, indices, count, out);
    }

  private:
    const hdfs::BlockDataset& inner_;
    Tracer& tracer_;
};

class TracedMapper final : public mr::Mapper
{
  public:
    TracedMapper(std::unique_ptr<mr::Mapper> inner, Tracer& tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    void setup(mr::MapContext& ctx) override { inner_->setup(ctx); }
    void map(const std::string& record, mr::MapContext& ctx) override
    {
        inner_->map(record, ctx);
    }
    void mapBatch(const std::string_view* records, size_t count,
                  mr::MapContext& ctx) override
    {
        Tracer::Scope s = tracer_.span(Layer::kMapBatch);
        inner_->mapBatch(records, count, ctx);
    }
    void cleanup(mr::MapContext& ctx) override { inner_->cleanup(ctx); }

  private:
    std::unique_ptr<mr::Mapper> inner_;
    Tracer& tracer_;
};

/**
 * Besides timing the reducer, replays integrity::chunkChecksum on every
 * delivered chunk in its own span. That equals the map-side stamping
 * cost, which runs inline where no decorator can reach it; a mismatch
 * with the chunk's stamp means a corrupt chunk was delivered and fails
 * the op.
 */
class TracedReducer final : public mr::Reducer
{
  public:
    TracedReducer(std::unique_ptr<mr::Reducer> inner, Tracer& tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    void consume(const mr::MapOutputChunk& chunk) override
    {
        uint64_t digest = 0;
        {
            Tracer::Scope s = tracer_.span(Layer::kChecksum);
            digest = integrity::chunkChecksum(chunk);
        }
        if (digest != chunk.checksum) {
            throw std::runtime_error("delivered chunk of map task " +
                                     std::to_string(chunk.map_task) +
                                     " fails its checksum");
        }
        LayerTotals& t = tracer_.totals();
        t.checksum_records += chunk.records.size();
        ++t.consume_chunks;
        Tracer::Scope s = tracer_.span(Layer::kReduceConsume);
        inner_->consume(chunk);
    }

    void finalize(mr::ReduceContext& ctx) override
    {
        Tracer::Scope s = tracer_.span(Layer::kReduceFinalize);
        inner_->finalize(ctx);
    }

    bool checkpoint(std::string& state) const override
    {
        bool ok = false;
        {
            Tracer::Scope s = tracer_.span(Layer::kReduceCheckpoint);
            ok = inner_->checkpoint(state);
        }
        if (ok) {
            tracer_.totals().checkpoint_bytes += state.size();
        }
        return ok;
    }

    bool restore(const std::string& state) override
    {
        Tracer::Scope s = tracer_.span(Layer::kReduceRestore);
        return inner_->restore(state);
    }

  private:
    std::unique_ptr<mr::Reducer> inner_;
    Tracer& tracer_;
};

class TracedController final : public mr::JobController
{
  public:
    TracedController(mr::JobController& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void onJobStart(mr::JobHandle& job) override
    {
        Tracer::Scope s = enter();
        inner_.onJobStart(job);
    }
    void onMapComplete(mr::JobHandle& job,
                       const mr::MapTaskInfo& task) override
    {
        Tracer::Scope s = enter();
        inner_.onMapComplete(job, task);
    }
    void onWaveComplete(mr::JobHandle& job, int wave) override
    {
        Tracer::Scope s = enter();
        inner_.onWaveComplete(job, wave);
    }
    mr::FailureAction onMapFailure(mr::JobHandle& job,
                                   const mr::MapTaskInfo& task,
                                   uint32_t failed_attempts) override
    {
        Tracer::Scope s = enter();
        return inner_.onMapFailure(job, task, failed_attempts);
    }
    void onMapPhaseDone(mr::JobHandle& job) override
    {
        Tracer::Scope s = enter();
        inner_.onMapPhaseDone(job);
    }
    std::string journalState() const override
    {
        Tracer::Scope s = enter();
        return inner_.journalState();
    }

  private:
    Tracer::Scope enter() const
    {
        ++tracer_.totals().controller_calls;
        return tracer_.span(Layer::kController);
    }

    mr::JobController& inner_;
    Tracer& tracer_;
};

class TracedInputFormat final : public mr::InputFormat
{
  public:
    TracedInputFormat(std::shared_ptr<const mr::InputFormat> inner,
                      Tracer& tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    std::vector<uint64_t> select(uint64_t block, uint64_t block_items,
                                 double sampling_ratio,
                                 Rng& rng) const override
    {
        Tracer::Scope s = tracer_.span(Layer::kInputSelect);
        return inner_->select(block, block_items, sampling_ratio, rng);
    }

  private:
    std::shared_ptr<const mr::InputFormat> inner_;
    Tracer& tracer_;
};

class TracedPartitioner final : public mr::Partitioner
{
  public:
    explicit TracedPartitioner(Tracer& tracer) : tracer_(tracer) {}

    uint32_t partition(const std::string& key,
                       uint32_t num_partitions) const override
    {
        Tracer::Scope s = tracer_.span(Layer::kPartition);
        return inner_.partition(key, num_partitions);
    }

  private:
    mr::HashPartitioner inner_;
    Tracer& tracer_;
};

class TracedEpochSink final : public journal::EpochSink
{
  public:
    TracedEpochSink(journal::EpochSink& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void onEpoch(const journal::Epoch& epoch) override
    {
        ++tracer_.totals().epochs;
        Tracer::Scope s = tracer_.span(Layer::kOnEpoch);
        inner_.onEpoch(epoch);
    }

  private:
    journal::EpochSink& inner_;
    Tracer& tracer_;
};

inline mr::Job::MapperFactory
tracedMappers(mr::Job::MapperFactory inner, Tracer& tracer)
{
    return [inner = std::move(inner), &tracer]() {
        return std::make_unique<TracedMapper>(inner(), tracer);
    };
}

/**
 * Traced replica of core::ApproxJobRunner::runPrecise: the same mr::Job
 * wiring, with every pluggable piece behind a decorator. The input format
 * and partitioner are the job's defaults, made explicit to be wrapped.
 */
inline mr::JobResult
tracedRunPrecise(sim::Cluster& cluster, const hdfs::BlockDataset& data,
                 hdfs::NameNode& namenode, mr::JobConfig config,
                 mr::Job::MapperFactory mapper_factory,
                 mr::Job::ReducerFactory reducer_factory,
                 journal::EpochSink* sink, Tracer& tracer)
{
    TracedDataset traced_data(data, tracer);
    std::unique_ptr<TracedEpochSink> traced_sink;
    mr::Job job(cluster, traced_data, namenode, std::move(config));
    if (sink != nullptr) {
        traced_sink = std::make_unique<TracedEpochSink>(*sink, tracer);
        job.setEpochSink(traced_sink.get());
    }
    job.setMapperFactory(tracedMappers(std::move(mapper_factory), tracer));
    job.setReducerFactory(
        [inner = std::move(reducer_factory), &tracer]() {
            return std::make_unique<TracedReducer>(inner(), tracer);
        });
    job.setInputFormat(std::make_shared<TracedInputFormat>(
        std::make_shared<mr::TextInputFormat>(), tracer));
    job.setPartitioner(std::make_shared<TracedPartitioner>(tracer));
    return job.run();
}

/**
 * Traced replica of core::ApproxJobRunner::runAggregation (no moments
 * combiner). The controller keeps raw pointers to the inner reducers, so
 * its estimate queries are controller time and spans never double count.
 */
inline mr::JobResult
tracedRunAggregation(sim::Cluster& cluster, const hdfs::BlockDataset& data,
                     hdfs::NameNode& namenode, mr::JobConfig config,
                     const core::ApproxConfig& approx,
                     mr::Job::MapperFactory mapper_factory,
                     core::MultiStageSamplingReducer::Op op,
                     journal::EpochSink* sink, Tracer& tracer)
{
    config.framework_overhead = approx.framework_overhead;
    auto pool = std::make_shared<std::vector<std::unique_ptr<mr::Reducer>>>();
    std::vector<core::MultiStageSamplingReducer*> raw;
    for (uint32_t r = 0; r < config.num_reducers; ++r) {
        auto inner = std::make_unique<core::MultiStageSamplingReducer>(
            op, approx.confidence);
        raw.push_back(inner.get());
        pool->push_back(
            std::make_unique<TracedReducer>(std::move(inner), tracer));
    }

    TracedDataset traced_data(data, tracer);
    std::unique_ptr<TracedEpochSink> traced_sink;
    mr::Job job(cluster, traced_data, namenode, std::move(config));
    if (sink != nullptr) {
        traced_sink = std::make_unique<TracedEpochSink>(*sink, tracer);
        job.setEpochSink(traced_sink.get());
    }
    job.setMapperFactory(tracedMappers(std::move(mapper_factory), tracer));
    auto next = std::make_shared<size_t>(0);
    job.setReducerFactory([pool, next]() -> std::unique_ptr<mr::Reducer> {
        if (*next >= pool->size()) {
            throw std::logic_error("reducer pool exhausted");
        }
        return std::move((*pool)[(*next)++]);
    });
    job.setInputFormat(std::make_shared<TracedInputFormat>(
        std::make_shared<core::ApproxTextInputFormat>(), tracer));
    job.setPartitioner(std::make_shared<TracedPartitioner>(tracer));
    job.setInitialApproximateFraction(approx.user_defined_fraction);

    std::unique_ptr<mr::JobController> inner;
    if (approx.hasTarget()) {
        inner = std::make_unique<core::TargetErrorController>(approx, raw);
    } else {
        job.setInitialSamplingRatio(approx.sampling_ratio);
        if (approx.drop_ratio > 0.0) {
            inner =
                std::make_unique<core::UserRatioController>(approx.drop_ratio);
        }
    }
    std::unique_ptr<TracedController> controller;
    if (inner != nullptr) {
        controller = std::make_unique<TracedController>(*inner, tracer);
        job.setController(controller.get());
    }
    return job.run();
}

}  // namespace approxhadoop::benchapprox

#endif  // APPROXHADOOP_BENCH_APPROX_LAYER_TRACE_H_
