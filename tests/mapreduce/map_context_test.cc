#include "mapreduce/mapper.h"

#include <gtest/gtest.h>

#include "mapreduce/counters.h"

namespace approxhadoop::mr {
namespace {

TEST(MapContextTest, ExposesTaskMetadata)
{
    MapContext ctx(7, 100, 25, true, Rng(1));
    EXPECT_EQ(ctx.taskId(), 7u);
    EXPECT_EQ(ctx.itemsTotal(), 100u);
    EXPECT_EQ(ctx.itemsProcessed(), 25u);
    EXPECT_TRUE(ctx.approximate());
}

TEST(MapContextTest, WriteVariants)
{
    MapContext ctx(0, 1, 1, false, Rng(2));
    ctx.write("a", 1.5);
    ctx.write("b", 2.0, 3.0);
    ASSERT_EQ(ctx.output().size(), 2u);
    EXPECT_EQ(ctx.output().key(ctx.output()[0]), "a");
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 1.5);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value2, 0.0);
    EXPECT_DOUBLE_EQ(ctx.output()[1].value2, 3.0);
}

TEST(MapContextTest, OutputIsSizedFromTheTaskInput)
{
    // 400 items: a key table of 1024 slots holds every key the task can
    // write at under half load, so it never rehashes.
    MapContext ctx(0, 400, 400, false, Rng(3));
    EXPECT_EQ(ctx.output().keys().slotCount(), 1024u);
    MapContext sampled(0, 400, 40, false, Rng(3));
    EXPECT_EQ(sampled.output().keys().slotCount(), 128u);
}

TEST(MapContextTest, WriteIdAppendsUnderAnExistingKey)
{
    MapContext ctx(0, 3, 3, false, Rng(4));
    uint32_t a = ctx.write("a", 1.0);
    uint32_t b = ctx.write("b", 2.0);
    EXPECT_EQ(ctx.write("a", 3.0), a);
    ctx.writeId(b, 4.0, 5.0);
    const RecordWriter& out = ctx.output();
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.keys().size(), 2u);
    EXPECT_EQ(out[3].key, b);
    EXPECT_EQ(out.key(out[3]), "b");
    EXPECT_DOUBLE_EQ(out[3].value, 4.0);
    EXPECT_DOUBLE_EQ(out[3].value2, 5.0);
}

TEST(MapContextTest, RngIsUsableAndStable)
{
    MapContext a(3, 10, 10, false, Rng(99));
    MapContext b(3, 10, 10, false, Rng(99));
    EXPECT_EQ(a.rng().uniformInt(1000), b.rng().uniformInt(1000));
}

TEST(TaskStateTest, TerminalClassification)
{
    EXPECT_FALSE(isTerminal(TaskState::kPending));
    EXPECT_FALSE(isTerminal(TaskState::kHeld));
    EXPECT_FALSE(isTerminal(TaskState::kRunning));
    EXPECT_FALSE(isTerminal(TaskState::kAwaitingRetry));
    EXPECT_TRUE(isTerminal(TaskState::kCompleted));
    EXPECT_TRUE(isTerminal(TaskState::kKilled));
    EXPECT_TRUE(isTerminal(TaskState::kDropped));
    EXPECT_TRUE(isTerminal(TaskState::kAbsorbed));
}

TEST(CountersTest, DerivedMetrics)
{
    Counters c;
    c.maps_total = 100;
    c.maps_completed = 60;
    c.maps_dropped = 30;
    c.maps_killed = 10;
    c.items_total = 1000;
    c.items_processed = 250;
    EXPECT_DOUBLE_EQ(c.droppedFraction(), 0.4);
    EXPECT_DOUBLE_EQ(c.effectiveSamplingRatio(), 0.25);
    EXPECT_NE(c.summary().find("maps=100"), std::string::npos);
}

TEST(CountersTest, EmptyCountersAreSafe)
{
    Counters c;
    EXPECT_DOUBLE_EQ(c.droppedFraction(), 0.0);
    EXPECT_DOUBLE_EQ(c.effectiveSamplingRatio(), 0.0);
}

TEST(OutputRecordTest, RelativeErrorOfZeroValue)
{
    OutputRecord bounded;
    bounded.value = 0.0;
    bounded.has_bound = true;
    bounded.lower = -1.0;
    bounded.upper = 1.0;
    EXPECT_DOUBLE_EQ(bounded.relativeError(), 1.0);

    OutputRecord precise;
    precise.value = 0.0;
    EXPECT_DOUBLE_EQ(precise.relativeError(), 0.0);
}

}  // namespace
}  // namespace approxhadoop::mr
