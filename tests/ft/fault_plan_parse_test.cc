/**
 * @file
 * Table-driven negative tests for the hardened FaultPlan::parse():
 * non-finite and out-of-range probabilities, trailing garbage, duplicate
 * keys, and malformed seeds must all be rejected with
 * std::invalid_argument, never silently clamped.
 */
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ft/fault_plan.h"

namespace approxhadoop::ft {
namespace {

struct BadSpec
{
    const char* spec;
    const char* why;
};

TEST(FaultPlanParseTest, RejectsInvalidSpecs)
{
    const std::vector<BadSpec> cases = {
        // Out-of-range / non-finite probabilities.
        {"crash=nan", "NaN probability"},
        {"crash=inf", "infinite probability"},
        {"crash=-0.5", "negative probability"},
        {"crash=1.5", "probability above one"},
        {"corrupt=nan", "NaN corruption probability"},
        {"corrupt=-0.1", "negative corruption probability"},
        {"corrupt=2", "corruption probability above one"},
        {"badrec=nan", "NaN bad-record probability"},
        {"badrec=1.01", "bad-record probability above one"},
        {"rcrash=-1", "negative reduce-crash probability"},
        {"rcrash=inf", "infinite reduce-crash probability"},
        {"straggler=nan:4", "NaN straggler probability"},
        // Trailing garbage after an otherwise valid number.
        {"crash=0.5x", "trailing garbage after probability"},
        {"corrupt=0.5junk", "trailing garbage after probability"},
        {"rcrash=0.1 ", "trailing space after probability"},
        {"seed=12abc", "trailing garbage after seed"},
        // Malformed seeds.
        {"seed=abc", "non-numeric seed"},
        {"seed=-3", "negative seed"},
        {"seed=", "empty seed"},
        // Duplicate keys: a silent last-wins would mask typos.
        {"crash=0.1,crash=0.2", "duplicate crash key"},
        {"corrupt=0.1,corrupt=0.1", "duplicate corrupt key"},
        {"badrec=0.1,crash=0.2,badrec=0.3", "duplicate badrec key"},
        {"rcrash=0.1,rcrash=0.1", "duplicate rcrash key"},
        {"seed=1,seed=2", "duplicate seed key"},
        // Structural garbage.
        {"crash", "clause without ="},
        {"=0.5", "clause without key"},
        {"crash=", "clause without value"},
        {"crash=0.1,,straggler=0.1:2", "empty clause"},
        {"bogus=1", "unknown key"},
        // Elastic-fleet keys: counts, classes, and time tails are
        // validated like everything else.
        {"revoke=5", "revoke without @T"},
        {"revoke=0@10", "zero revoke count"},
        {"revoke=x@10", "non-numeric revoke count"},
        {"revoke=3@-5", "negative storm time"},
        {"revoke=3@10+-2", "negative repair duration"},
        {"addsrv=4atom", "addsrv without @T"},
        {"addsrv=atom@10", "addsrv without count"},
        {"addsrv=4@10", "addsrv without class"},
        {"addsrv=4bogus@10", "unknown server class"},
        {"addsrv=4atom@10+5", "addsrv takes no +D duration"},
        {"drain=2", "drain without @T"},
        {"drain=0@10", "zero drain count"},
        {"drain=2@10+5", "drain takes no +D duration"},
        // Server ids are integers: no truncation, no negative or
        // out-of-range double->uint32_t casts.
        {"server=1.9@5", "fractional server id"},
        {"server=-1@5", "negative server id"},
        {"server=1e12@5", "server id beyond uint32"},
        // Driver kills: a time, strictly positive and finite.
        {"dcrash=", "dcrash without a time"},
        {"dcrash=abc", "non-numeric dcrash time"},
        {"dcrash=-5", "negative dcrash time"},
        {"dcrash=0", "dcrash at time zero"},
        {"dcrash=inf", "infinite dcrash time"},
        {"dcrash=10x", "trailing garbage after dcrash time"},
    };
    for (const BadSpec& c : cases) {
        EXPECT_THROW(FaultPlan::parse(c.spec), std::invalid_argument)
            << "spec '" << c.spec << "' should fail: " << c.why;
    }
}

TEST(FaultPlanParseTest, ParsesNewFaultKinds)
{
    FaultPlan plan = FaultPlan::parse("corrupt=0.05,badrec=0.01,rcrash=0.1");
    EXPECT_TRUE(plan.enabled());
    EXPECT_DOUBLE_EQ(plan.chunk_corrupt_prob, 0.05);
    EXPECT_DOUBLE_EQ(plan.bad_record_prob, 0.01);
    EXPECT_DOUBLE_EQ(plan.reduce_crash_prob, 0.1);
    EXPECT_NE(plan.summary().find("corrupt"), std::string::npos);
    EXPECT_NE(plan.summary().find("badrec"), std::string::npos);
    EXPECT_NE(plan.summary().find("rcrash"), std::string::npos);
}

TEST(FaultPlanParseTest, BoundaryProbabilitiesAreAccepted)
{
    EXPECT_DOUBLE_EQ(FaultPlan::parse("corrupt=0").chunk_corrupt_prob, 0.0);
    EXPECT_DOUBLE_EQ(FaultPlan::parse("corrupt=1").chunk_corrupt_prob, 1.0);
    EXPECT_FALSE(FaultPlan::parse("corrupt=0").enabled());
    EXPECT_TRUE(FaultPlan::parse("rcrash=1").enabled());
}

TEST(FaultPlanParseTest, RepeatedServerClausesAreAllowed)
{
    // "server" is the one legitimately repeatable key: each clause adds
    // another scheduled crash.
    FaultPlan plan = FaultPlan::parse("server=0@10,server=1@20+5");
    ASSERT_EQ(plan.server_crashes.size(), 2u);
    EXPECT_EQ(plan.server_crashes[0].server, 0u);
    EXPECT_EQ(plan.server_crashes[1].server, 1u);
}

TEST(FaultPlanParseTest, ParsesElasticFleetKeys)
{
    FaultPlan plan = FaultPlan::parse(
        "revoke=3@60,revoke=2@90+30,addsrv=4atom@45,drain=2@120");
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.changesFleet());
    ASSERT_EQ(plan.revocations.size(), 2u);
    EXPECT_EQ(plan.revocations[0].count, 3u);
    EXPECT_DOUBLE_EQ(plan.revocations[0].at, 60.0);
    EXPECT_LT(plan.revocations[0].down_for, 0.0) << "permanent by default";
    EXPECT_DOUBLE_EQ(plan.revocations[1].down_for, 30.0);
    ASSERT_EQ(plan.scale_outs.size(), 1u);
    EXPECT_EQ(plan.scale_outs[0].count, 4u);
    EXPECT_EQ(plan.scale_outs[0].server_class, "atom");
    EXPECT_DOUBLE_EQ(plan.scale_outs[0].at, 45.0);
    ASSERT_EQ(plan.drains.size(), 1u);
    EXPECT_EQ(plan.drains[0].count, 2u);
    EXPECT_DOUBLE_EQ(plan.drains[0].at, 120.0);
}

TEST(FaultPlanParseTest, ParsesDriverCrashKey)
{
    FaultPlan plan = FaultPlan::parse("dcrash=10,dcrash=45.5");
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.hasDriverCrash());
    EXPECT_FALSE(plan.changesFleet()) << "a driver kill is not a fleet "
                                         "membership change";
    ASSERT_EQ(plan.driver_crashes.size(), 2u);
    EXPECT_DOUBLE_EQ(plan.driver_crashes[0], 10.0);
    EXPECT_DOUBLE_EQ(plan.driver_crashes[1], 45.5);
    EXPECT_NE(plan.summary().find("dcrash"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse("").hasDriverCrash());
}

TEST(FaultPlanRoundTripTest, SpecRegeneratesAnEquivalentPlan)
{
    const std::vector<std::string> specs = {
        "",
        "crash=0.25",
        "crash=0.1,corrupt=0.05,badrec=0.01,rcrash=0.2",
        "straggler=0.3:5",
        "straggler=0.3:5:0.7",
        "server=2@150,server=0@10+25",
        "crash=0.5,straggler=0.1:8:0.25,server=4@99.5+3.5,seed=777",
        "seed=42",
        "revoke=3@60",
        "revoke=2@10+30,addsrv=4atom@90,drain=2@120",
        "crash=0.1,revoke=1@5.5,addsrv=2xeon@7.25,drain=1@9,seed=3",
        "dcrash=12.5",
        "crash=0.2,dcrash=10,dcrash=45.25,seed=11",
    };
    for (const std::string& spec : specs) {
        FaultPlan plan = FaultPlan::parse(spec);
        // spec() must itself parse, and the reparsed plan must be
        // field-identical — that makes every logged plan replayable.
        FaultPlan again = FaultPlan::parse(plan.spec());
        EXPECT_EQ(plan.task_crash_prob, again.task_crash_prob) << spec;
        EXPECT_EQ(plan.reduce_crash_prob, again.reduce_crash_prob) << spec;
        EXPECT_EQ(plan.chunk_corrupt_prob, again.chunk_corrupt_prob)
            << spec;
        EXPECT_EQ(plan.bad_record_prob, again.bad_record_prob) << spec;
        EXPECT_EQ(plan.straggler_prob, again.straggler_prob) << spec;
        EXPECT_EQ(plan.straggler_factor, again.straggler_factor) << spec;
        EXPECT_EQ(plan.straggler_sigma, again.straggler_sigma) << spec;
        EXPECT_EQ(plan.seed, again.seed) << spec;
        ASSERT_EQ(plan.server_crashes.size(), again.server_crashes.size())
            << spec;
        for (size_t i = 0; i < plan.server_crashes.size(); ++i) {
            EXPECT_EQ(plan.server_crashes[i].server,
                      again.server_crashes[i].server)
                << spec;
            EXPECT_EQ(plan.server_crashes[i].at,
                      again.server_crashes[i].at)
                << spec;
            EXPECT_EQ(plan.server_crashes[i].down_for,
                      again.server_crashes[i].down_for)
                << spec;
        }
        ASSERT_EQ(plan.revocations.size(), again.revocations.size())
            << spec;
        for (size_t i = 0; i < plan.revocations.size(); ++i) {
            EXPECT_EQ(plan.revocations[i].count,
                      again.revocations[i].count)
                << spec;
            EXPECT_EQ(plan.revocations[i].at, again.revocations[i].at)
                << spec;
            EXPECT_EQ(plan.revocations[i].down_for,
                      again.revocations[i].down_for)
                << spec;
        }
        ASSERT_EQ(plan.scale_outs.size(), again.scale_outs.size()) << spec;
        for (size_t i = 0; i < plan.scale_outs.size(); ++i) {
            EXPECT_EQ(plan.scale_outs[i].count, again.scale_outs[i].count)
                << spec;
            EXPECT_EQ(plan.scale_outs[i].server_class,
                      again.scale_outs[i].server_class)
                << spec;
            EXPECT_EQ(plan.scale_outs[i].at, again.scale_outs[i].at)
                << spec;
        }
        ASSERT_EQ(plan.drains.size(), again.drains.size()) << spec;
        for (size_t i = 0; i < plan.drains.size(); ++i) {
            EXPECT_EQ(plan.drains[i].count, again.drains[i].count) << spec;
            EXPECT_EQ(plan.drains[i].at, again.drains[i].at) << spec;
        }
        ASSERT_EQ(plan.driver_crashes.size(), again.driver_crashes.size())
            << spec;
        for (size_t i = 0; i < plan.driver_crashes.size(); ++i) {
            EXPECT_EQ(plan.driver_crashes[i], again.driver_crashes[i])
                << spec;
        }
        // And spec() must be canonical: serializing twice is a fixpoint.
        EXPECT_EQ(plan.spec(), again.spec()) << spec;
    }
    EXPECT_EQ(FaultPlan{}.spec(), "");
}

TEST(FaultPlanRoundTripTest, EveryParserKeyAppearsInSummaryAndHelp)
{
    // A key the parser accepts but the summary or help text omits is a
    // key users can neither discover nor see in logs. Build a plan that
    // exercises every key so summary() has a reason to mention each.
    FaultPlan plan = FaultPlan::parse(
        "crash=0.1,corrupt=0.2,badrec=0.3,rcrash=0.4,"
        "straggler=0.5:4,server=1@50,revoke=2@60,addsrv=3atom@70,"
        "drain=1@80,dcrash=85,seed=9");
    const std::string summary = plan.summary();
    const std::string help = FaultPlan::helpText();
    for (const std::string& key : FaultPlan::specKeys()) {
        EXPECT_NE(summary.find(key), std::string::npos)
            << "summary() omits parser key '" << key << "': " << summary;
        EXPECT_NE(help.find(key), std::string::npos)
            << "helpText() omits parser key '" << key << "'";
    }
}

}  // namespace
}  // namespace approxhadoop::ft
