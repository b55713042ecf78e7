/**
 * @file
 * Golden strings for every user-visible spec rendering: FaultPlan::spec()
 * and summary(), the service specSummary() embedded in service reports,
 * ClusterConfig::spec(), and the chaos Scenario::describe() /
 * approxrunCommand() reproducers for scenarios 0-49 of family seed 1.
 * Reports, journals and reproducer commands embed these bytes, so a
 * change to any spec grammar must leave them untouched.
 */
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/scenario.h"
#include "ft/fault_plan.h"
#include "service/service_spec.h"
#include "sim/cluster.h"

namespace approxhadoop {
namespace {

TEST(SpecGoldenTest, FaultPlanSpecAndSummary)
{
    struct Case
    {
        const char* input;
        const char* spec;
        const char* summary;
    };
    const std::vector<Case> cases = {
        {"",
         "",
         "none"},
        {"crash=0.25",
         "crash=0.25",
         "crash=0.25 corrupt=0 badrec=0 rcrash=0 straggler=0:4 "
         "server-crashes=0 revoke=0 addsrv=0 drain=0 dcrash=0 seed=0"},
        {"crash=0.1,corrupt=0.05,badrec=0.01,rcrash=0.2",
         "crash=0.1,corrupt=0.05,badrec=0.01,rcrash=0.2",
         "crash=0.1 corrupt=0.05 badrec=0.01 rcrash=0.2 straggler=0:4 "
         "server-crashes=0 revoke=0 addsrv=0 drain=0 dcrash=0 seed=0"},
        {"straggler=0.3:5",
         "straggler=0.3:5",
         "crash=0 corrupt=0 badrec=0 rcrash=0 straggler=0.3:5 "
         "server-crashes=0 revoke=0 addsrv=0 drain=0 dcrash=0 seed=0"},
        {"straggler=0.3:5:0.7",
         "straggler=0.3:5:0.7",
         "crash=0 corrupt=0 badrec=0 rcrash=0 straggler=0.3:5 "
         "server-crashes=0 revoke=0 addsrv=0 drain=0 dcrash=0 seed=0"},
        {"server=2@150,server=0@10+25",
         "server=2@150,server=0@10+25",
         "crash=0 corrupt=0 badrec=0 rcrash=0 straggler=0:4 "
         "server-crashes=2 revoke=0 addsrv=0 drain=0 dcrash=0 seed=0"},
        {"crash=0.5,straggler=0.1:8:0.25,server=4@99.5+3.5,seed=777",
         "crash=0.5,straggler=0.1:8:0.25,server=4@99.5+3.5,seed=777",
         "crash=0.5 corrupt=0 badrec=0 rcrash=0 straggler=0.1:8 "
         "server-crashes=1 revoke=0 addsrv=0 drain=0 dcrash=0 seed=777"},
        {"seed=42",
         "seed=42",
         "none"},
        {"revoke=3@60",
         "revoke=3@60",
         "crash=0 corrupt=0 badrec=0 rcrash=0 straggler=0:4 "
         "server-crashes=0 revoke=1 addsrv=0 drain=0 dcrash=0 seed=0"},
        {"revoke=2@10+30,addsrv=4atom@90,drain=2@120",
         "revoke=2@10+30,addsrv=4atom@90,drain=2@120",
         "crash=0 corrupt=0 badrec=0 rcrash=0 straggler=0:4 "
         "server-crashes=0 revoke=1 addsrv=1 drain=1 dcrash=0 seed=0"},
        {"crash=0.1,revoke=1@5.5,addsrv=2xeon@7.25,drain=1@9,seed=3",
         "crash=0.1,revoke=1@5.5,addsrv=2xeon@7.25,drain=1@9,seed=3",
         "crash=0.1 corrupt=0 badrec=0 rcrash=0 straggler=0:4 "
         "server-crashes=0 revoke=1 addsrv=1 drain=1 dcrash=0 seed=3"},
        {"dcrash=12.5",
         "dcrash=12.5",
         "crash=0 corrupt=0 badrec=0 rcrash=0 straggler=0:4 "
         "server-crashes=0 revoke=0 addsrv=0 drain=0 dcrash=1 seed=0"},
        {"crash=0.2,dcrash=10,dcrash=45.25,seed=11",
         "crash=0.2,dcrash=10,dcrash=45.25,seed=11",
         "crash=0.2 corrupt=0 badrec=0 rcrash=0 straggler=0:4 "
         "server-crashes=0 revoke=0 addsrv=0 drain=0 dcrash=2 seed=11"},
    };
    for (const Case& c : cases) {
        ft::FaultPlan plan = ft::FaultPlan::parse(c.input);
        EXPECT_EQ(plan.spec(), c.spec) << c.input;
        EXPECT_EQ(plan.summary(), c.summary) << c.input;
    }
}

TEST(SpecGoldenTest, ServiceSpecSummary)
{
    // The last three are the bench_approx service_mixed spec (full and
    // smoke shapes) and the CI overload demo.
    struct Case
    {
        const char* input;
        const char* summary;
    };
    const std::vector<Case> cases = {
        {"",
         "tenants=2,arrival=0.02,duration=600,seed=42,blocks=24,"
         "items=16,reducers=1,target=0.05,pressure=3,degrade=2,"
         "maxscale=4,endgame=25,cluster=xeon10"},
        {"tenants=3,arrival=0.1,duration=900,seed=7,blocks=40,items=12,"
         "reducers=2,target=0.03,pressure=5,degrade=1.5,maxscale=6,"
         "endgame=30,preempt=1,defer=1,slo=120+300+0,"
         "workloads=wikilength+projectpop,cluster=atom60,"
         "straggler=0.2:6,crash=0.1",
         "tenants=3,arrival=0.1,duration=900,seed=7,blocks=40,items=12,"
         "reducers=2,target=0.03,pressure=5,degrade=1.5,maxscale=6,"
         "endgame=30,cluster=atom60,preempt=1,defer=1,faults=crash=0.1,"
         "straggler=0.2:6"},
        {"tenants=2,arrival=0.05,duration=600,seed=9,blocks=80,"
         "straggler=0.25:8",
         "tenants=2,arrival=0.05,duration=600,seed=9,blocks=80,items=16,"
         "reducers=1,target=0.05,pressure=3,degrade=2,maxscale=4,"
         "endgame=25,cluster=xeon10,faults=straggler=0.25:8"},
        {"seed=3",
         "tenants=2,arrival=0.02,duration=600,seed=3,blocks=24,items=16,"
         "reducers=1,target=0.05,pressure=3,degrade=2,maxscale=4,"
         "endgame=25,cluster=xeon10"},
        {"seed=3,preempt=1,defer=1",
         "tenants=2,arrival=0.02,duration=600,seed=3,blocks=24,items=16,"
         "reducers=1,target=0.05,pressure=3,degrade=2,maxscale=4,"
         "endgame=25,cluster=xeon10,preempt=1,defer=1"},
        {"preempt=0,defer=0",
         "tenants=2,arrival=0.02,duration=600,seed=42,blocks=24,"
         "items=16,reducers=1,target=0.05,pressure=3,degrade=2,"
         "maxscale=4,endgame=25,cluster=xeon10"},
        {"tenants=2,arrival=0.06,duration=800,blocks=60,items=8,"
         "reducers=2,target=0.05,pressure=2,degrade=2,maxscale=4,"
         "endgame=25,preempt=1,workloads=wikilength+projectpop",
         "tenants=2,arrival=0.06,duration=800,seed=42,blocks=60,items=8,"
         "reducers=2,target=0.05,pressure=2,degrade=2,maxscale=4,"
         "endgame=25,cluster=xeon10,preempt=1"},
        {"tenants=2,arrival=0.06,duration=200,blocks=24,items=8,"
         "reducers=2,target=0.05,pressure=2,degrade=2,maxscale=4,"
         "endgame=25,preempt=1,workloads=wikilength+projectpop",
         "tenants=2,arrival=0.06,duration=200,seed=42,blocks=24,items=8,"
         "reducers=2,target=0.05,pressure=2,degrade=2,maxscale=4,"
         "endgame=25,cluster=xeon10,preempt=1"},
        {"tenants=2,arrival=0.05,duration=500,seed=7,blocks=120,items=8,"
         "reducers=2,target=0.05,pressure=2,degrade=2,maxscale=4,"
         "endgame=25,slo=1000+0,workloads=wikilength",
         "tenants=2,arrival=0.05,duration=500,seed=7,blocks=120,items=8,"
         "reducers=2,target=0.05,pressure=2,degrade=2,maxscale=4,"
         "endgame=25,cluster=xeon10"},
    };
    for (const Case& c : cases) {
        EXPECT_EQ(service::specSummary(service::parseServiceSpec(c.input)),
                  c.summary)
            << c.input;
    }
}

TEST(SpecGoldenTest, ClusterSpec)
{
    EXPECT_EQ(sim::ClusterConfig::xeon10().spec(), "xeon10");
    EXPECT_EQ(sim::ClusterConfig::atom60().spec(), "atom60");
    EXPECT_EQ(sim::ClusterConfig::parse("xeon10").spec(), "xeon10");
    EXPECT_EQ(sim::ClusterConfig::parse("atom60").spec(), "atom60");
    EXPECT_EQ(sim::ClusterConfig::parse("60atom").spec(), "60atom");
    EXPECT_EQ(sim::ClusterConfig::parse("10xeon+20atom").spec(),
              "10xeon+20atom");
}

TEST(SpecGoldenTest, ChaosScenarioDescribeAndCommand)
{
    // chaos_golden.txt holds describe() then approxrunCommand(), one
    // line each, for scenarios 0..49 of family seed 1.
    std::ifstream in(SPEC_GOLDEN_DIR "/chaos_golden.txt");
    ASSERT_TRUE(in.good()) << "missing chaos_golden.txt";
    chaos::ScenarioGenerator generator(1);
    std::string describe;
    std::string command;
    uint64_t index = 0;
    while (std::getline(in, describe) && std::getline(in, command)) {
        chaos::Scenario s = generator.generate(index);
        EXPECT_EQ(s.describe(), describe) << index;
        EXPECT_EQ(s.approxrunCommand(), command) << index;
        ++index;
    }
    EXPECT_EQ(index, 50u);
}

}  // namespace
}  // namespace approxhadoop
