/**
 * @file
 * Table-driven black-box tests of the approxrun CLI contract: malformed
 * flag values and unknown workloads must exit 2 and explain themselves
 * (flag grammar, valid workload list), retry exhaustion must exit 3,
 * and a clean run must exit 0. Drives the real binary (APPROXRUN_BIN,
 * injected by CMake) through popen.
 */
#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/aggregation_registry.h"

namespace {

struct RunResult
{
    int exit_code = -1;
    std::string output;  // stdout + stderr interleaved
};

RunResult
runApproxrun(const std::string& args)
{
    RunResult out;
    std::string cmd = std::string(APPROXRUN_BIN) + " " + args + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return out;
    }
    char buf[512];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
        out.output += buf;
    }
    int status = pclose(pipe);
    out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return out;
}

struct CliCase
{
    const char* args;
    int expected_exit;
    const char* required_substring;  // must appear in the output
    const char* why;
};

TEST(ApproxrunCliTest, MalformedInvocationsExitTwoWithGrammar)
{
    const std::vector<CliCase> cases = {
        // Unknown workloads: exit 2 plus the valid list so the user can
        // self-correct without reading the source.
        {"nosuchapp", 2, "projectpop", "unknown app lists workloads"},
        {"nosuchapp", 2, "wikilength", "list is registry-complete"},
        {"nosuchapp", 2, "dcplacement", "non-aggregation apps listed"},
        // Malformed numeric values: atof-style garbage-to-zero is a
        // silent experiment change; must be rejected with the grammar.
        {"projectpop --sampling 0..1", 2, "(0, 1]", "double typo"},
        {"projectpop --sampling abc", 2, "(0, 1]", "non-numeric ratio"},
        {"projectpop --sampling 1.5", 2, "(0, 1]", "ratio above one"},
        {"projectpop --sampling 0", 2, "(0, 1]", "zero sampling"},
        {"projectpop --drop 1", 2, "[0, 1)", "drop ratio of one"},
        {"projectpop --target -0.1", 2, "> 0", "negative target"},
        {"projectpop --target nan", 2, "> 0", "NaN target"},
        {"projectpop --confidence 1", 2, "(0, 1)", "degenerate CI"},
        {"projectpop --blocks 0", 2, ">= 1", "zero blocks"},
        {"projectpop --blocks -5", 2, ">= 1", "negative blocks"},
        {"projectpop --blocks 12x", 2, ">= 1", "trailing garbage"},
        {"projectpop --items 0", 2, ">= 1", "zero items"},
        {"projectpop --reducers 0", 2, "[1, 1024]", "zero reducers"},
        {"projectpop --reducers 5000", 2, "[1, 1024]", "too many"},
        {"projectpop --threads 0", 2, "[1, 1024]", "zero threads"},
        // Integers are digits only: strtoull-style leading signs and
        // whitespace are rejected like any other garbage.
        {"projectpop --threads +2", 2, "[1, 1024]", "signed thread count"},
        {"projectpop --blocks ' +40'", 2, ">= 1", "space-signed blocks"},
        {"projectpop --seed -1", 2, "non-negative", "negative seed"},
        {"projectpop --seed 1e9", 2, "non-negative", "float seed"},
        {"projectpop --cluster foo", 2, "xeon10", "unknown cluster"},
        {"projectpop --cluster 10xeon+0atom", 2, "xeon10",
         "zero-count class in mixed fleet"},
        {"projectpop --cluster 4bogus", 2, "xeon10",
         "unknown class in fleet spec"},
        {"projectpop --max-attempts 0", 2, "[1, 1000000]",
         "zero attempts"},
        {"projectpop --checkpoint-interval x", 2, "non-negative",
         "garbage interval"},
        {"projectpop --heartbeat-interval 0", 2, "> 0", "zero period"},
        {"projectpop --pilot 80", 2, "N:R", "pilot without colon"},
        {"projectpop --pilot 0:0.5", 2, "N:R", "zero pilot maps"},
        {"projectpop --pilot 80:2", 2, "N:R", "pilot ratio above one"},
        {"projectpop --user-defined 1.5", 2, "[0, 1]", "fraction > 1"},
        {"projectpop --failure-mode panic", 2, "", "unknown mode"},
        {"projectpop --top -1", 2, "non-negative", "negative top"},
        {"projectpop --seed", 2, "missing value", "flag without value"},
        {"projectpop --frobnicate", 2, "unknown option", "unknown flag"},
        // Malformed fault plans re-print the full spec grammar.
        {"projectpop --fault-plan bogus=1", 2, "straggler",
         "unknown plan key shows grammar"},
        {"projectpop --fault-plan crash=1.5", 2, "crash",
         "out-of-range probability shows grammar"},
    };
    for (const CliCase& c : cases) {
        RunResult r = runApproxrun(c.args);
        EXPECT_EQ(r.exit_code, c.expected_exit)
            << c.why << " — args: " << c.args << "\n"
            << r.output;
        EXPECT_NE(r.output.find(c.required_substring), std::string::npos)
            << c.why << " — args: " << c.args
            << "\nexpected substring '" << c.required_substring
            << "' in:\n"
            << r.output;
    }
}

TEST(ApproxrunCliTest, CleanRunExitsZero)
{
    RunResult r = runApproxrun(
        "projectpop --blocks 6 --items 8 --sampling 0.5 --seed 7");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("runtime"), std::string::npos) << r.output;
}

TEST(ApproxrunCliTest, ListWorkloadsPrintsRegistryAndExitsZero)
{
    // --list-workloads is the machine-discoverable registry dump the
    // service spec grammar points users at; it must stay in sync with
    // the registry (one row per workload) and exit 0 without running a
    // job.
    RunResult r = runApproxrun("--list-workloads");
    EXPECT_EQ(r.exit_code, 0) << r.output;

    struct ListCase
    {
        const char* required_substring;
        const char* why;
    };
    std::vector<ListCase> cases = {
        {"workload", "header row names the first column"},
        {"blocks", "header row names the shape columns"},
        {"sum", "op column is printed"},
    };
    for (const auto& w :
         approxhadoop::apps::aggregationWorkloads()) {
        cases.push_back({w.name.c_str(), "registry row present"});
    }
    for (const ListCase& c : cases) {
        EXPECT_NE(r.output.find(c.required_substring), std::string::npos)
            << c.why << " — expected '" << c.required_substring
            << "' in:\n"
            << r.output;
    }

    // One line per registry row plus the header: the listing is the
    // registry, not a curated subset.
    size_t lines = 0;
    for (char ch : r.output) {
        lines += ch == '\n' ? 1 : 0;
    }
    EXPECT_EQ(lines,
              approxhadoop::apps::aggregationWorkloads().size() + 1)
        << r.output;
}

TEST(ApproxrunCliTest, RetryExhaustionExitsThree)
{
    // crash=1 makes every attempt fail: with retry semantics the job
    // must abort with exit 3 (never hang, never exit 0).
    RunResult r = runApproxrun(
        "projectpop --blocks 4 --items 4 --seed 1 --max-attempts 2 "
        "--failure-mode retry --fault-plan crash=1");
    EXPECT_EQ(r.exit_code, 3) << r.output;
    EXPECT_NE(r.output.find("job failed"), std::string::npos) << r.output;
}

TEST(ApproxrunCliTest, MixedFleetElasticRunExitsZeroAndSelfChecks)
{
    // A revocation storm + scale-out + drain on a heterogeneous fleet
    // under absorb must finish, certify its own CI accounting
    // (--selfcheck), and report the fleet counters.
    RunResult r = runApproxrun(
        "projectpop --blocks 24 --items 40 --seed 11 "
        "--cluster 6xeon+6atom --failure-mode absorb --selfcheck "
        "--fault-plan revoke=3@4,addsrv=3atom@6,drain=2@9,seed=2");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("selfcheck"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("srv_revoked=3"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("srv_added=3"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("srv_drained=2"), std::string::npos)
        << r.output;
}

TEST(ApproxrunCliTest, ServerCrashOutsideFleetExitsTwoWithRange)
{
    // server=99 on a 10-server fleet is a config error, caught before
    // the job starts: exit 2 with the valid id range, not a mid-run
    // crash or a silently ignored clause.
    RunResult r = runApproxrun(
        "projectpop --blocks 4 --items 4 --fault-plan server=99@5");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("valid ids: 0..9"), std::string::npos)
        << r.output;
}

TEST(ApproxrunCliTest, ResumeFlagsFollowTheFreshRunValueRules)
{
    // The flags allowed after --resume are the same table rows as on a
    // fresh run, so their values are checked the same way: an empty
    // report path is rejected rather than silently writing no report.
    const std::string journal =
        ::testing::TempDir() + "approxrun_cli_resume.axj";
    RunResult record = runApproxrun(
        "projectpop --blocks 4 --items 4 --seed 3 --journal " + journal);
    ASSERT_EQ(record.exit_code, 0) << record.output;

    const std::vector<CliCase> cases = {
        {"--report-json ''", 2, "a file path", "empty report path"},
        {"--trace-out ''", 2, "a file path", "empty trace path"},
        {"--threads +2", 2, "[1, 1024]", "signed thread count"},
        {"--top", 2, "missing value", "flag without value"},
        {"--seed 3", 2, "cannot be combined with --resume",
         "journaled knob"},
    };
    for (const CliCase& c : cases) {
        RunResult r =
            runApproxrun("--resume " + journal + " " + c.args);
        EXPECT_EQ(r.exit_code, c.expected_exit)
            << c.why << " — args: " << c.args << "\n"
            << r.output;
        EXPECT_NE(r.output.find(c.required_substring), std::string::npos)
            << c.why << " — args: " << c.args
            << "\nexpected substring '" << c.required_substring
            << "' in:\n"
            << r.output;
    }
    RunResult ok =
        runApproxrun("--resume " + journal + " --threads 2 --top 1");
    EXPECT_EQ(ok.exit_code, 0) << ok.output;
    std::remove(journal.c_str());
}

TEST(ApproxrunCliTest, FaultPlanHelpMentionsEveryKey)
{
    RunResult r = runApproxrun("projectpop --fault-plan bogus=1");
    EXPECT_EQ(r.exit_code, 2);
    for (const char* key : {"crash", "rcrash", "straggler", "corrupt",
                            "badrec", "server", "revoke", "addsrv",
                            "drain", "seed"}) {
        EXPECT_NE(r.output.find(key), std::string::npos)
            << "fault-plan grammar omits key '" << key << "'";
    }
}

}  // namespace
