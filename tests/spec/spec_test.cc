/**
 * @file
 * The shared grammar layer (src/common/spec.h): strict numbers, the
 * exponent-free double formatter, and the clause and flag walkers'
 * error contract (prefix, key, grammar in every message).
 */
#include "common/spec.h"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace approxhadoop::spec {
namespace {

struct Knobs
{
    double ratio = 0.5;
    uint64_t count = 0;
    std::vector<uint64_t> events;
    bool flag = false;
};

const Table<Knobs>&
table()
{
    static const Table<Knobs> kTable = {
        {"ratio", "R", "a ratio",
         [](Knobs& k, const std::string& v) {
             k.ratio = Real{"a ratio", 0.0, 1.0, true}.read(v);
         },
         [](const Knobs& k, std::vector<std::string>& out) {
             out.push_back(formatDouble(k.ratio));
         }},
        {"count", "N", "a count",
         [](Knobs& k, const std::string& v) {
             k.count = Count{"an integer", 1, 10}.read(v);
         }},
        {"event", "E", "an event (repeatable)",
         [](Knobs& k, const std::string& v) {
             k.events.push_back(Count{"an id"}.read(v));
         },
         [](const Knobs& k, std::vector<std::string>& out) {
             for (uint64_t e : k.events) {
                 out.push_back(std::to_string(e));
             }
         },
         true},
        toggle("--flag", "a switch", &Knobs::flag),
    };
    return kTable;
}

std::string
errorOf(const std::string& text)
{
    Knobs k;
    try {
        parse(text, table(), k, "knobs:");
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(SpecTest, SplitKeepsEmptyFields)
{
    EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("x+", '+'), (std::vector<std::string>{"x", ""}));
}

TEST(SpecTest, FormatDoubleIsShortestRoundTripWithoutExponent)
{
    for (double v : {0.0, -0.0, 1.0, 500.0, 0.1, 99.5, 1e-7, 1e17, 1e300,
                     0.2784012311366493, 6.5957246944977825}) {
        std::string s = formatDouble(v);
        EXPECT_EQ(s.find_first_of("eE+"), std::string::npos) << s;
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    EXPECT_EQ(formatDouble(500.0), "500");
    EXPECT_EQ(formatDouble(-0.0), "0");
    EXPECT_EQ(formatDouble(0.1), "0.1");
    EXPECT_EQ(formatDouble(1e-7), "0.0000001");
}

TEST(SpecTest, NumbersAreStrict)
{
    const Real ratio{"a ratio", 0.0, 1.0, true};
    EXPECT_DOUBLE_EQ(ratio.read("1"), 1.0);
    EXPECT_DOUBLE_EQ(ratio.read(".25"), 0.25);
    for (const char* bad : {"0", "1.5", "+0.5", " 0.5", "0.5 ", "0.5x", "",
                            "nan", "inf", "1e999", "0x1p-2"}) {
        EXPECT_THROW(ratio.read(bad), BadValue) << bad;
    }
    const Count small{"an integer", 1, 1024};
    EXPECT_EQ(small.read("1024"), 1024u);
    for (const char* bad : {"0", "1025", "+2", " 40", "-1", "1.9", "1e3",
                            "", "99999999999999999999"}) {
        EXPECT_THROW(small.read(bad), BadValue) << bad;
    }
    EXPECT_EQ(Count{"a seed"}.read("18446744073709551615"),
              18446744073709551615ull);
}

TEST(SpecTest, GrammarTextFollowsTheRange)
{
    EXPECT_EQ((Real{"a ratio", 0.0, 1.0, true}.text()), "a ratio in (0, 1]");
    EXPECT_EQ((Real{"a rate", 0.0,
                    std::numeric_limits<double>::infinity(), true}
                   .text()),
              "a rate > 0");
    EXPECT_EQ((Real{"a time"}.text()), "a time");
    EXPECT_EQ((Count{"an integer", 1}.text()), "an integer >= 1");
    EXPECT_EQ((Count{"an integer", 1, 1024}.text()),
              "an integer in [1, 1024]");
    EXPECT_EQ((Count{"a non-negative integer"}.text()),
              "a non-negative integer");
}

TEST(SpecTest, CountedTermSplitsCountAndName)
{
    auto [count, name] = countedTerm("10xeon", Count{"a count", 1}, "NAME");
    EXPECT_EQ(count, 10u);
    EXPECT_EQ(name, "xeon");
    for (const char* bad : {"xeon", "10", "", "0xeon", "-3xeon"}) {
        EXPECT_THROW(countedTerm(bad, Count{"a count", 1}, "NAME"), BadValue)
            << bad;
    }
}

TEST(SpecTest, ClauseWalkerReportsEveryMistakeWithPrefixAndKey)
{
    struct Case
    {
        const char* text;
        const char* message;
    };
    const std::vector<Case> cases = {
        {"ratio=2", "knobs: ratio wants a ratio in (0, 1], got '2'"},
        {"count=0", "knobs: count wants an integer in [1, 10], got '0'"},
        {"ratio", "knobs: clause is not key=value: 'ratio'"},
        {"ratio=0.5,,count=1", "knobs: empty clause ''"},
        {"bogus=1", "knobs: unknown key 'bogus'"},
        {"=1", "knobs: unknown key ''"},
        {"count=1,count=2", "knobs: duplicate key 'count'"},
    };
    for (const Case& c : cases) {
        EXPECT_EQ(errorOf(c.text), c.message) << c.text;
    }
    EXPECT_EQ(errorOf("event=1,event=2,ratio=1"), "") << "event repeats";
}

TEST(SpecTest, EmitRoundTripsThroughParse)
{
    Knobs k;
    parse("event=3,ratio=0.25,event=4,count=7", table(), k, "knobs:");
    EXPECT_EQ(k.count, 7u);
    // count has no emit function, so it is not part of the canonical form.
    EXPECT_EQ(emit(table(), k), "ratio=0.25,event=3,event=4");
    Knobs again;
    parse(emit(table(), k), table(), again, "knobs:");
    EXPECT_EQ(emit(table(), again), emit(table(), k));
    EXPECT_EQ(keys(table()),
              (std::vector<std::string>{"ratio", "count", "event", "--flag"}));
}

TEST(SpecTest, HelpAlignsEveryVisibleRow)
{
    EXPECT_EQ(help(table(), 12),
              "  ratio=R   a ratio\n"
              "  count=N   a count\n"
              "  event=E   an event (repeatable)\n"
              "  --flag    a switch\n");
}

TEST(SpecTest, FlagWalkerTakesValuesSwitchesAndRejectsTheRest)
{
    Table<Knobs> flags = {
        {"--count", "N", "a count",
         [](Knobs& k, const std::string& v) {
             k.count = Count{"an integer", 1, 10}.read(v);
         }},
        toggle("--flag", "a switch", &Knobs::flag),
    };
    flags.back().resume = true;
    auto run = [&flags](std::vector<const char*> args, bool resume) {
        args.insert(args.begin(), "prog");
        Knobs k;
        bool ok = parseFlags(static_cast<int>(args.size()),
                             const_cast<char**>(args.data()), 1, flags, k,
                             resume);
        return ok ? static_cast<int>(k.count) + (k.flag ? 100 : 0) : -1;
    };
    EXPECT_EQ(run({"--count", "3", "--flag"}, false), 103);
    EXPECT_EQ(run({"--count", "3", "--count", "4"}, false), 4) << "last wins";
    EXPECT_EQ(run({"--count", "+3"}, false), -1);
    EXPECT_EQ(run({"--count"}, false), -1) << "missing value";
    EXPECT_EQ(run({"--bogus"}, false), -1);
    EXPECT_EQ(run({"positional"}, false), -1) << "no positional row";
    EXPECT_EQ(run({"--flag"}, true), 100);
    EXPECT_EQ(run({"--count", "3"}, true), -1) << "not a resume flag";
}

}  // namespace
}  // namespace approxhadoop::spec
