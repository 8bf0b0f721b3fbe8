/**
 * @file
 * Tests for the declarative flag table.
 */

#include "simcore/flags.hh"

#include <gtest/gtest.h>

namespace qoserve {
namespace {

struct Opts
{
    bool verbose = false;
    int count = 4;
    std::uint64_t seed = 7;
    double rate = 0.5;
    std::vector<double> mix{};
    std::optional<std::string> out;
    int color = 0;
};

std::vector<flags::Flag>
table(Opts &o)
{
    return {
        flags::section("basics"),
        flags::toggle("--verbose", "talk more", o.verbose),
        flags::integer("--count", "N", "how many", o.count, 1, 10),
        flags::integer("--seed", "N", "seed", o.seed),
        flags::real("--rate", "X", "rate", o.rate,
                    {0.0, true, "must be in (0, 1]", 1.0}),
        flags::realList("--mix", "A,B", "fractions", o.mix),
        flags::text("--out", "FILE", "output", o.out),
        flags::choice("--color", "NAME", "color", o.color,
                      flags::Choices<int>{"color",
                                          {{"red", 0},
                                           {"crimson", 0},
                                           {"blue", 1}}}),
    };
}

TEST(Flags, ParsesEveryBindingAndRecordsWhatWasSeen)
{
    Opts o;
    std::set<std::string> seen = flags::parse(
        table(o), {"--verbose", "--count", "9", "--seed",
                   "18446744073709551615", "--rate", "1", "--mix",
                   "0.25,0.75", "--out", "x.csv", "--color", "blue"});
    EXPECT_EQ(seen.count("--help"), 0u);
    EXPECT_TRUE(o.verbose);
    EXPECT_EQ(o.count, 9);
    EXPECT_EQ(o.seed, 18446744073709551615u);
    EXPECT_DOUBLE_EQ(o.rate, 1.0);
    EXPECT_EQ(o.mix, (std::vector<double>{0.25, 0.75}));
    EXPECT_EQ(o.out, "x.csv");
    EXPECT_EQ(o.color, 1);
    EXPECT_EQ(seen.count("--rate"), 1u);
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Flags, HelpStopsParsing)
{
    Opts o;
    EXPECT_EQ(flags::parse(table(o), {"--count", "2", "-h", "--bogus"}),
              (std::set<std::string>{"--count", "--help"}));
}

TEST(Flags, UsageRendersHeadingsMetavarsAndDefaults)
{
    Opts o;
    std::string help = flags::usage("tool", table(o));
    EXPECT_NE(help.find("basics:\n"), std::string::npos);
    EXPECT_NE(help.find("--count N"), std::string::npos);
    EXPECT_NE(help.find("(default 4)"), std::string::npos);
    EXPECT_NE(help.find("(default 0.5)"), std::string::npos);
    // An alias lists among the names; the default shows the first.
    EXPECT_NE(help.find("red|crimson|blue (default red)"),
              std::string::npos);
    EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(Flags, MalformedValuesAreFatal)
{
    Opts o;
    auto t = table(o);
    EXPECT_DEATH(flags::parse(t, {"--nope"}), "unknown flag: --nope");
    EXPECT_DEATH(flags::parse(t, {"--count"}), "flag --count requires");
    EXPECT_DEATH(flags::parse(t, {"--count", "3x"}),
                 "flag --count: '3x' is not an integer");
    EXPECT_DEATH(flags::parse(t, {"--count", " 3"}),
                 "flag --count: ' 3' is not an integer");
    EXPECT_DEATH(flags::parse(t, {"--count", "11"}),
                 "flag --count must be in \\[1, 10\\], got 11");
    EXPECT_DEATH(flags::parse(t, {"--seed", "18446744073709551616"}),
                 "flag --seed must be in \\[0, 18446744073709551615\\]");
    EXPECT_DEATH(flags::parse(t, {"--seed", "-0"}),
                 "flag --seed must be non-negative");
    EXPECT_DEATH(flags::parse(t, {"--rate", "0"}),
                 "flag --rate must be in \\(0, 1\\], got 0");
    EXPECT_DEATH(flags::parse(t, {"--rate", "1e999"}),
                 "flag --rate: '1e999' is not a finite number");
    EXPECT_DEATH(flags::parse(t, {"--mix", "0.5,nan"}),
                 "flag --mix: 'nan' is not a finite number");
    EXPECT_DEATH(flags::parse(t, {"--color", "green"}),
                 "flag --color: unknown color: green "
                 "\\(red\\|crimson\\|blue\\)");
}

TEST(Flags, ChoiceLookupAndEmptyList)
{
    flags::Choices<int> c{"color", {{"red", 0}, {"blue", 1}}};
    EXPECT_EQ(c.lookup("blue"), 1);
    EXPECT_EQ(c.nameOf(1), "blue");
    EXPECT_EQ(c.nameOf(5), "");
    EXPECT_DEATH(c.lookup("green"), "unknown color: green");

    Opts o;
    o.mix = {1.0};
    flags::parse(table(o), {"--mix", ""});
    EXPECT_TRUE(o.mix.empty());
}

} // namespace
} // namespace qoserve
