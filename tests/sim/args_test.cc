/** @file Unit tests for command-line parsing. */

#include <gtest/gtest.h>

#include <limits>

#include "sim/args.hh"

namespace
{

using gs::Args;

Args
parse(std::initializer_list<const char *> argv_list)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>("prog"));
    for (const char *a : argv_list)
        argv.push_back(const_cast<char *>(a));
    return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesKeyValue)
{
    auto args = parse({"--cpus=16", "--name=torus"});
    EXPECT_EQ(args.getInt("cpus", 0), 16);
    EXPECT_EQ(args.getString("name", ""), "torus");
}

TEST(Args, DefaultsWhenAbsent)
{
    auto args = parse({});
    EXPECT_EQ(args.getInt("cpus", 8), 8);
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 1.5), 1.5);
    EXPECT_FALSE(args.has("cpus"));
}

TEST(Args, BareFlagIsTrue)
{
    auto args = parse({"--verbose"});
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_TRUE(args.has("verbose"));
}

TEST(Args, FalseSpellings)
{
    EXPECT_FALSE(parse({"--x=0"}).getBool("x", true));
    EXPECT_FALSE(parse({"--x=false"}).getBool("x", true));
    EXPECT_FALSE(parse({"--x=no"}).getBool("x", true));
    EXPECT_TRUE(parse({"--x=1"}).getBool("x", false));
}

TEST(Args, DoubleParsing)
{
    auto args = parse({"--frac=0.25"});
    EXPECT_DOUBLE_EQ(args.getDouble("frac", 0), 0.25);
}

TEST(Args, IntegerBasesAndSigns)
{
    auto args = parse({"--a=0x10", "--b=-3", "--c=+7"});
    EXPECT_EQ(args.getInt("a", 0), 16);
    EXPECT_EQ(args.getInt("b", 0), -3);
    EXPECT_EQ(args.getInt("c", 0), 7);
}

TEST(Args, InRangeValuesPass)
{
    auto args = parse({"--jobs=0", "--threads=4", "--frac=1"});
    EXPECT_EQ(args.getInt("jobs", 0, 0), 0);
    EXPECT_EQ(args.getInt("threads", 1, 1, 64), 4);
    EXPECT_DOUBLE_EQ(args.getDouble("frac", 0, 0.0, 1.0), 1.0);
    // Defaults are the caller's choice and never range-checked.
    EXPECT_EQ(args.getInt("absent", -1, 0), -1);
}

TEST(Args, ParseIntegerIsGetIntsCheck)
{
    std::int64_t v = 0;
    EXPECT_TRUE(Args::parseInteger("0x10", &v));
    EXPECT_EQ(v, 16);
    EXPECT_TRUE(Args::parseInteger("-3", &v));
    EXPECT_EQ(v, -3);
    for (const char *bad : {"", "2junk", "x", "99999999999999999999"})
        EXPECT_FALSE(Args::parseInteger(bad, &v)) << bad;
    EXPECT_EQ(v, -3) << "a rejected field leaves the output alone";
}

using ArgsDeathTest = testing::Test;

TEST_F(ArgsDeathTest, TrailingGarbageInIntegerIsFatal)
{
    EXPECT_EXIT(parse({"--seed=abc"}).getInt("seed", 1),
                testing::ExitedWithCode(1),
                "fatal: --seed=abc: expected an integer");
    EXPECT_EXIT(parse({"--cpus=16x"}).getInt("cpus", 8),
                testing::ExitedWithCode(1),
                "fatal: --cpus=16x: expected an integer");
    EXPECT_EXIT(parse({"--cpus="}).getInt("cpus", 8),
                testing::ExitedWithCode(1), "fatal: --cpus=: expected");
    EXPECT_EXIT(parse({"--seed=99999999999999999999"}).getInt("seed", 1),
                testing::ExitedWithCode(1), "expected an integer");
}

TEST_F(ArgsDeathTest, TrailingGarbageInDoubleIsFatal)
{
    EXPECT_EXIT(parse({"--frac=0.5.1"}).getDouble("frac", 0),
                testing::ExitedWithCode(1),
                "fatal: --frac=0.5.1: expected a number");
    EXPECT_EXIT(parse({"--frac=nan"}).getDouble("frac", 0),
                testing::ExitedWithCode(1),
                "fatal: --frac=nan: expected a number");
}

TEST_F(ArgsDeathTest, OutOfRangeIsFatal)
{
    constexpr auto intMax = std::numeric_limits<int>::max();
    EXPECT_EXIT(parse({"--jobs=-3"}).getInt("jobs", 0, 0, intMax),
                testing::ExitedWithCode(1),
                "fatal: --jobs=-3: expected a value in \\[0, 2147483647\\]");
    EXPECT_EXIT(parse({"--threads=0"}).getInt("threads", 1, 1, intMax),
                testing::ExitedWithCode(1),
                "fatal: --threads=0: expected a value in \\[1, ");
    EXPECT_EXIT(parse({"--seed=-1"}).getInt("seed", 1, 0),
                testing::ExitedWithCode(1),
                "fatal: --seed=-1: expected a value >= 0");
    EXPECT_EXIT(parse({"--frac=1.5"}).getDouble("frac", 0, 0.0, 1.0),
                testing::ExitedWithCode(1),
                "fatal: --frac=1.5: expected a value in \\[0, 1\\]");
}

} // namespace
