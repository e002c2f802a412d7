/** @file Unit tests for Flags and clock utilities. */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "util/clock.h"
#include "util/flags.h"

namespace mio {
namespace {

TEST(FlagsTest, ParsesEqualsAndSpaceForms)
{
    const char *argv[] = {"prog",      "--alpha=1",  "--beta", "two",
                          "--gamma",   "--delta=3.5", "--size=4k"};
    Flags flags(7, const_cast<char **>(argv));
    EXPECT_TRUE(flags.has("alpha"));
    EXPECT_EQ(flags.getInt("alpha", 0), 1);
    EXPECT_EQ(flags.getString("beta", ""), "two");
    EXPECT_TRUE(flags.getBool("gamma", false));
    EXPECT_DOUBLE_EQ(flags.getDouble("delta", 0), 3.5);
    EXPECT_EQ(flags.getSize("size", 0), 4096u);
}

TEST(FlagsTest, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    Flags flags(1, const_cast<char **>(argv));
    EXPECT_FALSE(flags.has("missing"));
    EXPECT_EQ(flags.getInt("missing", 42), 42);
    EXPECT_EQ(flags.getString("missing", "dft"), "dft");
    EXPECT_TRUE(flags.getBool("missing", true));
    EXPECT_EQ(flags.getSize("missing", 7), 7u);
}

TEST(FlagsTest, SizeSuffixes)
{
    const char *argv[] = {"prog", "--a=2m", "--b=1g", "--c=512",
                          "--d=1.5k"};
    Flags flags(5, const_cast<char **>(argv));
    EXPECT_EQ(flags.getSize("a", 0), 2u << 20);
    EXPECT_EQ(flags.getSize("b", 0), 1u << 30);
    EXPECT_EQ(flags.getSize("c", 0), 512u);
    EXPECT_EQ(flags.getSize("d", 0), 1536u);
}

TEST(FlagsTest, BoolSpellings)
{
    const char *argv[] = {"prog", "--t1=true", "--t2=1", "--t3=yes",
                          "--f1=false", "--f2=0"};
    Flags flags(6, const_cast<char **>(argv));
    EXPECT_TRUE(flags.getBool("t1", false));
    EXPECT_TRUE(flags.getBool("t2", false));
    EXPECT_TRUE(flags.getBool("t3", false));
    EXPECT_FALSE(flags.getBool("f1", true));
    EXPECT_FALSE(flags.getBool("f2", true));
    const char *argv2[] = {"prog", "--f3=no"};
    EXPECT_FALSE(Flags(2, const_cast<char **>(argv2)).getBool("f3", true));
}

/** Parse a single --@p arg and read it back through @p get. */
template <class Get>
void
readOne(const char *arg, Get get)
{
    const char *argv[] = {"prog", arg};
    Flags flags(2, const_cast<char **>(argv));
    get(flags);
}

TEST(FlagsTest, MalformedValuesExitNamingTheFlag)
{
    auto fails = ::testing::ExitedWithCode(EXIT_FAILURE);
    EXPECT_EXIT(readOne("--dataset_bytes=banana",
                        [](const Flags &f) { f.getSize("dataset_bytes", 1); }),
                fails, "dataset_bytes");
    EXPECT_EXIT(readOne("--value_size=4q",
                        [](const Flags &f) { f.getSize("value_size", 1); }),
                fails, "value_size");
    EXPECT_EXIT(readOne("--value_size=k",
                        [](const Flags &f) { f.getSize("value_size", 1); }),
                fails, "value_size");
    EXPECT_EXIT(readOne("--value_size=-1k",
                        [](const Flags &f) { f.getSize("value_size", 1); }),
                fails, "value_size");
    EXPECT_EXIT(readOne("--keys=12abc",
                        [](const Flags &f) { f.getInt("keys", 1); }),
                fails, "keys");
    EXPECT_EXIT(readOne("--keys=",
                        [](const Flags &f) { f.getInt("keys", 1); }),
                fails, "keys");
    EXPECT_EXIT(readOne("--ratio=0.5x",
                        [](const Flags &f) { f.getDouble("ratio", 1); }),
                fails, "ratio");
    EXPECT_EXIT(readOne("--smoke=maybe",
                        [](const Flags &f) { f.getBool("smoke", false); }),
                fails, "smoke");
}

TEST(FlagsTest, WellFormedValuesStillParse)
{
    const char *argv[] = {"prog", "--n=-7", "--x=1e3", "--s=0.5m"};
    Flags flags(4, const_cast<char **>(argv));
    EXPECT_EQ(flags.getInt("n", 0), -7);
    EXPECT_DOUBLE_EQ(flags.getDouble("x", 0), 1000.0);
    EXPECT_EQ(flags.getSize("s", 0), 512u << 10);
    // getString never rejects: any text is a string.
    EXPECT_EQ(flags.getString("n", ""), "-7");
}

TEST(ClockTest, MonotonicAndStopwatch)
{
    uint64_t a = nowNanos();
    uint64_t b = nowNanos();
    EXPECT_GE(b, a);

    Stopwatch sw;
    spinFor(2'000'000);  // 2 ms
    EXPECT_GE(sw.elapsedNanos(), 1'800'000u);
    sw.reset();
    EXPECT_LT(sw.elapsedNanos(), 1'000'000u);
}

TEST(ClockTest, ScopedTimerAccumulates)
{
    std::atomic<uint64_t> bucket{0};
    {
        ScopedTimer t(&bucket);
        spinFor(1'000'000);
    }
    uint64_t first = bucket.load();
    EXPECT_GE(first, 900'000u);
    {
        ScopedTimer t(&bucket);
        spinFor(1'000'000);
    }
    EXPECT_GT(bucket.load(), first);
}

} // namespace
} // namespace mio
