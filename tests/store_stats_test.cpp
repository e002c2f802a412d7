/** @file Stats schema: every MIO_STATS_FIELDS row round-trips through
 *  loadInto/snapshotOf and follows its kind under statsDelta and
 *  statsAdd; toString is derived from the same table. */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "kv/store_stats.h"
#include "sched/background_scheduler.h"

namespace mio {
namespace {

void
flatten(std::vector<uint64_t> *out, uint64_t v)
{
    out->push_back(v);
}

template <class T, size_t N>
void
flatten(std::vector<uint64_t> *out, const T (&v)[N])
{
    for (const T &e : v)
        flatten(out, e);
}

/** Every word of a scalar or (nested) array field, in order. */
template <class T>
std::vector<uint64_t>
words(const T &field)
{
    std::vector<uint64_t> w;
    flatten(&w, field);
    return w;
}

void
fill(uint64_t &v, uint64_t *next, uint64_t step)
{
    v = *next;
    *next += step;
}

template <class T, size_t N>
void
fill(T (&v)[N], uint64_t *next, uint64_t step)
{
    for (T &e : v)
        fill(e, next, step);
}

/** A snapshot whose words are base, base+step, base+2*step, ... in
 *  table order, so a value landing in the wrong field shows. */
StatsSnapshot
patterned(uint64_t base, uint64_t step)
{
    StatsSnapshot s;
    uint64_t next = base;
#define FILL_ROW(name, kind, dims, doc) fill(s.name, &next, step);
    MIO_STATS_FIELDS(FILL_ROW)
#undef FILL_ROW
    return s;
}

// Every word of `big` exceeds the same word of `small`.
const StatsSnapshot big = patterned(1'000'000, 7);
const StatsSnapshot small = patterned(1'000, 3);

TEST(StatsSchemaTest, LoadIntoThenSnapshotOfRoundTrips)
{
    StatsCounters c;
    loadInto(big, &c);
    const StatsSnapshot got = snapshotOf(c);
#define CHECK_ROUND_TRIP(name, kind, dims, doc) \
    EXPECT_EQ(words(got.name), words(big.name)) << #name;
    MIO_STATS_FIELDS(CHECK_ROUND_TRIP)
#undef CHECK_ROUND_TRIP
}

/** Expected statsDelta(a, b) word for a field of @p kind. */
uint64_t
expectedDelta(StatsKind kind, uint64_t a, uint64_t b)
{
    return kind == StatsKind::kCounter ? a - b : a;
}

/** Expected statsAdd word for a field of @p kind. */
uint64_t
expectedAdd(StatsKind kind, uint64_t acc, uint64_t b)
{
    return kind == StatsKind::kMax ? std::max(acc, b) : acc + b;
}

void
checkRow(const char *name, StatsKind kind, const std::vector<uint64_t> &a,
         const std::vector<uint64_t> &b, const std::vector<uint64_t> &got,
         uint64_t (*expected)(StatsKind, uint64_t, uint64_t))
{
    ASSERT_EQ(got.size(), a.size()) << name;
    for (size_t i = 0; i < a.size(); i++)
        EXPECT_EQ(got[i], expected(kind, a[i], b[i])) << name << "[" << i
                                                      << "]";
}

TEST(StatsSchemaTest, DeltaFollowsKind)
{
    const StatsSnapshot d = statsDelta(big, small);
#define CHECK_DELTA(name, kind, dims, doc)                                \
    checkRow(#name, StatsKind::kind, words(big.name), words(small.name), \
             words(d.name), expectedDelta);
    MIO_STATS_FIELDS(CHECK_DELTA)
#undef CHECK_DELTA
}

TEST(StatsSchemaTest, AddFollowsKind)
{
    // Both orders: a max must win whichever side holds the larger
    // reading, where "keep the first" or "take the last" would not.
    StatsSnapshot small_then_big = small;
    statsAdd(&small_then_big, big);
    StatsSnapshot big_then_small = big;
    statsAdd(&big_then_small, small);
#define CHECK_ADD(name, kind, dims, doc)                                  \
    checkRow(#name, StatsKind::kind, words(small.name), words(big.name), \
             words(small_then_big.name), expectedAdd);                   \
    checkRow(#name, StatsKind::kind, words(big.name), words(small.name), \
             words(big_then_small.name), expectedAdd);
    MIO_STATS_FIELDS(CHECK_ADD)
#undef CHECK_ADD
}

TEST(StatsSchemaTest, RecoveryTimestampsAggregateByMax)
{
    StatsSnapshot shard0;
    shard0.recovery_ms_to_ready = 40;
    shard0.recovery_ms_to_drained = 900;
    StatsSnapshot shard1;
    shard1.recovery_ms_to_ready = 75;
    shard1.recovery_ms_to_drained = 300;
    StatsSnapshot machine;
    statsAdd(&machine, shard0);
    statsAdd(&machine, shard1);
    EXPECT_EQ(machine.recovery_ms_to_ready, 75u);
    EXPECT_EQ(machine.recovery_ms_to_drained, 900u);
}

TEST(StatsSchemaTest, ToStringSummaryThenNonzeroScalarsThenClasses)
{
    StatsSnapshot s;
    s.user_bytes_written = 100;
    s.wal_bytes_written = 100;
    s.storage_bytes_written = 200;
    s.groups_committed = 2;
    s.group_writers = 5;
    s.cache_hits = 3;
    s.cache_misses = 1;
    s.write_stalls = 4;
    s.group_size_hist[1] = 9;
    const int flush = static_cast<int>(sched::JobClass::kFlush);
    s.sched_submitted[flush] = 2;
    s.sched_completed[flush] = 2;
    const std::string out = s.toString();
    EXPECT_EQ(out.rfind("WA=3.00x avg_group=2.50 cache_hit_rate=0.750", 0),
              0u)
        << out;
    EXPECT_NE(out.find(" write_stalls=4"), std::string::npos) << out;
    EXPECT_NE(out.find(" cache_hits=3"), std::string::npos) << out;
    // Zero scalars and arrays stay out of the scalar list.
    EXPECT_EQ(out.find("busy_rejections"), std::string::npos) << out;
    EXPECT_EQ(out.find("group_size_hist"), std::string::npos) << out;
    // One line per job class with submissions, none for idle ones.
    EXPECT_NE(out.find("\n  flush sched_submitted=2 sched_completed=2 "
                       "sched_dropped=0"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("\n  lcm"), std::string::npos) << out;
}

TEST(StatsSchemaTest, JobClassNamesComeFromOneList)
{
    for (int j = 0; j < StatsCounters::kJobClasses; j++) {
        EXPECT_STREQ(sched::jobClassName(static_cast<sched::JobClass>(j)),
                     kJobClassNames[j]);
    }
    EXPECT_STREQ(sched::jobClassName(sched::JobClass::kMemTuner),
                 "memtune");
}

} // namespace
} // namespace mio
