#include "kv/store_stats.h"

#include <algorithm>
#include <cstdio>

namespace mio {

namespace {

// Scalar leaf of each fieldwise operation. The array overloads below
// apply it elementwise, so every MIO_STATS_FIELDS row -- scalar or
// array -- expands to one call.

void
readField(uint64_t &out, const std::atomic<uint64_t> &in)
{
    out = in.load(std::memory_order_relaxed);
}

void
writeField(std::atomic<uint64_t> &out, uint64_t in)
{
    out.store(in, std::memory_order_relaxed);
}

void
deltaField(uint64_t &d, uint64_t a, uint64_t b, StatsKind kind)
{
    d = kind == StatsKind::kCounter ? a - b : a;
}

void
addField(uint64_t &acc, uint64_t b, StatsKind kind)
{
    acc = kind == StatsKind::kMax ? std::max(acc, b) : acc + b;
}

template <class D, class S, size_t N>
void
readField(D (&out)[N], const S (&in)[N])
{
    for (size_t i = 0; i < N; i++)
        readField(out[i], in[i]);
}

template <class D, class S, size_t N>
void
writeField(D (&out)[N], const S (&in)[N])
{
    for (size_t i = 0; i < N; i++)
        writeField(out[i], in[i]);
}

template <class T, size_t N>
void
deltaField(T (&d)[N], const T (&a)[N], const T (&b)[N], StatsKind kind)
{
    for (size_t i = 0; i < N; i++)
        deltaField(d[i], a[i], b[i], kind);
}

template <class T, size_t N>
void
addField(T (&acc)[N], const T (&b)[N], StatsKind kind)
{
    for (size_t i = 0; i < N; i++)
        addField(acc[i], b[i], kind);
}

void
appendf(std::string *out, const char *fmt, const char *name, uint64_t v)
{
    char buf[96];
    snprintf(buf, sizeof(buf), fmt, name,
             static_cast<unsigned long long>(v));
    *out += buf;
}

/** " name=value" for a nonzero scalar; arrays print per job class. */
void
appendScalar(std::string *out, const char *name, uint64_t v)
{
    if (v != 0)
        appendf(out, " %s=%llu", name, v);
}

template <class T, size_t N>
void
appendScalar(std::string *, const char *, const T (&)[N])
{
}

/** " name=value" of job class @p j for the per-class rows (those
 *  whose only dimension is kJobClasses); nothing for the rest. */
void
appendClassField(std::string *out, const char *name,
                 const uint64_t (&v)[StatsCounters::kJobClasses], int j)
{
    appendf(out, " %s=%llu", name, v[j]);
}

template <class T>
void
appendClassField(std::string *, const char *, const T &, int)
{
}

// Per-class rows are told apart from the other arrays by extent.
static_assert(StatsCounters::kGroupSizeBuckets != StatsCounters::kJobClasses);

} // namespace

StatsSnapshot
snapshotOf(const StatsCounters &c)
{
    StatsSnapshot s;
#define MIO_STATS_READ(name, kind, dims, doc) readField(s.name, c.name);
    MIO_STATS_FIELDS(MIO_STATS_READ)
#undef MIO_STATS_READ
    return s;
}

StatsSnapshot
statsDelta(const StatsSnapshot &a, const StatsSnapshot &b)
{
    StatsSnapshot d;
#define MIO_STATS_DELTA(name, kind, dims, doc) \
    deltaField(d.name, a.name, b.name, StatsKind::kind);
    MIO_STATS_FIELDS(MIO_STATS_DELTA)
#undef MIO_STATS_DELTA
    return d;
}

void
statsAdd(StatsSnapshot *acc, const StatsSnapshot &b)
{
#define MIO_STATS_ADD(name, kind, dims, doc) \
    addField(acc->name, b.name, StatsKind::kind);
    MIO_STATS_FIELDS(MIO_STATS_ADD)
#undef MIO_STATS_ADD
}

void
loadInto(const StatsSnapshot &s, StatsCounters *out)
{
#define MIO_STATS_WRITE(name, kind, dims, doc) writeField(out->name, s.name);
    MIO_STATS_FIELDS(MIO_STATS_WRITE)
#undef MIO_STATS_WRITE
}

std::string
StatsSnapshot::toString() const
{
    const uint64_t probes = cache_hits + cache_misses;
    char buf[128];
    snprintf(buf, sizeof(buf), "WA=%.2fx avg_group=%.2f cache_hit_rate=%.3f",
             writeAmplification(), averageGroupSize(),
             probes > 0 ? static_cast<double>(cache_hits) /
                              static_cast<double>(probes)
                        : 0.0);
    std::string out(buf);
#define MIO_STATS_SCALAR(name, kind, dims, doc) \
    appendScalar(&out, #name, name);
    MIO_STATS_FIELDS(MIO_STATS_SCALAR)
#undef MIO_STATS_SCALAR
    for (int j = 0; j < StatsCounters::kJobClasses; j++) {
        if (sched_submitted[j] == 0)
            continue;
        out += "\n  ";
        out += kJobClassNames[j];
#define MIO_STATS_CLASS(name, kind, dims, doc) \
    appendClassField(&out, #name, name, j);
        MIO_STATS_FIELDS(MIO_STATS_CLASS)
#undef MIO_STATS_CLASS
    }
    return out;
}

} // namespace mio
