/**
 * @file
 * Instant-recovery benchmark: time-to-first-get after a power failure
 * with a large WAL backlog, full replay (instant_recovery=off, the
 * constructor scans the segment digests into the recovery index and
 * drains it before returning) vs instant recovery (the constructor
 * only scans; the first get replays just its covering frames on
 * demand while a background job drains the rest with the same
 * frame-apply routine).
 *
 * Methodology: populate a store whose MemTable never flushes (its cap
 * exceeds the WAL target), so at the crash the ENTIRE dataset is
 * pending WAL replay -- the worst case the paper's O(1)-recovery
 * claim targets. Both modes recover an identically-built image (same
 * seed, fresh devices per leg). The headline metric is
 * open_to_first_get: constructor latency plus the first read, i.e.
 * how long a client waits before the store answers. A sharded leg
 * reopens the same backlog split across N shards whose recovery
 * indexes build concurrently on the shared pool.
 *
 * --json=<path> emits a machine-readable record
 * (scripts/bench_recovery.sh wraps this to seed BENCH_recovery.json);
 * --smoke shrinks the backlog for scripts/check.sh;
 * --wal_bytes=N sets the backlog (the acceptance bar runs >=256 MB).
 */
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/reporter.h"
#include "kv/store_stats.h"
#include "miodb/miodb.h"
#include "shard/sharded_miodb.h"
#include "util/clock.h"
#include "util/flags.h"
#include "util/random.h"

using namespace mio;
using namespace mio::bench;
using namespace mio::miodb;

namespace {

struct RecoveryRun {
    std::string mode;  //!< "full", "instant", "instant-<N>shard"
    int shards = 1;
    uint64_t wal_bytes = 0;
    uint64_t ops = 0;
    double open_ms = 0;
    double first_get_ms = 0;
    double gets100_ms = 0;
    double drain_ms = 0;
    uint64_t frames_replayed = 0;
    uint64_t frames_on_demand = 0;
};

MioOptions
backlogOptions(uint64_t wal_bytes)
{
    MioOptions o;
    // MemTable cap above the WAL target: nothing flushes, so the whole
    // dataset is still in the WAL at the crash.
    o.memtable_size = wal_bytes * 2;
    return o;
}

uint64_t
opsFor(uint64_t wal_bytes, size_t value_size)
{
    // Rough per-op WAL footprint: 16B key + value + framing.
    return wal_bytes / (16 + value_size + 24);
}

/** Build + power-fail one store; the WAL holds the whole dataset. */
void
populateCrashed(const MioOptions &opts, sim::NvmDevice *nvm,
                wal::WalRegistry *registry,
                std::shared_ptr<NvmState> *state, uint64_t n_ops,
                size_t value_size)
{
    MioDB db(opts, nvm, nullptr, registry);
    *state = db.nvmState();
    Random rnd(0x5EED);
    std::string value;
    rnd.fillString(&value, value_size);
    for (uint64_t i = 0; i < n_ops; i++) {
        // Vary a prefix so values are not byte-identical.
        value.replace(0, 8, makeKey(i, 8));
        if (!db.put(Slice(makeKey(rnd.uniform(n_ops))), Slice(value))
                 .isOk()) {
            fprintf(stderr, "populate failed at op %llu\n",
                    (unsigned long long)i);
            break;
        }
    }
    db.simulateCrash();
}

RecoveryRun
runSingle(bool instant, uint64_t wal_bytes, size_t value_size)
{
    sim::NvmDevice nvm(sim::MemoryPerfModel::optaneDefault());
    nvm.setCrashShadow(true);
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    const uint64_t n_ops = opsFor(wal_bytes, value_size);
    MioOptions opts = backlogOptions(wal_bytes);
    populateCrashed(opts, &nvm, &registry, &state, n_ops, value_size);
    nvm.discardUnpersisted();

    opts.instant_recovery = instant;
    RecoveryRun r;
    r.mode = instant ? "instant" : "full";
    r.wal_bytes = wal_bytes;
    r.ops = n_ops;

    Stopwatch open_sw;
    MioDB db(opts, &nvm, nullptr, &registry, state);
    r.open_ms = open_sw.elapsedMicros() / 1e3;

    Random rnd(0x9E77);
    std::string v;
    Stopwatch get_sw;
    (void)db.get(Slice(makeKey(rnd.uniform(n_ops))), &v);
    r.first_get_ms = get_sw.elapsedMicros() / 1e3;

    Stopwatch gets_sw;
    for (int i = 0; i < 100; i++)
        (void)db.get(Slice(makeKey(rnd.uniform(n_ops))), &v);
    r.gets100_ms = gets_sw.elapsedMicros() / 1e3;

    Stopwatch drain_sw;
    db.waitIdle();
    r.drain_ms = drain_sw.elapsedMicros() / 1e3;

    const StatsSnapshot s = snapshotOf(db.stats());
    r.frames_replayed = s.wal_frames_replayed;
    r.frames_on_demand = s.wal_frames_on_demand;
    return r;
}

RecoveryRun
runSharded(int shards, uint64_t wal_bytes, size_t value_size)
{
    sim::NvmDevice nvm(sim::MemoryPerfModel::optaneDefault());
    nvm.setCrashShadow(true);
    std::shared_ptr<shard::ShardSetState> state;
    const uint64_t n_ops = opsFor(wal_bytes, value_size);
    // Per-shard budget: the facade convention divides machine-wide
    // caps by the shard count.
    MioOptions opts = backlogOptions(wal_bytes / shards);
    {
        shard::ShardedMioDB db(opts, shards, &nvm);
        state = db.shardSetState();
        Random rnd(0x5EED);
        std::string value;
        rnd.fillString(&value, value_size);
        for (uint64_t i = 0; i < n_ops; i++) {
            value.replace(0, 8, makeKey(i, 8));
            if (!db.put(Slice(makeKey(rnd.uniform(n_ops))),
                        Slice(value))
                     .isOk())
                break;
        }
        db.simulateCrash();
    }
    nvm.discardUnpersisted();

    opts.instant_recovery = true;
    RecoveryRun r;
    r.mode = "instant-" + std::to_string(shards) + "shard";
    r.shards = shards;
    r.wal_bytes = wal_bytes;
    r.ops = n_ops;

    Stopwatch open_sw;
    shard::ShardedMioDB db(opts, shards, &nvm, nullptr, state);
    r.open_ms = open_sw.elapsedMicros() / 1e3;

    Random rnd(0x9E77);
    std::string v;
    Stopwatch get_sw;
    (void)db.get(Slice(makeKey(rnd.uniform(n_ops))), &v);
    r.first_get_ms = get_sw.elapsedMicros() / 1e3;

    Stopwatch gets_sw;
    for (int i = 0; i < 100; i++)
        (void)db.get(Slice(makeKey(rnd.uniform(n_ops))), &v);
    r.gets100_ms = gets_sw.elapsedMicros() / 1e3;

    Stopwatch drain_sw;
    db.waitIdle();
    r.drain_ms = drain_sw.elapsedMicros() / 1e3;

    const StatsSnapshot s = snapshotOf(db.stats());
    r.frames_replayed = s.wal_frames_replayed;
    r.frames_on_demand = s.wal_frames_on_demand;
    return r;
}

void
writeJson(const std::string &path, uint64_t wal_bytes,
          size_t value_size, const std::vector<RecoveryRun> &runs)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"micro_recovery\",\n";
    out << "  \"config\": {\"wal_bytes\": " << wal_bytes
        << ", \"value_size\": " << value_size << "},\n  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); i++) {
        const RecoveryRun &r = runs[i];
        char line[512];
        snprintf(line, sizeof(line),
                 "    {\"mode\": \"%s\", \"shards\": %d, "
                 "\"wal_bytes\": %llu, \"ops\": %llu, "
                 "\"open_ms\": %.3f, \"first_get_ms\": %.3f, "
                 "\"open_to_first_get_ms\": %.3f, "
                 "\"gets100_ms\": %.3f, \"drain_ms\": %.3f, "
                 "\"frames_replayed\": %llu, "
                 "\"frames_on_demand\": %llu}%s\n",
                 r.mode.c_str(), r.shards,
                 static_cast<unsigned long long>(r.wal_bytes),
                 static_cast<unsigned long long>(r.ops), r.open_ms,
                 r.first_get_ms, r.open_ms + r.first_get_ms,
                 r.gets100_ms, r.drain_ms,
                 static_cast<unsigned long long>(r.frames_replayed),
                 static_cast<unsigned long long>(r.frames_on_demand),
                 i + 1 < runs.size() ? "," : "");
        out << line;
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags(argc, argv);
    const bool smoke = flags.getBool("smoke", false);
    const uint64_t wal_bytes = static_cast<uint64_t>(
        flags.getInt("wal_bytes", smoke ? (2u << 20) : (32u << 20)));
    const size_t value_size =
        static_cast<size_t>(flags.getInt("value_size", 256));

    printExperimentHeader(
        "micro_recovery",
        "Time-to-first-get after a crash with the whole dataset "
        "pending WAL replay: full replay at open vs instant recovery "
        "(digest scan + on-demand frames + background drain)");

    std::vector<RecoveryRun> runs;
    runs.push_back(runSingle(/*instant=*/false, wal_bytes, value_size));
    runs.push_back(runSingle(/*instant=*/true, wal_bytes, value_size));
    for (int shards : smoke ? std::vector<int>{2}
                            : std::vector<int>{2, 4})
        runs.push_back(runSharded(shards, wal_bytes, value_size));

    TableReporter tbl(
        "Recovery timeline (one crashed image per leg, same seed)",
        {"mode", "ops", "open ms", "1st get ms", "open+get ms",
         "100 gets ms", "drain ms", "replayed", "ondemand"});
    for (const RecoveryRun &r : runs) {
        tbl.addRow({r.mode, std::to_string(r.ops),
                    TableReporter::num(r.open_ms, 2),
                    TableReporter::num(r.first_get_ms, 3),
                    TableReporter::num(r.open_ms + r.first_get_ms, 2),
                    TableReporter::num(r.gets100_ms, 2),
                    TableReporter::num(r.drain_ms, 2),
                    std::to_string(r.frames_replayed),
                    std::to_string(r.frames_on_demand)});
    }
    tbl.print();

    const double full_ttfg = runs[0].open_ms + runs[0].first_get_ms;
    const double inst_ttfg = runs[1].open_ms + runs[1].first_get_ms;
    const double speedup = inst_ttfg > 0 ? full_ttfg / inst_ttfg : 0;
    printf("\nopen-to-first-get: full %.2f ms vs instant %.2f ms "
           "(%.1fx); the acceptance bar (>=256 MB WAL via "
           "scripts/bench_recovery.sh --wal_bytes=268435456) "
           "requires >=10x.\n",
           full_ttfg, inst_ttfg, speedup);

    if (flags.has("json"))
        writeJson(flags.getString("json", ""), wal_bytes, value_size,
                  runs);
    return 0;
}
