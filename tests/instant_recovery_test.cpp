/** @file Instant recovery: serving traffic while the WAL replays.
 *
 *  Every test crashes a populated store (power-fail semantics: crash
 *  shadow + discardUnpersisted), reopens it with instant_recovery on,
 *  and exercises the store WHILE WAL frames are still pending:
 *
 *   - reads/scans/snapshots must return exactly the pre-crash model
 *     before background replay drains (on-demand replay correctness);
 *   - new puts/deletes must supersede any frame replayed later
 *     (sequence-number supersession, no stale resurrection);
 *   - a paused background replay plus heavy merge traffic must not
 *     resurrect a deleted key whose tombstone replayed early and
 *     whose older put replays late (the tombstone-reclaim gate);
 *   - the sharded facade must serve mid-recovery, propagate one
 *     shard's recovery crash machine-wide, and unwind a parallel
 *     shard build whose recovery crashed;
 *   - randomized seeds interleave all of the above against a model.
 *
 *  Deterministic scheduling (0 workers) pins the store in the
 *  "serving while recovering" state: background replay only
 *  assist-runs inside waitIdle, so frames drain exactly when a test
 *  asks -- by foreground on-demand replay or an explicit waitIdle.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kv/store_stats.h"
#include "miodb/miodb.h"
#include "shard/sharded_miodb.h"
#include "sim/failpoint.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

MioOptions
recoveryOptions(bool ssd_mode, bool deterministic)
{
    MioOptions o;
    o.memtable_size = 8 << 10;  // rotate + flush often
    o.elastic_levels = 2;
    o.max_immutable_memtables = 4;
    o.value_separation_threshold = 16;
    o.vlog_segment_bytes = 4 << 10;
    o.vlog_gc_trigger_ratio = 0.95;
    o.instant_recovery = true;
    o.deterministic_background = deterministic;
    if (ssd_mode) {
        o.use_ssd_repository = true;
        o.ssd_lsm.sstable_target_size = 8 << 10;
        o.ssd_lsm.level1_max_bytes = 32 << 10;
    }
    return o;
}

using Model = std::map<std::string, std::string>;

/** Scripted pre-crash workload; returns the acked model. Ops use the
 *  fixed-width makeKey space so scans order like the model. */
Model
populate(KVStore *db, uint64_t seed, int n_ops, int key_space,
         std::set<std::string> *keys)
{
    Random rnd(seed);
    Model m;
    for (int i = 0; i < n_ops; i++) {
        if (rnd.oneIn(8)) {
            WriteBatch batch;
            int len = 3 + static_cast<int>(rnd.uniform(4));
            std::vector<std::pair<bool, std::pair<std::string,
                                                  std::string>>> items;
            for (int j = 0; j < len; j++) {
                std::string key = makeKey(rnd.uniform(key_space));
                if (rnd.oneIn(6)) {
                    batch.remove(Slice(key));
                    items.push_back({false, {key, ""}});
                } else {
                    std::string val = "s" + std::to_string(seed) + "-" +
                                      std::to_string(i) + "." +
                                      std::to_string(j) + "-";
                    std::string filler;
                    rnd.fillString(&filler, 24 + rnd.uniform(24));
                    val += filler;
                    batch.put(Slice(key), Slice(val));
                    items.push_back({true, {key, val}});
                }
            }
            EXPECT_TRUE(db->write(batch).isOk());
            for (auto &[is_put, kv] : items) {
                keys->insert(kv.first);
                if (is_put)
                    m[kv.first] = kv.second;
                else
                    m.erase(kv.first);
            }
        } else {
            std::string key = makeKey(rnd.uniform(key_space));
            keys->insert(key);
            if (rnd.oneIn(6)) {
                EXPECT_TRUE(db->remove(Slice(key)).isOk());
                m.erase(key);
            } else {
                std::string val = "s" + std::to_string(seed) + "-" +
                                  std::to_string(i) + "-";
                std::string filler;
                rnd.fillString(&filler, 24 + rnd.uniform(24));
                val += filler;
                EXPECT_TRUE(db->put(Slice(key), Slice(val)).isOk());
                m[key] = val;
            }
        }
    }
    return m;
}

void
expectModel(KVStore *db, const Model &m, const std::set<std::string> &keys,
            const std::string &label)
{
    for (const auto &key : keys) {
        std::string v;
        Status s = db->get(Slice(key), &v);
        auto it = m.find(key);
        if (it == m.end()) {
            EXPECT_TRUE(s.isNotFound())
                << label << ": key " << key << " should be absent, got "
                << (s.isOk() ? "a value" : s.toString());
        } else {
            ASSERT_TRUE(s.isOk())
                << label << ": key " << key << " lost: " << s.toString();
            EXPECT_EQ(v, it->second) << label << ": key " << key;
        }
    }
}

/** First @p count model entries with key >= @p start. */
std::vector<std::pair<std::string, std::string>>
modelScan(const Model &m, const std::string &start, int count)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = m.lower_bound(start);
         it != m.end() && static_cast<int>(out.size()) < count; ++it)
        out.push_back(*it);
    return out;
}

/** Crash-reopen fixture state for a single MioDB. */
struct CrashedStore {
    sim::NvmDevice nvm;
    sim::SsdDevice ssd;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    Model model;
    std::set<std::string> keys;
    MioOptions opts;

    /** Populate + power-fail; leaves WAL segments pending replay. */
    void
    crashPopulated(bool ssd_mode, uint64_t seed = 0xFEED, int n_ops = 500,
                   int key_space = 150)
    {
        nvm.setCrashShadow(true);
        opts = recoveryOptions(ssd_mode, /*deterministic=*/false);
        MioDB db(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry);
        state = db.nvmState();
        model = populate(&db, seed, n_ops, key_space, &keys);
        db.simulateCrash();
        // db destructs crashed (no flush); then drop unpersisted bytes.
    }

    std::unique_ptr<MioDB>
    reopen(bool deterministic)
    {
        nvm.discardUnpersisted();
        MioOptions ropts = opts;
        ropts.deterministic_background = deterministic;
        return std::make_unique<MioDB>(
            ropts, &nvm, opts.use_ssd_repository ? &ssd : nullptr,
            &registry, state);
    }
};

TEST(InstantRecoveryTest, GetsServeCorrectlyBeforeReplayDrains)
{
    for (bool ssd_mode : {false, true}) {
        SCOPED_TRACE(ssd_mode ? "ssd" : "pm");
        CrashedStore cs;
        cs.crashPopulated(ssd_mode);
        auto db = cs.reopen(/*deterministic=*/true);

        // Open is "ready" with frames still pending: nothing but the
        // index scan ran, and background replay cannot progress in
        // deterministic mode until waitIdle.
        ASSERT_GT(db->recoveryPendingFrames(), 0u);
        ASSERT_FALSE(db->recoveryDrained());
        auto s0 = snapshotOf(db->stats());
        EXPECT_GT(s0.recovery_pending_segments, 0u);

        // Every get must be correct NOW, via on-demand frame replay.
        expectModel(db.get(), cs.model, cs.keys, "before drain");
        auto s1 = snapshotOf(db->stats());
        EXPECT_GT(s1.wal_frames_on_demand, 0u);
        EXPECT_GE(s1.wal_frames_replayed, s1.wal_frames_on_demand);

        // Drain the rest in the background path and re-verify.
        db->waitIdle();
        EXPECT_TRUE(db->recoveryDrained());
        auto s2 = snapshotOf(db->stats());
        EXPECT_EQ(s2.recovery_pending_segments, 0u);
        EXPECT_GE(s2.recovery_ms_to_drained, s2.recovery_ms_to_ready);
        expectModel(db.get(), cs.model, cs.keys, "after drain");
    }
}

TEST(InstantRecoveryTest, PutsAndDeletesSupersedeReplay)
{
    CrashedStore cs;
    cs.crashPopulated(/*ssd_mode=*/false);
    auto db = cs.reopen(/*deterministic=*/true);
    ASSERT_GT(db->recoveryPendingFrames(), 0u);

    // Overwrite / delete keys whose frames have NOT replayed yet. The
    // new writes carry fresh sequences; late replay of the old frames
    // must not clobber them (supersession check in replayRecord).
    Model m = cs.model;
    int overwritten = 0, deleted = 0;
    for (const auto &key : cs.keys) {
        if (overwritten + deleted >= 40)
            break;
        if (overwritten <= deleted && cs.model.count(key) != 0U) {
            std::string nv = "new-" + key;
            ASSERT_TRUE(db->put(Slice(key), Slice(nv)).isOk());
            m[key] = nv;
            overwritten++;
        } else {
            ASSERT_TRUE(db->remove(Slice(key)).isOk());
            m.erase(key);
            deleted++;
        }
    }
    ASSERT_GT(overwritten, 0);
    ASSERT_GT(deleted, 0);

    expectModel(db.get(), m, cs.keys, "superseded before drain");
    db->waitIdle();  // late background replay of the old frames
    ASSERT_TRUE(db->recoveryDrained());
    expectModel(db.get(), m, cs.keys, "superseded after drain");
}

TEST(InstantRecoveryTest, FullReopenKeepsWritesMadeOverPendingFrames)
{
    // An instant-recovery instance takes writes over frames it never
    // replays, then closes cleanly: the writes are flushed, the old
    // frames stay in their segments. A default (full-replay) reopen
    // must not replay those frames on top of the newer versions.
    CrashedStore cs;
    cs.crashPopulated(/*ssd_mode=*/false);
    Model m = cs.model;
    {
        auto db = cs.reopen(/*deterministic=*/true);
        db->pauseBackgroundReplayForTesting(true);
        int written = 0;
        for (const auto &key : cs.keys) {
            if (written++ == 40)
                break;
            if (written % 2 == 0) {
                ASSERT_TRUE(db->put(Slice(key), Slice("new-" + key)).isOk());
                m[key] = "new-" + key;
            } else {
                ASSERT_TRUE(db->remove(Slice(key)).isOk());
                m.erase(key);
            }
        }
        ASSERT_GT(db->recoveryPendingFrames(), 0u);
    }
    MioOptions full = cs.opts;
    full.instant_recovery = false;
    MioDB db(full, &cs.nvm, nullptr, &cs.registry, cs.state);
    EXPECT_EQ(db.recoveryPendingFrames(), 0u);
    expectModel(&db, m, cs.keys, "full reopen");
}

TEST(InstantRecoveryTest, ScansSeeFullPrefixBeforeDrain)
{
    CrashedStore cs;
    cs.crashPopulated(/*ssd_mode=*/false);
    auto db = cs.reopen(/*deterministic=*/true);
    ASSERT_GT(db->recoveryPendingFrames(), 0u);

    // A scan's range is open-ended: on-demand replay must cover every
    // frame from the start key up, or the scan would miss keys whose
    // only copy still sits in the WAL.
    for (const std::string &start :
         {makeKey(0), makeKey(40), makeKey(120)}) {
        std::vector<std::pair<std::string, std::string>> got;
        ASSERT_TRUE(db->scan(Slice(start), 25, &got).isOk());
        auto want = modelScan(cs.model, start, 25);
        ASSERT_EQ(got.size(), want.size()) << "scan from " << start;
        for (size_t i = 0; i < want.size(); i++) {
            EXPECT_EQ(got[i].first, want[i].first) << "scan " << start;
            EXPECT_EQ(got[i].second, want[i].second) << "scan " << start;
        }
    }
    db->waitIdle();
    expectModel(db.get(), cs.model, cs.keys, "after drain");
}

TEST(InstantRecoveryTest, SnapshotForcesFullDrain)
{
    CrashedStore cs;
    cs.crashPopulated(/*ssd_mode=*/false);
    auto db = cs.reopen(/*deterministic=*/true);
    ASSERT_GT(db->recoveryPendingFrames(), 0u);

    // A snapshot pins "everything visible now" -- which must include
    // every acked pre-crash write, so getSnapshot drains all frames.
    Snapshot *snap = db->getSnapshot();
    EXPECT_TRUE(db->recoveryDrained());

    std::vector<std::pair<std::string, std::string>> got;
    ASSERT_TRUE(db->scanAt(snap, Slice(makeKey(0)), 1 << 20, &got).isOk());
    auto want = modelScan(cs.model, makeKey(0), 1 << 20);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
        EXPECT_EQ(got[i].first, want[i].first);
        EXPECT_EQ(got[i].second, want[i].second);
    }
    db->releaseSnapshot(snap);
}

TEST(InstantRecoveryTest, TombstoneNotResurrectedByLateReplay)
{
    // The layering hazard: frame B (put A, put Z, remove K) replays
    // EARLY (a get(A) pulls it in); frame A (the older put of K)
    // replays LATE. In between, merges push the tombstone down. The
    // late replay of K's old put must see the newer tombstone and
    // skip -- and the tombstone-reclaim gate must have kept that
    // tombstone findable while frames were pending.
    const std::string key_a = makeKey(10);
    const std::string key_k = makeKey(50);
    const std::string key_z = makeKey(90);

    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    MioOptions opts = recoveryOptions(/*ssd_mode=*/false,
                                      /*deterministic=*/false);
    {
        MioDB db(opts, &nvm, nullptr, &registry);
        state = db.nvmState();
        ASSERT_TRUE(db.put(Slice(key_k), Slice("k-old")).isOk());
        WriteBatch batch;
        batch.put(Slice(key_a), Slice("a-val"));
        batch.put(Slice(key_z), Slice("z-val"));
        batch.remove(Slice(key_k));
        ASSERT_TRUE(db.write(batch).isOk());
        db.simulateCrash();
    }
    nvm.discardUnpersisted();

    MioOptions ropts = opts;
    ropts.deterministic_background = true;
    MioDB db(ropts, &nvm, nullptr, &registry, state);
    ASSERT_GT(db.recoveryPendingFrames(), 0u);

    // get(A) on-demand replays the batch frame (and with it the
    // tombstone for K, at the batch's newer sequence).
    std::string v;
    ASSERT_TRUE(db.get(Slice(key_a), &v).isOk());
    EXPECT_EQ(v, "a-val");

    // Freeze background replay so K's old put frame stays pending,
    // then churn enough filler through the MemTable to flush and
    // merge the tombstone below the buffer levels.
    db.pauseBackgroundReplayForTesting(true);
    for (int i = 0; i < 400; i++) {
        std::string fk = "fill-" + makeKey(i);
        std::string fv;
        Random(i).fillString(&fv, 48);
        ASSERT_TRUE(db.put(Slice(fk), Slice(fv)).isOk());
    }
    db.waitIdle();  // drains flush/merge; paused replay is excluded
    ASSERT_GT(db.recoveryPendingFrames(), 0u)
        << "K's old frame should still be pending";

    // Late replay of K's old put: must NOT resurrect the key.
    EXPECT_TRUE(db.get(Slice(key_k), &v).isNotFound());

    db.pauseBackgroundReplayForTesting(false);
    db.waitIdle();
    EXPECT_TRUE(db.recoveryDrained());
    EXPECT_TRUE(db.get(Slice(key_k), &v).isNotFound());
    ASSERT_TRUE(db.get(Slice(key_z), &v).isOk());
    EXPECT_EQ(v, "z-val");
}

TEST(InstantRecoveryTest, RandomizedInterleavings)
{
    int seeds = 500;
    if (const char *env = getenv("MIO_RECOVERY_SEEDS"))
        seeds = atoi(env);

    for (int seed = 0; seed < seeds; seed++) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const bool ssd_mode = seed % 5 == 0;
        // Most seeds pin the mid-recovery state deterministically; a
        // quarter run threaded so background replay races the reads.
        const bool deterministic = seed % 4 != 0;

        CrashedStore cs;
        cs.crashPopulated(ssd_mode, /*seed=*/0x9E3779B9u + seed,
                          /*n_ops=*/120, /*key_space=*/60);
        auto db = cs.reopen(deterministic);

        std::vector<std::string> key_list(cs.keys.begin(),
                                          cs.keys.end());
        Model m = cs.model;
        Random rnd(seed * 2654435761u + 1);
        for (int op = 0; op < 80; op++) {
            const std::string &key =
                key_list[rnd.uniform(key_list.size())];
            uint64_t dice = rnd.uniform(100);
            if (dice < 50) {
                std::string v;
                Status s = db->get(Slice(key), &v);
                auto it = m.find(key);
                if (it == m.end()) {
                    ASSERT_TRUE(s.isNotFound()) << key;
                } else {
                    ASSERT_TRUE(s.isOk()) << key << ": " << s.toString();
                    ASSERT_EQ(v, it->second) << key;
                }
            } else if (dice < 65) {
                std::vector<std::pair<std::string, std::string>> got;
                ASSERT_TRUE(db->scan(Slice(key), 5, &got).isOk());
                auto want = modelScan(m, key, 5);
                ASSERT_EQ(got.size(), want.size()) << "scan " << key;
                for (size_t i = 0; i < want.size(); i++) {
                    ASSERT_EQ(got[i].first, want[i].first);
                    ASSERT_EQ(got[i].second, want[i].second);
                }
            } else if (dice < 90) {
                std::string nv =
                    "r" + std::to_string(seed) + "-" + std::to_string(op);
                ASSERT_TRUE(db->put(Slice(key), Slice(nv)).isOk());
                m[key] = nv;
            } else {
                ASSERT_TRUE(db->remove(Slice(key)).isOk());
                m.erase(key);
            }
        }
        db->waitIdle();
        ASSERT_TRUE(db->recoveryDrained());
        expectModel(db.get(), m, cs.keys, "final");
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(InstantRecoveryTest, ConcurrentReadsDuringBackgroundReplay)
{
    // Threaded reopen: background replay drains on workers while four
    // reader threads hammer gets and scans. Values must always match
    // the model (on-demand and background replay race for the same
    // frames; memoization + seq dedup make that safe). TSan leg runs
    // this with full instrumentation.
    CrashedStore cs;
    cs.crashPopulated(/*ssd_mode=*/false, /*seed=*/0xABCD, /*n_ops=*/600);
    auto db = cs.reopen(/*deterministic=*/false);

    std::vector<std::string> key_list(cs.keys.begin(), cs.keys.end());
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; t++) {
        readers.emplace_back([&, t] {
            Random rnd(0xBEEF + t);
            for (int i = 0; i < 300; i++) {
                const std::string &key =
                    key_list[rnd.uniform(key_list.size())];
                auto it = cs.model.find(key);
                if (rnd.oneIn(5)) {
                    std::vector<std::pair<std::string, std::string>> got;
                    if (!db->scan(Slice(key), 4, &got).isOk()) {
                        mismatches.fetch_add(1);
                        continue;
                    }
                    auto want = modelScan(cs.model, key, 4);
                    if (got != want)
                        mismatches.fetch_add(1);
                } else {
                    std::string v;
                    Status s = db->get(Slice(key), &v);
                    bool ok = it == cs.model.end()
                                  ? s.isNotFound()
                                  : (s.isOk() && v == it->second);
                    if (!ok)
                        mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto &r : readers)
        r.join();
    EXPECT_EQ(mismatches.load(), 0);
    db->waitIdle();
    EXPECT_TRUE(db->recoveryDrained());
    expectModel(db.get(), cs.model, cs.keys, "after concurrent reads");
}

// ---- sharded facade -------------------------------------------------

/** Populate a sharded facade and power-fail it. */
struct CrashedShardSet {
    sim::NvmDevice nvm;
    sim::SsdDevice ssd;
    std::shared_ptr<shard::ShardSetState> state;
    Model model;
    std::set<std::string> keys;
    MioOptions opts;
    int num_shards = 4;

    void
    crashPopulated(uint64_t seed = 0xD15C)
    {
        nvm.setCrashShadow(true);
        opts = recoveryOptions(/*ssd_mode=*/false,
                               /*deterministic=*/false);
        shard::ShardedMioDB db(opts, num_shards, &nvm);
        state = db.shardSetState();
        model = populate(&db, seed, 600, 200, &keys);
        db.simulateCrash();
    }
};

TEST(InstantRecoveryTest, ShardedServesDuringRecovery)
{
    CrashedShardSet cs;
    cs.crashPopulated();
    cs.nvm.discardUnpersisted();

    MioOptions ropts = cs.opts;
    ropts.deterministic_background = true;
    shard::ShardedMioDB db(ropts, cs.num_shards, &cs.nvm, nullptr,
                           cs.state);
    ASSERT_GT(db.recoveryPendingFrames(), 0u);
    ASSERT_FALSE(db.recoveryDrained());

    // Facade reads route to shards mid-recovery; each shard on-demand
    // replays its own WAL stream.
    expectModel(&db, cs.model, cs.keys, "sharded before drain");
    uint64_t on_demand = 0;
    for (int i = 0; i < db.numShards(); i++)
        on_demand += snapshotOf(db.shardAt(i).stats())
                         .wal_frames_on_demand;
    EXPECT_GT(on_demand, 0u);

    db.waitIdle();
    EXPECT_TRUE(db.recoveryDrained());
    auto sum = snapshotOf(db.stats());
    EXPECT_EQ(sum.recovery_pending_segments, 0u);
    expectModel(&db, cs.model, cs.keys, "sharded after drain");
}

TEST(InstantRecoveryTest, ShardedCrashPropagationMidRecovery)
{
    auto &fp = sim::FailpointRegistry::instance();
    fp.disarmAll();

    CrashedShardSet cs;
    cs.crashPopulated();
    cs.nvm.discardUnpersisted();
    {
        MioOptions ropts = cs.opts;
        ropts.deterministic_background = true;
        shard::ShardedMioDB db(ropts, cs.num_shards, &cs.nvm, nullptr,
                               cs.state);
        ASSERT_GT(db.recoveryPendingFrames(), 0u);

        // One shard's on-demand replay power-fails; the machine-wide
        // crash model requires EVERY shard to freeze with it.
        fp.armCrash("recovery.on_demand", 1);
        std::string v;
        for (const auto &key : cs.keys) {
            (void)db.get(Slice(key), &v);
            if (fp.fired("recovery.on_demand"))
                break;
        }
        EXPECT_TRUE(fp.fired("recovery.on_demand"));
        EXPECT_TRUE(db.hasCrashed());
        fp.disarmAll();
        db.simulateCrash();
    }

    // Third open over the doubly-crashed image must still serve the
    // full model (un-replayed segments stayed durable).
    cs.nvm.discardUnpersisted();
    shard::ShardedMioDB db2(cs.opts, cs.num_shards, &cs.nvm, nullptr,
                            cs.state);
    expectModel(&db2, cs.model, cs.keys, "after propagated crash");
}

TEST(InstantRecoveryTest, ShardedParallelBuildUnwind)
{
    auto &fp = sim::FailpointRegistry::instance();
    fp.disarmAll();

    CrashedShardSet cs;
    cs.crashPopulated();
    cs.nvm.discardUnpersisted();

    // Threaded reopen builds shards concurrently on the shared pool;
    // an index-scan crash in ANY shard must unwind the whole facade
    // (constructor throws) while keeping every durable image intact.
    fp.armCrash("recovery.index.build", 2);
    bool threw = false;
    try {
        shard::ShardedMioDB db(cs.opts, cs.num_shards, &cs.nvm, nullptr,
                               cs.state);
    } catch (const sim::SimCrash &crash) {
        threw = true;
        EXPECT_EQ(crash.point(), "recovery.index.build");
    }
    EXPECT_TRUE(threw);
    fp.disarmAll();

    cs.nvm.discardUnpersisted();
    shard::ShardedMioDB db2(cs.opts, cs.num_shards, &cs.nvm, nullptr,
                            cs.state);
    expectModel(&db2, cs.model, cs.keys, "after build unwind");
    db2.waitIdle();
    EXPECT_TRUE(db2.recoveryDrained());
}

} // namespace
} // namespace mio::miodb
