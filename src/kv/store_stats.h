/**
 * @file
 * Shared statistics counters every store implementation feeds; the
 * bench harness reads snapshots to reproduce the paper's cost
 * breakdowns (Table 1) and WA figures (Fig. 11).
 *
 * Every field is declared exactly once, as a row of
 * MIO_STATS_FIELDS. The live atomic counters, the plain snapshot and
 * every fieldwise operation on them (snapshotOf, statsDelta,
 * statsAdd, loadInto, toString) are expanded from that table, so a
 * new counter is one row and its kind decides how it is differenced
 * and aggregated.
 */
#ifndef MIO_KV_STORE_STATS_H_
#define MIO_KV_STORE_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

namespace mio {

/** How a field behaves under statsDelta and statsAdd. */
enum class StatsKind {
    /** Monotonic count: delta subtracts, add sums. */
    kCounter,
    /** Point-in-time reading: delta carries it, add sums (each gauge
     *  lives in exactly one sink, so summing never double-counts). */
    kGauge,
    /** Open-relative timestamp: delta carries it, add takes the max
     *  (a sharded machine is ready when its slowest shard is). */
    kMax,
};

/**
 * The stats schema. One row per field, in layout order:
 * X(name, kind, array dimensions (empty for scalars), doc).
 * Only block comments may appear between rows.
 */
#define MIO_STATS_FIELDS(X)                                               \
    /* -- stall accounting (paper Sec. 3.1 definitions) -- */            \
    X(interval_stall_ns, kCounter, ,                                     \
      "Writer fully blocked (immutable not yet flushed / L0 stop)")      \
    X(cumulative_stall_ns, kCounter, ,                                   \
      "Deliberate per-write slowdowns near trigger thresholds")          \
    /* -- flush path -- */                                               \
    X(flush_ns, kCounter, , "Time spent flushing MemTables")             \
    X(flush_count, kCounter, , "MemTables flushed")                      \
    X(flushed_bytes, kCounter, , "Bytes written by flushes")             \
    X(serialization_ns, kCounter, ,                                      \
      "Time spent serializing MemTable entries to table format")         \
    X(deserialization_ns, kCounter, ,                                    \
      "Time spent reading+decoding serialized blocks on the read path")  \
    /* -- traffic -- */                                                  \
    X(user_bytes_written, kCounter, , "User key+value bytes written")    \
    X(wal_bytes_written, kCounter, , "Bytes appended to the WAL")        \
    X(storage_bytes_written, kCounter, ,                                 \
      "Bytes written to storage by flushes + compactions")               \
    /* -- compaction -- */                                               \
    X(compaction_count, kCounter, , "Compactions (merges) completed")    \
    X(compaction_ns, kCounter, , "Time spent compacting")                \
    X(zero_copy_merges, kCounter, , "In-buffer zero-copy merges")        \
    X(lazy_copy_merges, kCounter, , "Lazy-copy merges into the repo")    \
    /* -- ops -- */                                                      \
    X(puts, kCounter, , "User puts")                                     \
    X(gets, kCounter, , "User gets")                                     \
    X(deletes, kCounter, , "User deletes")                               \
    X(scans, kCounter, , "User scans")                                   \
    X(bloom_filter_skips, kCounter, , "Tables skipped by their bloom")   \
    X(bloom_summary_skips, kCounter, ,                                   \
      "Whole buffer levels skipped by the per-level bloom summary")      \
    X(read_retries, kCounter, ,                                          \
      "Per-level lookup retries after a concurrent manifest publish")    \
    /* -- group commit (write pipeline) -- */                            \
    X(groups_committed, kCounter, ,                                      \
      "Commit groups published by a leader writer")                      \
    X(group_writers, kCounter, ,                                         \
      "Writer records committed through groups (>= groups_committed)")   \
    X(wal_appends_saved, kCounter, ,                                     \
      "WAL record appends avoided by combining writers into groups")     \
    X(group_size_hist, kCounter, [StatsCounters::kGroupSizeBuckets],     \
      "Log2-ish buckets of writers-per-group: 1, 2, 3-4, 5-8, ...")      \
    /* -- media-fault tolerance (NVM watermarks, scrubber, retries) -- */ \
    X(write_slowdowns, kCounter, ,                                       \
      "Writes slowed down above the soft NVM watermark")                 \
    X(write_stalls, kCounter, ,                                          \
      "Writers that entered a bounded hard-watermark stall")             \
    X(busy_rejections, kCounter, ,                                       \
      "Writes rejected with Status::busy after a stall timed out")       \
    X(scrub_passes, kCounter, , "Scrubber passes completed")             \
    X(scrub_bytes, kCounter, ,                                           \
      "Payload bytes whose checksums the scrubber verified")             \
    X(corruptions_detected, kCounter, ,                                  \
      "Checksum mismatches found (scrubber or read-path verify)")        \
    X(tables_quarantined, kCounter, ,                                    \
      "PMTables/SSTables quarantined after a checksum mismatch")         \
    X(ssd_io_retries, kCounter, ,                                        \
      "Transient SSD I/O errors absorbed by retry-with-backoff")         \
    X(wal_corrupt_frames, kCounter, ,                                    \
      "WAL frames dropped by recovery as corrupt (torn/flipped)")        \
    /* -- snapshots (incremented at pin, decremented at release;      */ \
    /*    nonzero at close means a leaked pin) -- */                     \
    X(snapshots_live, kGauge, , "Snapshots currently held by callers")   \
    X(snapshots_pinned_manifests, kGauge, ,                              \
      "Level manifests (and table sets) pinned by live snapshots")       \
    /* -- value log (key-value separation) -- */                         \
    X(vlog_appends, kCounter, ,                                          \
      "Values separated into the NVM value log at write time")           \
    X(vlog_appended_bytes, kCounter, ,                                   \
      "Payload bytes appended to the value log (user + GC traffic)")     \
    X(vlog_deref_reads, kCounter, ,                                      \
      "Pointer dereferences served by the value log on reads/scans")     \
    X(vlog_gc_passes, kCounter, ,                                        \
      "GC passes that examined at least one victim segment")             \
    X(vlog_gc_relocated_bytes, kCounter, ,                               \
      "Live bytes GC re-appended to the head segment")                   \
    X(vlog_gc_reclaimed_bytes, kCounter, ,                               \
      "Segment capacity returned to the device by GC unlinks")           \
    X(vlog_segments_created, kCounter, , "Value-log segments created")   \
    X(vlog_segments_unlinked, kCounter, , "Value-log segments unlinked") \
    X(vlog_segments_live, kGauge, , "Segments currently holding data")   \
    /* -- instant recovery (WAL replay after open) -- */                 \
    X(wal_frames_replayed, kCounter, ,                                   \
      "WAL frames applied by replay (background + on-demand)")           \
    X(wal_frames_on_demand, kCounter, ,                                  \
      "Frames replayed synchronously to answer a blocked get/scan")      \
    X(recovery_pending_segments, kGauge, ,                               \
      "Pre-crash segments still holding unreplayed frames")              \
    X(recovery_ms_to_ready, kMax, ,                                      \
      "open() -> store serving (full-replay opens: includes replay)")    \
    X(recovery_ms_to_drained, kMax, ,                                    \
      "open() -> last pending frame applied (== ready if none pending)") \
    /* -- memory governor + DRAM read cache -- */                        \
    X(cache_hits, kCounter, , "Read-cache probes answered from DRAM")    \
    X(cache_misses, kCounter, ,                                          \
      "Read-cache probes that fell through to the levels/repo")          \
    X(cache_evictions, kCounter, ,                                       \
      "Entries evicted by LRU pressure (capacity, not staleness)")       \
    X(cache_invalidations, kCounter, ,                                   \
      "Invalidation events (flush installs, quarantine clears)")         \
    X(tuner_moves, kCounter, ,                                           \
      "Tuner decisions that changed a budget or watermark")              \
    X(gov_memtable_bytes, kGauge, , "Governor: MemTable DRAM charged")   \
    X(gov_cache_bytes, kGauge, , "Governor: read-cache DRAM charged")    \
    X(gov_nvm_buffer_bytes, kGauge, , "Governor: NVM buffer charged")    \
    X(gov_vlog_bytes, kGauge, , "Governor: value-log capacity charged")  \
    X(gov_memtable_limit, kGauge, , "Governor: MemTable DRAM limit")     \
    X(gov_cache_limit, kGauge, , "Governor: read-cache DRAM limit")      \
    /* -- background scheduler (per-job-class observability) -- */       \
    X(sched_submitted, kCounter, [StatsCounters::kJobClasses],           \
      "Jobs submitted per class")                                        \
    X(sched_completed, kCounter, [StatsCounters::kJobClasses],           \
      "Jobs completed per class")                                        \
    X(sched_dropped, kCounter, [StatsCounters::kJobClasses],             \
      "Jobs discarded unexecuted (freeze/shutdown)")                     \
    X(sched_queue_ns, kCounter, [StatsCounters::kJobClasses],            \
      "Total submit->dispatch wait per class")                           \
    X(sched_run_ns, kCounter, [StatsCounters::kJobClasses],              \
      "Total execution time per class")                                  \
    X(sched_queue_hist, kCounter,                                        \
      [StatsCounters::kJobClasses][StatsCounters::kSchedLatBuckets],     \
      "Submit->dispatch wait per class, decade buckets")                 \
    X(sched_run_hist, kCounter,                                          \
      [StatsCounters::kJobClasses][StatsCounters::kSchedLatBuckets],     \
      "Execution time per class, decade buckets")                        \
    X(sched_escalations, kCounter, ,                                     \
      "Dispatches where an urgency probe overrode base priority")

/**
 * Live atomic counters. Components hold a pointer to their store's
 * instance and bump the fields they are responsible for.
 */
struct StatsCounters {
    static constexpr int kGroupSizeBuckets = 8;
    /** Background job classes, named in kJobClassNames. */
    static constexpr int kJobClasses = 9;
    /** Decade latency buckets: <1us, <10us, ..., <1s, >=1s. */
    static constexpr int kSchedLatBuckets = 8;

#define MIO_STATS_ATOMIC(name, kind, dims, doc) \
    std::atomic<uint64_t> name dims{};
    MIO_STATS_FIELDS(MIO_STATS_ATOMIC)
#undef MIO_STATS_ATOMIC

    /** Bucket index for a group of @p writers members. */
    static int
    groupSizeBucket(uint64_t writers)
    {
        int b = 0;
        while (writers > 1 && b < kGroupSizeBuckets - 1) {
            writers = (writers + 1) >> 1;
            b++;
        }
        return b;
    }

    /** Decade bucket index for a latency of @p ns nanoseconds. */
    static int
    schedLatBucket(uint64_t ns)
    {
        int b = 0;
        while (ns >= 1000 && b < kSchedLatBuckets - 1) {
            ns /= 10;
            b++;
        }
        return b;
    }
};

/** Plain-value snapshot of StatsCounters. */
struct StatsSnapshot {
#define MIO_STATS_VALUE(name, kind, dims, doc) uint64_t name dims = {};
    MIO_STATS_FIELDS(MIO_STATS_VALUE)
#undef MIO_STATS_VALUE

    /** Mean writers per commit group (0 when grouping never fired). */
    double
    averageGroupSize() const
    {
        if (groups_committed == 0)
            return 0.0;
        return static_cast<double>(group_writers) /
               static_cast<double>(groups_committed);
    }

    /**
     * Write amplification as the paper defines it: all persistent
     * traffic (WAL + flush + compaction) over user-written bytes --
     * this is what makes MioDB's theoretical bound exactly 3
     * (WAL + one-piece flush + lazy copy, paper Sec. 5.3).
     */
    double
    writeAmplification() const
    {
        if (user_bytes_written == 0)
            return 0.0;
        return static_cast<double>(storage_bytes_written +
                                   wal_bytes_written) /
               static_cast<double>(user_bytes_written);
    }

    /**
     * One-line summary (WA, mean group size, cache hit rate), then
     * `name=value` for every nonzero scalar field, then one line per
     * job class that has submissions.
     */
    std::string toString() const;
};

/** 64-bit words in the schema: the size both structs must have. */
#define MIO_STATS_WORDS(name, kind, dims, doc) \
    +sizeof(uint64_t dims) / sizeof(uint64_t)
inline constexpr size_t kStatsWords = 0 MIO_STATS_FIELDS(MIO_STATS_WORDS);
#undef MIO_STATS_WORDS
static_assert(sizeof(StatsSnapshot) == kStatsWords * sizeof(uint64_t),
              "every StatsSnapshot field must be a MIO_STATS_FIELDS row");
static_assert(sizeof(StatsCounters) ==
                  kStatsWords * sizeof(std::atomic<uint64_t>),
              "every StatsCounters field must be a MIO_STATS_FIELDS row");

/** Short stable job-class names, indexed by sched::JobClass. */
inline constexpr const char *kJobClassNames[] = {
    "flush", "lcm",    "zcm",    "ssd",    "walrec",
    "scrub", "vloggc", "walrep", "memtune"};
static_assert(std::size(kJobClassNames) == StatsCounters::kJobClasses);

StatsSnapshot snapshotOf(const StatsCounters &c);

/** a - b for counters, a's reading for gauges and maxima; for
 *  measuring a phase. */
StatsSnapshot statsDelta(const StatsSnapshot &a, const StatsSnapshot &b);

/** acc + b (max for kMax fields); for aggregating across shards. */
void statsAdd(StatsSnapshot *acc, const StatsSnapshot &b);

/** Store @p s into @p out, fieldwise (relaxed); the inverse of
 *  snapshotOf, used to publish an aggregated snapshot through the
 *  KVStore::stats() counter interface. */
void loadInto(const StatsSnapshot &s, StatsCounters *out);

} // namespace mio

#endif // MIO_KV_STORE_STATS_H_
