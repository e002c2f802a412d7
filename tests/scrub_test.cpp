/** @file Background-scrubber and end-to-end integrity tests: injected
 *  NVM bit flips are detected 100%, corrupt tables quarantine, and
 *  reads answer Status::corruption instead of wrong values. */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "miodb/miodb.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

MioOptions
bufferOptions()
{
    MioOptions o;
    o.memtable_size = 8 << 10;
    o.elastic_levels = 3;
    // Hold flushed PMTables static in the buffer so tests can target
    // their nodes deterministically.
    o.auto_compaction = false;
    return o;
}

/** Fill @p db until at least one PMTable is resident in L0. */
void
fillUntilFlushed(MioDB *db, int n, const std::string &value)
{
    for (int i = 0; i < n; i++)
        ASSERT_TRUE(db->put(Slice(makeKey(i)), Slice(value)).isOk());
    // Wait for the flush thread to drain the immutable queue.
    db->waitIdle();
    ASSERT_GT(db->levels().level(0).size(), 0u);
}

TEST(ScrubTest, DetectsEveryInjectedBitFlipAndQuarantines)
{
    sim::NvmDevice nvm;
    MioDB db(bufferOptions(), &nvm);
    std::string value(256, 's');
    fillUntilFlushed(&db, 300, value);

    // Flip one payload bit in each of the first kFlips entries of an
    // L0 PMTable.
    auto snap = db.levels().level(0).snapshot();
    ASSERT_FALSE(snap.tables.empty());
    PMTable *table = snap.tables.back().get();
    const int kFlips = 5;
    std::vector<std::string> corrupted_keys;
    SkipList::Iterator it(&table->list());
    it.seekToFirst();
    for (int i = 0; i < kFlips; i++, it.next()) {
        ASSERT_TRUE(it.valid());
        corrupted_keys.push_back(it.key().toString());
        nvm.injectBitFlipAt(const_cast<char *>(it.value().data()),
                            /*byte=*/i, /*bit=*/i % 8);
    }

    // One pass finds 100% of the injected corruption.
    EXPECT_EQ(db.scrubNow(), static_cast<uint64_t>(kFlips));
    EXPECT_TRUE(table->isQuarantined());
    EXPECT_GE(db.stats().corruptions_detected.load(),
              static_cast<uint64_t>(kFlips));
    EXPECT_EQ(db.stats().tables_quarantined.load(), 1u);
    EXPECT_EQ(db.stats().scrub_passes.load(), 1u);
    EXPECT_GT(db.stats().scrub_bytes.load(), 0u);

    // Reads covering the quarantined table answer corruption -- for
    // the damaged keys AND the undamaged ones it holds (its entries
    // can no longer be trusted, and deeper levels would be stale).
    std::string v;
    for (const auto &k : corrupted_keys) {
        Status s = db.get(Slice(k), &v);
        EXPECT_TRUE(s.isCorruption()) << k << " -> " << s.toString();
    }

    // A second pass over the same damage finds nothing new: the
    // quarantined table is skipped, not re-counted.
    EXPECT_EQ(db.scrubNow(), 0u);
    EXPECT_EQ(db.stats().tables_quarantined.load(), 1u);
}

TEST(ScrubTest, ReadVerificationCatchesFlipWithoutScrubber)
{
    sim::NvmDevice nvm;
    MioDB db(bufferOptions(), &nvm);
    std::string value(256, 'r');
    fillUntilFlushed(&db, 300, value);

    auto snap = db.levels().level(0).snapshot();
    PMTable *table = snap.tables.back().get();
    SkipList::Iterator it(&table->list());
    it.seekToFirst();
    ASSERT_TRUE(it.valid());
    std::string key = it.key().toString();
    nvm.injectBitFlipAt(const_cast<char *>(it.value().data()));

    // verify_read_checksums (default on) turns the hit into
    // corruption at read time -- never the damaged bytes.
    std::string v;
    Status s = db.get(Slice(key), &v);
    EXPECT_TRUE(s.isCorruption()) << s.toString();
    EXPECT_GT(db.stats().corruptions_detected.load(), 0u);
}

TEST(ScrubTest, EverySingleBitFlipInANodeAnswersCorruption)
{
    sim::NvmDevice nvm;
    MioDB db(bufferOptions(), &nvm);
    // No other key has this length, so no flip of it can turn it
    // into a key that exists (whose newer version would then shadow
    // the damaged node instead of surfacing it).
    const std::string key = "crc-flip-target";
    ASSERT_NE(key.size(), makeKey(0).size());
    std::string value(256, '\0');
    for (size_t i = 0; i < value.size(); i++)
        value[i] = static_cast<char>(i * 37 + 11);
    ASSERT_TRUE(db.put(Slice(key), Slice(value)).isOk());
    fillUntilFlushed(&db, 300, std::string(256, 'n'));

    const SkipList::Node *node = nullptr;
    auto snap = db.levels().level(0).snapshot();
    for (const auto &ref : snap.tables) {
        if ((node = ref->list().findEntry(Slice(key))) != nullptr)
            break;
    }
    ASSERT_NE(node, nullptr) << "target not in a resident L0 table";
    ASSERT_EQ(node->value().size(), value.size());  // stored inline

    std::string v;
    std::vector<std::pair<std::string, std::string>> rows;
    auto sweep = [&](const Slice &bytes, bool point_read) {
        char *base = const_cast<char *>(bytes.data());
        for (size_t byte = 0; byte < bytes.size(); byte++) {
            for (int bit = 0; bit < 8; bit++) {
                nvm.injectBitFlipAt(base, byte, bit);
                // A full scan reaches the node wherever the flip moved
                // its key in the order.
                Status s = db.scan(Slice(), 1 << 20, &rows);
                EXPECT_TRUE(s.isCorruption())
                    << "byte " << byte << " bit " << bit << ": "
                    << s.toString();
                if (point_read) {
                    s = db.get(Slice(key), &v);
                    EXPECT_TRUE(s.isCorruption())
                        << "byte " << byte << " bit " << bit << ": "
                        << s.toString();
                }
                nvm.injectBitFlipAt(base, byte, bit);  // restore
            }
        }
    };
    // A flipped key no longer matches a point lookup at all (NotFound
    // is the honest answer there), so key flips are swept by scan.
    sweep(node->key(), /*point_read=*/false);
    sweep(node->value(), /*point_read=*/true);

    ASSERT_TRUE(db.get(Slice(key), &v).isOk());
    EXPECT_EQ(v, value);
    ASSERT_TRUE(db.scan(Slice(), 1 << 20, &rows).isOk());
}

TEST(ScrubTest, CleanStoreScrubsCleanAndStaysReadable)
{
    sim::NvmDevice nvm;
    MioDB db(bufferOptions(), &nvm);
    std::string value(256, 'c');
    fillUntilFlushed(&db, 300, value);

    EXPECT_EQ(db.scrubNow(), 0u);
    EXPECT_EQ(db.stats().tables_quarantined.load(), 0u);
    EXPECT_GT(db.stats().scrub_bytes.load(), 0u);
    std::string v;
    for (int i = 0; i < 300; i += 17)
        ASSERT_TRUE(db.get(Slice(makeKey(i)), &v).isOk()) << i;
}

TEST(ScrubTest, PmRepositoryScrubDetectsCorruption)
{
    sim::NvmDevice nvm;
    MioOptions o;
    o.memtable_size = 8 << 10;
    o.elastic_levels = 2;
    o.nvm_buffer_cap_bytes = 16 << 10;  // force migration to the repo
    MioDB db(o, &nvm);
    std::string value(256, 'p');
    for (int i = 0; i < 400; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(value)).isOk());
    db.waitIdle();

    auto *repo = dynamic_cast<PmRepository *>(&db.repository());
    ASSERT_NE(repo, nullptr);
    ASSERT_GT(repo->entryCount(), 0u);

    EXPECT_EQ(db.scrubNow(), 0u);
    const SkipList::Node *n = repo->list().first();
    ASSERT_NE(n, nullptr);
    nvm.injectBitFlipAt(const_cast<char *>(n->value().data()));
    EXPECT_GE(db.scrubNow(), 1u);

    // Per-read verification answers corruption for the damaged key.
    std::string v;
    Status s = db.get(n->key(), &v);
    EXPECT_TRUE(s.isCorruption()) << s.toString();
}

TEST(ScrubTest, SsdTableScrubQuarantinesCorruptBlob)
{
    sim::NvmDevice nvm;
    sim::SsdDevice ssd;
    MioOptions o;
    o.memtable_size = 8 << 10;
    o.elastic_levels = 2;
    o.nvm_buffer_cap_bytes = 16 << 10;
    o.use_ssd_repository = true;
    MioDB db(o, &nvm, &ssd);
    std::string value(256, 'q');
    for (int i = 0; i < 400; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(value)).isOk());
    db.waitIdle();

    std::vector<std::string> blobs = ssd.listBlobs();
    ASSERT_FALSE(blobs.empty());
    EXPECT_EQ(db.scrubNow(), 0u);

    // Damage one stored byte in every SSTable body: the scrubber's
    // body-checksum pass must catch each one.
    for (const auto &name : blobs)
        ASSERT_TRUE(ssd.corruptBlobByteForTesting(name, 16));
    uint64_t found = db.scrubNow();
    EXPECT_EQ(found, blobs.size());
    EXPECT_EQ(db.stats().tables_quarantined.load(), blobs.size());

    // Keys that live in quarantined SSTables answer corruption, and
    // no read ever returns damaged bytes as a value.
    int corruption_hits = 0;
    std::string v;
    for (int i = 0; i < 400; i++) {
        Status s = db.get(Slice(makeKey(i)), &v);
        if (s.isCorruption())
            corruption_hits++;
        else if (s.isOk())
            EXPECT_EQ(v, value) << i;
        else
            EXPECT_TRUE(s.isNotFound()) << s.toString();
    }
    EXPECT_GT(corruption_hits, 0);
}

} // namespace
} // namespace mio::miodb
