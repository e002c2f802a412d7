/**
 * @file
 * DBIterator: the user-facing cursor over a pinned snapshot. Wraps an
 * internal-key MergingIterator (which compares its children linearly
 * on every step; there is no heap) and applies snapshot semantics:
 * versions newer than the snapshot bound are invisible, the newest
 * visible version of each key wins, tombstones hide everything below
 * them, and damaged entries (checksum failure or a quarantined
 * covering table) stop the cursor with Status::corruption instead of
 * serving or silently skipping bytes.
 */
#ifndef MIO_LSM_DB_ITERATOR_H_
#define MIO_LSM_DB_ITERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "lsm/iterator.h"
#include "sstable/internal_key.h"
#include "util/status.h"

namespace mio::lsm {

class DBIterator
{
  public:
    /**
     * @param base internal-key iterator over the pinned sources,
     *        ordered newest source first (ties resolve to newer)
     * @param snapshot_seq visibility bound: entries with a larger
     *        sequence do not exist for this cursor
     * @param corrupt_probe optional; true when reads covering
     *        @p user_key must answer corruption (e.g. a pinned table
     *        was quarantined after capture)
     */
    DBIterator(std::unique_ptr<KVIterator> base, uint64_t snapshot_seq,
               std::function<bool(const Slice &)> corrupt_probe = nullptr)
        : base_(std::move(base)), snapshot_seq_(snapshot_seq),
          corrupt_probe_(std::move(corrupt_probe))
    {}

    bool valid() const { return valid_; }
    /** ok, or corruption once a damaged entry stopped the cursor. */
    const Status &status() const { return status_; }
    uint64_t snapshotSeq() const { return snapshot_seq_; }

    void
    seekToFirst()
    {
        base_->seekToFirst();
        settle();
    }

    /** Position at the first live key >= @p user_key. */
    void
    seek(const Slice &user_key)
    {
        std::string target = makeLookupKey(user_key);
        base_->seek(Slice(target));
        settle();
    }

    void
    next()
    {
        // Skip the remaining (older or invisible) versions of the
        // current key, then settle on the next visible entry.
        while (base_->valid() &&
               extractUserKey(base_->key()) == Slice(user_key_)) {
            base_->next();
        }
        settle();
    }

    Slice key() const { return Slice(user_key_); }
    Slice value() const { return Slice(value_); }
    /**
     * Type of the current entry (kValue, or kValuePointer when the
     * value is an encoded value-log handle the caller must resolve;
     * never kDeletion -- tombstones are skipped).
     */
    EntryType entryType() const { return type_; }

  private:
    /**
     * Advance to the newest visible version of the next live key.
     * Leaves the cursor invalid at the end of data or on corruption
     * (status() tells the two apart).
     */
    void
    settle()
    {
        valid_ = false;
        while (base_->valid()) {
            ParsedInternalKey parsed;
            if (!parseInternalKey(base_->key(), &parsed)) {
                base_->next();
                continue;
            }
            if (parsed.seq > snapshot_seq_) {
                base_->next();  // written after the snapshot
                continue;
            }
            if (!base_->entryOk() ||
                (corrupt_probe_ && corrupt_probe_(parsed.user_key))) {
                status_ = Status::corruption(
                    "snapshot iterator: damaged entry");
                return;
            }
            if (parsed.type == EntryType::kDeletion) {
                // The tombstone is this key's visible version: the
                // key does not exist; skip its remaining versions.
                std::string dead = parsed.user_key.toString();
                while (base_->valid() &&
                       extractUserKey(base_->key()) == Slice(dead)) {
                    base_->next();
                }
                continue;
            }
            // assign() reuses the buffers across rows.
            user_key_.assign(parsed.user_key.data(),
                             parsed.user_key.size());
            const Slice value = base_->value();
            value_.assign(value.data(), value.size());
            type_ = parsed.type;
            valid_ = true;
            return;
        }
    }

    std::unique_ptr<KVIterator> base_;
    uint64_t snapshot_seq_;
    std::function<bool(const Slice &)> corrupt_probe_;
    Status status_;
    bool valid_ = false;
    std::string user_key_;
    std::string value_;
    EntryType type_ = EntryType::kValue;
};

} // namespace mio::lsm

#endif // MIO_LSM_DB_ITERATOR_H_
