/**
 * @file
 * RecoveryIndex: the per-segment frame directory every open builds
 * and WAL recovery applies (see DESIGN.md Sec. 5j).
 *
 * Built by one cheap scan at open(): each surviving WAL frame's
 * digest header (min/max key, op count, first sequence) is decoded in
 * place -- no value bytes are materialized -- and recorded with the
 * frame's stable position inside its segment. Afterwards the store
 * can answer, for any key or key range, exactly which frames must be
 * applied before a read there is correct, and the drain inside open()
 * or the background replay job walks the same directory oldest-first
 * until nothing is pending.
 *
 * Thread model: the index has no internal locking. Only the owning
 * MioDB's replay routine mutates it, one leader at a time; the store
 * orders those writes against its read-side filter under its recovery
 * mutex, and mirrors the pending-frame count into an atomic.
 */
#ifndef MIO_MIODB_RECOVERY_INDEX_H_
#define MIO_MIODB_RECOVERY_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace mio::sim {
class NvmDevice;
}

namespace mio::miodb {

/** What a replay writer asks the commit leader to apply. */
enum class ReplayKind : uint8_t {
    kNone = 0, //!< not a replay writer
    kBatch,    //!< background: next batch of frames, oldest first
    kKey,      //!< on-demand get: frames whose range covers one key
    kFromKey,  //!< on-demand scan: frames with max_key >= start
    kAll,      //!< snapshot, or the drain inside open(): every frame
};

class RecoveryIndex
{
  public:
    /** One WAL frame awaiting replay. Key slices alias the segment's
     *  chunk memory, which is append-only and pinned by the owning
     *  Segment's handle -- stable for the index's whole life. */
    struct Frame {
        wal::LogReader::Position pos;
        Slice min_key;
        Slice max_key;
        uint64_t first_seq = 0;
        uint32_t op_count = 0;
        bool unbounded = false; //!< pre-digest frame: covers every key
        bool replayed = false;
    };

    /** One surviving WAL segment and its frame directory. */
    struct Segment {
        std::string name;
        std::shared_ptr<wal::LogSegment> segment;
        std::vector<Frame> frames;
        size_t pending = 0;    //!< frames not yet replayed
        size_t first_pending = 0;  //!< every frame before it replayed
        bool relog_ok = true;  //!< every replayed op re-logged durably
        bool removed = false;  //!< handed out by takeRemovableSegments
    };

    /** Stable handle to one indexed frame. */
    struct FrameRef {
        size_t seg = 0;
        size_t frame = 0;
    };

    /**
     * Scan every registry segment older than @p own_floor (the name
     * of the store's first own segment) and index its frames. Charges
     * @p nvm only for the bytes the digest decode actually touches --
     * this is what keeps open() proportional to the directory, not
     * the log. A torn or malformed frame ends that segment's
     * directory (the tail after a tear is unreplayable) and bumps
     * @p corrupt_frames.
     */
    void build(wal::WalRegistry *registry, const std::string &own_floor,
               sim::NvmDevice *nvm, uint64_t *corrupt_frames);

    /** Pending (un-replayed) frames across every segment. */
    size_t pendingFrames() const { return pending_frames_; }
    /** Segments still holding at least one pending frame. */
    size_t pendingSegments() const;
    /** One past the highest sequence any indexed frame commits. */
    uint64_t maxSeq() const { return max_seq_; }
    /** Smallest first_seq over every indexed frame (kMaxSequence when
     *  the directory is empty). */
    uint64_t minFirstSeq() const { return min_first_seq_; }

    /** Would @p kind / @p key match any pending frame? (Fast-path
     *  filter so reads of replayed ranges skip the writer queue.) */
    bool anyPending(ReplayKind kind, const Slice &key) const;

    /**
     * Collect up to @p max_frames pending frames matching @p kind /
     * @p key, oldest segment first and in-segment order -- replay
     * order is append order, so re-applied sequences land under their
     * original shadows.
     */
    void collect(ReplayKind kind, const Slice &key, size_t max_frames,
                 std::vector<FrameRef> *out) const;

    Frame &frame(const FrameRef &ref)
    {
        return segments_[ref.seg].frames[ref.frame];
    }
    Segment &segment(const FrameRef &ref)
    {
        return segments_[ref.seg];
    }

    /** Mark @p ref replayed; @p relog_ok false taints the segment so
     *  it survives in the registry (its frames stay the only durable
     *  copy of what a denied re-log failed to duplicate).
     *  @return true when this was the segment's last pending frame. */
    bool markReplayed(const FrameRef &ref, bool relog_ok);

    /**
     * Names of segments whose every frame has been replayed with all
     * re-logs durable -- safe to remove from the registry. Each name
     * is returned once.
     */
    std::vector<std::string> takeRemovableSegments();

  private:
    static bool matches(const Frame &f, ReplayKind kind,
                        const Slice &key);

    std::vector<Segment> segments_; //!< sorted oldest-first by name
    size_t pending_frames_ = 0;
    uint64_t max_seq_ = 0;
    uint64_t min_first_seq_ = 0;
};

} // namespace mio::miodb

#endif // MIO_MIODB_RECOVERY_INDEX_H_
