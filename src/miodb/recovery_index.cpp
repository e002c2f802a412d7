#include "miodb/recovery_index.h"

#include <algorithm>

#include "miodb/wal_format.h"
#include "sim/failpoint.h"
#include "sim/nvm_device.h"
#include "sstable/internal_key.h"

namespace mio::miodb {

void
RecoveryIndex::build(wal::WalRegistry *registry,
                     const std::string &own_floor, sim::NvmDevice *nvm,
                     uint64_t *corrupt_frames)
{
    segments_.clear();
    pending_frames_ = 0;
    max_seq_ = 0;
    min_first_seq_ = kMaxSequence;

    auto names = registry->list();
    std::sort(names.begin(), names.end());
    for (const auto &name : names) {
        if (name >= own_floor)
            continue;  // a fresh segment of the adopting instance
        auto segment = registry->find(name);
        if (!segment)
            continue;
        // A crash here loses only the (DRAM) directory; the segments
        // themselves are untouched and the next open rescans them.
        MIO_FAILPOINT("recovery.index.build");
        Segment seg;
        seg.name = name;
        seg.segment = segment;
        wal::LogReader reader(segment.get());
        Slice payload;
        wal::LogReader::Position pos;
        uint64_t scanned_bytes = 0;
        while (reader.readRecordInPlace(&payload, &pos)) {
            WalDigest d;
            if (!parseWalDigest(payload, &d)) {
                // Malformed past the CRC: unreplayable, and nothing
                // after it can be trusted (the torn-tail rule).
                (*corrupt_frames)++;
                break;
            }
            // The scan consumed the frame header and the digest
            // prefix; the wrapped payload was never touched.
            scanned_bytes += 8 + d.header_bytes +
                             std::min<size_t>(d.inner.size(), 16);
            Frame f;
            f.pos = pos;
            f.min_key = d.min_key;
            f.max_key = d.max_key;
            f.first_seq = d.first_seq;
            f.op_count = d.op_count;
            f.unbounded = d.unbounded;
            seg.frames.push_back(f);
            max_seq_ = std::max(max_seq_, d.first_seq + d.op_count);
            min_first_seq_ = std::min(min_first_seq_, d.first_seq);
        }
        if (reader.sawCorruption())
            (*corrupt_frames)++;
        if (nvm != nullptr && scanned_bytes > 0)
            nvm->chargeRead(scanned_bytes);
        seg.pending = seg.frames.size();
        pending_frames_ += seg.pending;
        segments_.push_back(std::move(seg));
    }
}

size_t
RecoveryIndex::pendingSegments() const
{
    size_t n = 0;
    for (const auto &seg : segments_) {
        if (seg.pending > 0)
            n++;
    }
    return n;
}

bool
RecoveryIndex::matches(const Frame &f, ReplayKind kind,
                       const Slice &key)
{
    switch (kind) {
    case ReplayKind::kBatch:
    case ReplayKind::kAll:
        return true;
    case ReplayKind::kKey:
        return f.unbounded || (f.min_key.compare(key) <= 0 &&
                               key.compare(f.max_key) <= 0);
    case ReplayKind::kFromKey:
        return f.unbounded || f.max_key.compare(key) >= 0;
    case ReplayKind::kNone:
        break;
    }
    return false;
}

bool
RecoveryIndex::anyPending(ReplayKind kind, const Slice &key) const
{
    for (const auto &seg : segments_) {
        if (seg.pending == 0)
            continue;
        for (size_t i = seg.first_pending; i < seg.frames.size(); i++) {
            const Frame &f = seg.frames[i];
            if (!f.replayed && matches(f, kind, key))
                return true;
        }
    }
    return false;
}

void
RecoveryIndex::collect(ReplayKind kind, const Slice &key,
                       size_t max_frames,
                       std::vector<FrameRef> *out) const
{
    for (size_t s = 0; s < segments_.size(); s++) {
        const Segment &seg = segments_[s];
        if (seg.pending == 0)
            continue;
        for (size_t i = seg.first_pending; i < seg.frames.size(); i++) {
            if (out->size() >= max_frames)
                return;
            const Frame &f = seg.frames[i];
            if (!f.replayed && matches(f, kind, key))
                out->push_back(FrameRef{s, i});
        }
    }
}

bool
RecoveryIndex::markReplayed(const FrameRef &ref, bool relog_ok)
{
    Segment &seg = segments_[ref.seg];
    Frame &f = seg.frames[ref.frame];
    if (f.replayed)
        return false;
    f.replayed = true;
    seg.pending--;
    pending_frames_--;
    // The next background batch (or any selector) then starts at the
    // first frame still pending instead of re-walking the replayed
    // prefix: draining a segment stays linear in its frames.
    while (seg.first_pending < seg.frames.size() &&
           seg.frames[seg.first_pending].replayed) {
        seg.first_pending++;
    }
    if (!relog_ok)
        seg.relog_ok = false;
    return seg.pending == 0;
}

std::vector<std::string>
RecoveryIndex::takeRemovableSegments()
{
    std::vector<std::string> out;
    for (auto &seg : segments_) {
        if (!seg.removed && seg.pending == 0 && seg.relog_ok) {
            seg.removed = true;
            out.push_back(seg.name);
        }
    }
    return out;
}

} // namespace mio::miodb
