/**
 * @file
 * UpdateBuffer serialization. Lives apart from the header because the
 * buffer itself is header-only hot-path code; snapshotting is cold.
 * The two address-space instantiations (vUB = VirtAddr keys, pUB =
 * PhysAddr keys) are emitted here.
 */
#include "filter/update_buffer.h"

#include "snapshot/snapshot.h"

namespace moka {

template <class AddrT>
template <class Self, class IO>
void
UpdateBuffer<AddrT>::serialize(Self &self, IO &io)
{
    for (auto &s : self.ring_) {
        field(io, s.rec);
        field(io, s.seq);
        field(io, s.live);
    }
    field(io, self.table_);
    require(io,
            std::all_of(self.table_.begin(), self.table_.end(),
                        [&self](std::uint32_t e) {
                            return e >= kTomb || e < self.ring_.size();
                        }),
            "update buffer table entry outside the ring");
    field(io, self.head_);
    field(io, self.count_);
    field(io, self.live_);
    field(io, self.stale_);
    field(io, self.tombstones_);
    field(io, self.next_seq_);
    field(io, self.overflow_evictions_);
    require(io,
            self.head_ < self.ring_.size() &&
                self.count_ <= self.ring_.size() &&
                self.live_ <= self.capacity_,
            "update buffer occupancy out of range");
}

template class UpdateBuffer<VirtAddr>;
template class UpdateBuffer<PhysAddr>;
template void VirtUpdateBuffer::serialize(const VirtUpdateBuffer &,
                                          SnapshotWriter &);
template void VirtUpdateBuffer::serialize(VirtUpdateBuffer &, SnapshotReader &);
template void PhysUpdateBuffer::serialize(const PhysUpdateBuffer &,
                                          SnapshotWriter &);
template void PhysUpdateBuffer::serialize(PhysUpdateBuffer &, SnapshotReader &);

}  // namespace moka
