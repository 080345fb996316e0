#include "core/core.h"

#include <algorithm>

#include "snapshot/snapshot.h"

namespace moka {

Core::Core(const CoreConfig &config)
    : cfg_(config), retire_ring_(config.rob_entries, 0)
{
}

Cycle
Core::dispatch(Cycle fetch_ready)
{
    // The slot about to be reused holds the retire cycle of the
    // instruction rob_entries older; we cannot dispatch before it
    // has left the ROB.
    const Cycle rob_ready = retire_ring_[ring_head_];
    ++window_dispatches_;
    if (rob_ready > fetch_ready) {
        ++window_rob_stalls_;
    }
    return std::max(fetch_ready, rob_ready);
}

Cycle
Core::retire(Cycle complete)
{
    Cycle r = std::max(complete + 1, last_retire_);
    if (r == last_retire_) {
        if (++retire_slot_used_ > cfg_.width) {
            r += 1;
            retire_slot_used_ = 1;
        }
    } else {
        retire_slot_used_ = 1;
    }
    last_retire_ = r;
    retire_ring_[ring_head_] = r;
    // Wrap with a compare, not %: rob_entries is not a power of two,
    // so the modulo is an integer division on the per-instruction
    // retire path (rule L19).
    if (++ring_head_ == retire_ring_.size()) {
        ring_head_ = 0;
    }
    ++retired_;
    return r;
}

double
Core::rob_pressure() const
{
    return window_dispatches_ == 0
               ? 0.0
               : static_cast<double>(window_rob_stalls_) /
                     static_cast<double>(window_dispatches_);
}

void
Core::reset_pressure_window()
{
    window_dispatches_ = 0;
    window_rob_stalls_ = 0;
}

template <class Self, class IO>
void
Core::serialize(Self &self, IO &io)
{
    field(io, self.retire_ring_);
    field(io, self.ring_head_);
    require(io, self.ring_head_ < self.retire_ring_.size(),
            "ROB ring head past the ring");
    field(io, self.last_retire_);
    field(io, self.retire_slot_used_);
    field(io, self.retired_);
    field(io, self.window_dispatches_);
    field(io, self.window_rob_stalls_);
}

template void Core::serialize(const Core &, SnapshotWriter &);
template void Core::serialize(Core &, SnapshotReader &);

}  // namespace moka
