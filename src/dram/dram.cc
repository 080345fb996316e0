#include "dram/dram.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"
#include "snapshot/snapshot.h"

namespace moka {

Dram::Dram(const DramConfig &config)
    : cfg_(config), chan_bits_(log2_exact(config.channels)),
      bank_bits_(log2_exact(config.banks)),
      banks_(config.channels * config.banks),
      channel_next_free_(config.channels, 0)
{
    SIM_REQUIRE(is_pow2(config.channels),
                "DRAM channels must be a power of two");
    SIM_REQUIRE(is_pow2(config.banks), "DRAM banks must be a power of two");
}

AccessResult
Dram::access(PhysAddr paddr, AccessType type, Cycle now,
             bool /*pgc_prefetch*/)
{
    ++accesses_;
    if (type == AccessType::kPrefetch) {
        ++prefetch_accesses_;
    } else if (type == AccessType::kPageWalk) {
        ++walk_accesses_;
    }

    const std::uint64_t block = block_number(paddr);
    // Pow-2 geometry slices with shifts and masks (rule L19).
    const unsigned channel =
        static_cast<unsigned>(block & (cfg_.channels - 1));
    const std::uint64_t above_chan = block >> chan_bits_;
    const unsigned bank =
        static_cast<unsigned>(above_chan & (cfg_.banks - 1));
    const std::uint64_t above_bank = above_chan >> bank_bits_;
    Bank &b = banks_[channel * cfg_.banks + bank];

    // Row id: the address bits above bank/channel interleaving and
    // the column bits (a row holds 2^column_bits blocks per bank).
    const std::uint64_t row =
        bits(above_bank >> cfg_.column_bits, 0, cfg_.rows_bits);

    const Cycle start =
        std::max({now, b.next_free, channel_next_free_[channel]});
    Cycle latency;
    if (b.open_row == row) {
        latency = cfg_.row_hit_latency;
        ++row_hits_;
    } else {
        latency = cfg_.row_miss_latency;
        b.open_row = row;
    }

    const Cycle done = start + latency;
    b.next_free = start + latency / 4;  // bank busy window
    channel_next_free_[channel] = start + cfg_.burst_cycles;

    AccessResult r;
    r.done = done;
    r.hit = false;
    r.merged = false;
    return r;
}

template <class Self, class IO>
void
Dram::serialize(Self &self, IO &io)
{
    for (auto &bank : self.banks_) {
        field(io, bank.open_row);
        field(io, bank.next_free);
    }
    field(io, self.channel_next_free_);
    field(io, self.accesses_);
    field(io, self.row_hits_);
    field(io, self.prefetch_accesses_);
    field(io, self.walk_accesses_);
}

template void Dram::serialize(const Dram &, SnapshotWriter &);
template void Dram::serialize(Dram &, SnapshotReader &);

}  // namespace moka
