#include "prefetch/stride.h"
#include "snapshot/snapshot.h"

#include "common/bitops.h"
#include "common/check.h"
#include "common/hashing.h"

namespace moka {

StridePrefetcher::StridePrefetcher(const StridePrefetcherConfig &config)
    : cfg_(config), table_mask_(config.entries - 1),
      table_(config.entries)
{
    SIM_REQUIRE(is_pow2(config.entries),
                "stride-prefetcher entries must be a power of two");
}

void
StridePrefetcher::on_access(const PrefetchContext &ctx,
                            std::vector<PrefetchRequest> &out)
{
    const Addr line = block_number(ctx.vaddr);
    const std::uint64_t h = mix64(ctx.pc);
    Entry &e = table_[h & table_mask_];
    const std::uint16_t tag = static_cast<std::uint16_t>(h >> 40);

    if (!e.valid || e.tag != tag) {
        e = Entry{};
        e.valid = true;
        e.tag = tag;
        e.last_line = line;
        return;
    }

    const std::int64_t stride =
        static_cast<std::int64_t>(line) -
        static_cast<std::int64_t>(e.last_line);
    if (stride == 0) {
        return;
    }
    if (stride == e.stride) {
        e.conf.increment();
    } else {
        e.conf.decrement();
        if (e.conf.value() == 0) {
            e.stride = stride;
        }
    }
    e.last_line = line;

    if (e.conf.value() < cfg_.conf_threshold) {
        return;
    }
    for (unsigned d = 1; d <= cfg_.degree; ++d) {
        const std::int64_t target =
            static_cast<std::int64_t>(line) +
            e.stride * static_cast<std::int64_t>(d);
        if (target <= 0) {
            continue;
        }
        PrefetchRequest req;
        req.vaddr = VirtAddr{static_cast<Addr>(target) << kBlockBits};
        req.delta = e.stride * static_cast<std::int64_t>(d);
        req.trigger_pc = ctx.pc;
        req.trigger_vaddr = ctx.vaddr;
        out.push_back(req);
    }
}

template <class Self, class IO>
void
StridePrefetcher::serialize(Self &self, IO &io)
{
    io.begin_section("pf.stride");
    for (auto &e : self.table_) {
        field(io, e.tag);
        field(io, e.valid);
        field(io, e.last_line);
        field(io, e.stride);
        field(io, e.conf);
    }
}

template void StridePrefetcher::serialize(const StridePrefetcher &,
                                          SnapshotWriter &);
template void StridePrefetcher::serialize(StridePrefetcher &, SnapshotReader &);

}  // namespace moka
