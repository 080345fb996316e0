#include "prefetch/ipcp.h"

#include "common/bitops.h"
#include "common/check.h"
#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {
namespace {

/** IPCP class identifiers exported as filter metadata. */
enum : std::uint64_t { kClassNl = 0, kClassCs = 1, kClassCplx = 2,
                       kClassGs = 3 };

void
emit(std::vector<PrefetchRequest> &out, Addr line, std::int64_t delta,
     const PrefetchContext &ctx, std::uint64_t klass)
{
    const std::int64_t target = static_cast<std::int64_t>(line) + delta;
    if (target <= 0 || delta == 0) {
        return;
    }
    PrefetchRequest req;
    req.vaddr = VirtAddr{static_cast<Addr>(target) << kBlockBits};
    req.delta = delta;
    req.trigger_pc = ctx.pc;
    req.trigger_vaddr = ctx.vaddr;
    req.meta = klass;
    out.push_back(req);
}

}  // namespace

Ipcp::Ipcp(const IpcpConfig &config)
    : cfg_(config), region_mask_(config.region_lines - 1),
      region_shift_(log2_exact(config.region_lines)),
      ip_mask_(is_pow2(config.ip_entries) ? config.ip_entries - 1 : 0),
      cspt_mask_(config.cspt_entries - 1),
      ips_(config.ip_entries), cspt_(config.cspt_entries),
      regions_(config.rst_entries)
{
    // A region's touched-line bitmap is one 64-bit word.
    SIM_REQUIRE(is_pow2(config.region_lines) && config.region_lines <= 64,
                "IPCP region lines must be a power of two, at most 64");
    SIM_REQUIRE(is_pow2(config.cspt_entries),
                "IPCP CSPT entries must be a power of two");
}

Ipcp::Region *
Ipcp::find_region(Addr line, bool allocate)
{
    const Addr tag = line >> region_shift_;
    for (Region &r : regions_) {
        if (r.valid && r.tag == tag) {
            r.lru = ++lru_stamp_;
            return &r;
        }
    }
    if (!allocate) {
        return nullptr;
    }
    Region *victim = &regions_[0];
    for (Region &r : regions_) {
        if (!r.valid) {
            victim = &r;
            break;
        }
        if (r.lru < victim->lru) {
            victim = &r;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->touched = 0;
    victim->count = 0;
    victim->dense = false;
    victim->lru = ++lru_stamp_;
    return victim;
}

void
Ipcp::on_access(const PrefetchContext &ctx,
                std::vector<PrefetchRequest> &out)
{
    const Addr line = block_number(ctx.vaddr);

    // --- Region stream tracking (GS class) ---------------------------
    Region *region = find_region(line, true);
    const unsigned line_in_region =
        static_cast<unsigned>(line & region_mask_);
    if ((region->touched & (std::uint64_t{1} << line_in_region)) == 0) {
        region->touched |= std::uint64_t{1} << line_in_region;
        if (++region->count >= cfg_.dense_threshold) {
            region->dense = true;
        }
    }

    // --- IP table -----------------------------------------------------
    const std::uint64_t h = mix64(ctx.pc);
    // LINT_HOT_OK: ISO Storage sizes this table at 96 entries, whose
    // lookups need the %; resizing it would move fig09's results, and
    // a %-only lookup would slow every default (64-entry) access.
    IpEntry &ip = ips_[ip_mask_ != 0 ? h & ip_mask_ : h % cfg_.ip_entries];
    const std::uint16_t tag = static_cast<std::uint16_t>(h >> 32);
    if (!ip.valid || ip.tag != tag) {
        ip = IpEntry{};
        ip.valid = true;
        ip.tag = tag;
        ip.last_line = line;
        // New IP: next-line (NL) class on a miss.
        if (!ctx.hit) {
            emit(out, line, +1, ctx, kClassNl);
        }
        return;
    }

    const std::int64_t stride =
        static_cast<std::int64_t>(line) - static_cast<std::int64_t>(ip.last_line);

    // --- Train CS -----------------------------------------------------
    if (stride != 0) {
        if (stride == ip.stride) {
            ip.conf.increment();
        } else {
            ip.conf.decrement();
            if (ip.conf.value() == 0) {
                ip.stride = stride;
            }
        }
    }

    // --- Train CPLX (stride signature -> next stride) -------------------
    CsptEntry &pred = cspt_[ip.signature & cspt_mask_];
    if (stride != 0) {
        if (pred.stride == stride) {
            pred.conf.increment();
        } else {
            pred.conf.decrement();
            if (pred.conf.value() == 0) {
                pred.stride = stride;
            }
        }
        ip.signature = static_cast<std::uint16_t>(
            ((ip.signature << 1) ^ (stride & 0x3F)) &
            (cfg_.cspt_entries - 1));
    }

    // GS classification: the IP touches dense regions.
    ip.stream = region->dense;
    ip.last_line = line;

    // --- Issue, by class priority GS > CS > CPLX > NL -------------------
    if (ip.stream) {
        for (unsigned d = 1; d <= cfg_.gs_degree; ++d) {
            emit(out, line, static_cast<std::int64_t>(d), ctx, kClassGs);
        }
        return;
    }
    if (ip.conf.value() >= 2 && ip.stride != 0) {
        for (unsigned d = 1; d <= cfg_.cs_degree; ++d) {
            emit(out, line, ip.stride * static_cast<std::int64_t>(d), ctx,
                 kClassCs);
        }
        return;
    }
    // CPLX: chain signature predictions while confident.
    std::uint16_t sig = ip.signature;
    Addr cur = line;
    for (unsigned d = 0; d < cfg_.cplx_degree; ++d) {
        const CsptEntry &p = cspt_[sig & cspt_mask_];
        if (p.conf.value() < 2 || p.stride == 0) {
            break;
        }
        emit(out, cur, p.stride, ctx, kClassCplx);
        cur = static_cast<Addr>(static_cast<std::int64_t>(cur) + p.stride);
        sig = static_cast<std::uint16_t>(((sig << 1) ^ (p.stride & 0x3F)) &
                                         (cfg_.cspt_entries - 1));
    }
    if (out.empty() && !ctx.hit) {
        emit(out, line, +1, ctx, kClassNl);  // NL fallback
    }
}

template <class Self, class IO>
void
Ipcp::serialize(Self &self, IO &io)
{
    io.begin_section("pf.ipcp");
    for (auto &e : self.ips_) {
        field(io, e.tag);
        field(io, e.valid);
        field(io, e.last_line);
        field(io, e.stride);
        field(io, e.conf);
        field(io, e.signature);
        field(io, e.stream);
    }
    for (auto &e : self.cspt_) {
        field(io, e.stride);
        field(io, e.conf);
    }
    for (auto &rg : self.regions_) {
        field(io, rg.tag);
        field(io, rg.valid);
        field(io, rg.touched);
        field(io, rg.count);
        field(io, rg.dense);
        field(io, rg.lru);
    }
    field(io, self.lru_stamp_);
}

template void Ipcp::serialize(const Ipcp &, SnapshotWriter &);
template void Ipcp::serialize(Ipcp &, SnapshotReader &);

}  // namespace moka
