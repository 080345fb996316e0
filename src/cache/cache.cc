#include "cache/cache.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <experimental/simd>
#include <limits>
#include <numeric>

#include "common/bitops.h"
#include "common/check.h"
#include "snapshot/snapshot.h"

namespace moka {

Cache::Cache(const CacheConfig &config, MemoryLevel *lower)
    : cfg_(config), lower_(lower),
      tags_(static_cast<std::size_t>(config.sets) * config.ways, 0),
      flags_(static_cast<std::size_t>(config.sets) * config.ways, 0),
      fill_offset_(static_cast<std::size_t>(config.sets) * config.ways, 0)
{
    SIM_REQUIRE(is_pow2(cfg_.sets), "cache sets must be a power of two");
    SIM_REQUIRE(cfg_.ways > 0, "cache must have at least one way");
    if (cfg_.replacement == ReplacementKind::kLru) {
        SIM_REQUIRE(cfg_.ways <= kMaxLruWays,
                    "lru ranks order 1 to 128 ways");
        repl_.resize(tags_.size());
        // Row by row: a per-element `i % ways` costs more than the fill.
        for (auto row = repl_.begin(); row != repl_.end();
             row += cfg_.ways) {
            std::iota(row, row + cfg_.ways, std::uint8_t{0});
        }
    } else if (cfg_.replacement == ReplacementKind::kSrrip) {
        repl_.assign(tags_.size(), kMaxRrpv);
    }
    // MSHR occupancy is bounded at mshr_entries by the eviction in
    // access(); reserving here keeps the per-access path allocation
    // free (rule L10).
    inflight_.reserve(cfg_.mshr_entries);
}

std::size_t
Cache::row_base(PhysAddr paddr) const
{
    return static_cast<std::size_t>(block_number(paddr) & (cfg_.sets - 1)) *
           cfg_.ways;
}

std::uint32_t
Cache::tag_of(PhysAddr paddr) const
{
    const Addr block = block_number(paddr);
    SIM_REQUIRE(block < kTagLimit,
                "physical address past the 31-bit block tag (128 GiB)");
    return static_cast<std::uint32_t>(block);
}

SIM_INLINE std::uint32_t
Cache::first_way(const std::uint32_t *row, std::uint32_t ways,
                 std::uint32_t mask, std::uint32_t key)
{
    namespace stdx = std::experimental;
    // Four 32-bit lanes: SSE2's pcmpeqd and movmskps on x86-64.
    using Lanes = stdx::fixed_size_simd<std::uint32_t, 4>;
    const Lanes lane_mask(mask);
    const Lanes lane_key(key);
    std::uint32_t w = 0;
    for (; w + 4 <= ways; w += 4) {
        const auto match =
            (Lanes(row + w, stdx::element_aligned) & lane_mask) == lane_key;
        if (stdx::any_of(match)) {
            return w + static_cast<std::uint32_t>(stdx::find_first_set(match));
        }
    }
    for (; w < ways; ++w) {
        if ((row[w] & mask) == key) {
            return w;
        }
    }
    return kNoWay;
}

SIM_INLINE std::uint32_t
Cache::find(std::size_t base, std::uint32_t tag) const
{
    return first_way(&tags_[base], cfg_.ways, ~std::uint32_t{0},
                     tag | kValidTagBit);
}

bool
Cache::probe(PhysAddr paddr) const
{
    return find(row_base(paddr), tag_of(paddr)) != kNoWay;
}

unsigned
Cache::inflight_misses(Cycle now) const
{
    unsigned n = 0;
    for (Cycle c : inflight_) {
        if (c > now) {
            ++n;
        }
    }
    return n;
}

SIM_INLINE void
Cache::mark_used(std::size_t idx)
{
    const std::uint8_t f = flags_[idx];
    if ((f & kFlagPrefetched) != 0 && (f & kFlagUsed) == 0) {
        ++stats_.pf.useful;
        if ((f & kFlagPgc) != 0) {
            ++stats_.pf.pgc_useful;
            if (listener_ != nullptr) {
                // Tags store raw block numbers; reconstruct the typed
                // physical address on the way out.
                listener_->on_pgc_first_use(PhysAddr{
                    Addr{tags_[idx] & ~kValidTagBit} << kBlockBits});
            }
        }
    }
    flags_[idx] = f | kFlagUsed;
}

SIM_INLINE void
Cache::touch(std::size_t base, std::uint32_t way, bool fill)
{
    if (cfg_.replacement == ReplacementKind::kLru) {
        std::uint8_t *row = &repl_[base];
        const std::uint8_t rank = row[way];
        if (rank == 0) {
            return;  // already the most recent
        }
        // Age every way ranked ahead of `rank`, eight per 64-bit word:
        // ranks are below 128, so a byte of (x | 0x80) - rank keeps
        // its top bit exactly when x >= rank and borrows from no other
        // byte, and adding the inverted top bit ages the rest.
        constexpr std::uint64_t kOnes = 0x0101010101010101ull;
        constexpr std::uint64_t kTop = kOnes << 7;
        const std::uint64_t rank_bytes = kOnes * rank;
        std::uint32_t w = 0;
        for (; w + 8 <= cfg_.ways; w += 8) {
            std::uint64_t x = 0;
            std::memcpy(&x, row + w, sizeof(x));
            x += (~((x | kTop) - rank_bytes) & kTop) >> 7;
            std::memcpy(row + w, &x, sizeof(x));
        }
        for (; w < cfg_.ways; ++w) {
            row[w] = static_cast<std::uint8_t>(row[w] + (row[w] < rank));
        }
        row[way] = 0;
    } else if (cfg_.replacement == ReplacementKind::kSrrip) {
        // A hit predicts a near re-reference, a fill a long one.
        repl_[base + way] = fill ? kMaxRrpv - 1 : 0;
    }
}

std::uint32_t
Cache::victim(std::size_t base)
{
    if (cfg_.replacement == ReplacementKind::kLru) {
        // Once every way of a set has been filled, rank order is touch
        // order, so this is the way a timestamp LRU would pick.
        const std::uint8_t *row = &repl_[base];
        const std::uint8_t oldest = static_cast<std::uint8_t>(cfg_.ways - 1);
        std::uint32_t v = 0;
        while (v + 1 < cfg_.ways && row[v] != oldest) {
            ++v;
        }
        return v;
    }
    if (cfg_.replacement == ReplacementKind::kSrrip) {
        std::uint8_t *row = &repl_[base];
        for (;;) {
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                if (row[w] == kMaxRrpv) {
                    return w;
                }
            }
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                ++row[w];
            }
        }
    }
    return static_cast<std::uint32_t>(rng_.below(cfg_.ways));
}

std::int64_t
Cache::first_inconsistent_set() const
{
    const std::uint32_t ways = cfg_.ways;
    for (std::size_t base = 0; base < repl_.size(); base += ways) {
        const std::uint8_t *row = &repl_[base];
        const auto set = static_cast<std::int64_t>(base / ways);
        if (cfg_.replacement == ReplacementKind::kSrrip) {
            if (std::any_of(row, row + ways,
                            [](std::uint8_t v) { return v > kMaxRrpv; })) {
                return set;
            }
            continue;
        }
        std::array<std::uint64_t, kMaxLruWays / 64> seen{};
        for (std::uint32_t w = 0; w < ways; ++w) {
            const std::uint8_t rank = row[w];
            const std::uint64_t bit = std::uint64_t{1} << (rank & 63);
            if (rank >= ways || (seen[rank >> 6] & bit) != 0) {
                return set;
            }
            seen[rank >> 6] |= bit;
        }
    }
    return -1;
}

void
Cache::rebase_fills(Cycle start)
{
    // Every later lookup completes at start + 1 + latency or later, so
    // a fill that arrived at or before start can never merge again.
    for (std::uint32_t &offset : fill_offset_) {
        const Cycle done = fill_base_ + offset;
        offset = done > start ? static_cast<std::uint32_t>(done - start) : 0;
    }
    fill_base_ = start;
}

std::uint32_t
Cache::pick_victim(std::size_t base, Cycle now)
{
    const std::uint32_t invalid = first_way(&tags_[base], cfg_.ways,
                                            kValidTagBit, 0);
    if (invalid != kNoWay) {
        return invalid;
    }
    const std::uint32_t way = victim(base);
    SIM_AUDIT(way < cfg_.ways,
              "replacement policy chose a way outside the set");
    const std::size_t idx = base + way;
    const std::uint8_t f = flags_[idx];
    const std::uint32_t tag = tags_[idx] & ~kValidTagBit;
    const PhysAddr block_paddr{Addr{tag} << kBlockBits};

    // Evict: resolve prefetch usefulness and write back dirt.
    if ((f & kFlagPrefetched) != 0 && (f & kFlagUsed) == 0) {
        ++stats_.pf.useless;
        if ((f & kFlagPgc) != 0) {
            ++stats_.pf.pgc_useless;
        }
    }
    if (listener_ != nullptr) {
        listener_->on_eviction(block_paddr,
                               (f & kFlagPrefetched) != 0,
                               (f & kFlagPgc) != 0, (f & kFlagUsed) != 0);
    }
    if ((f & kFlagDirty) != 0) {
        ++stats_.writebacks;
        if (lower_ != nullptr) {
            lower_->access(block_paddr, AccessType::kWriteback, now);
        }
    }
    tags_[idx] = tag;  // drop the valid bit, keep the stale tag bits
    return way;
}

AccessResult
Cache::access(PhysAddr paddr, AccessType type, Cycle now, bool pgc_prefetch)
{
    // Port contention: one request per cycle enters the pipeline.
    const Cycle start = std::max(now, next_port_free_);
    next_port_free_ = start + 1;
    Cycle t = start + cfg_.latency;

    const bool demand = is_demand(type);
    if (demand) {
        ++stats_.demand.accesses;
    } else if (type == AccessType::kPageWalk) {
        ++stats_.walk.accesses;
    } else if (type == AccessType::kPrefetch) {
        ++stats_.prefetch_lookups;
    }

    const std::uint32_t tag = tag_of(paddr);
    const std::size_t base = row_base(paddr);
    const std::uint32_t way = find(base, tag);
    if (way != kNoWay) {
        const std::size_t idx = base + way;
        touch(base, way, false);
        AccessResult r;
        const Cycle fill_done = fill_base_ + fill_offset_[idx];
        if (fill_done > t && type != AccessType::kWriteback) {
            // In-flight fill: merge (counts as a miss, pays residual).
            r.done = fill_done;
            r.merged = true;
            if (demand) {
                ++stats_.demand.misses;
                mark_used(idx);
            } else if (type == AccessType::kPageWalk) {
                ++stats_.walk.misses;
            }
        } else {
            r.done = t;
            r.hit = true;
            if (demand) {
                mark_used(idx);
            }
        }
        if (type == AccessType::kStore || type == AccessType::kWriteback) {
            flags_[idx] |= kFlagDirty;
        }
        return r;
    }

    // Miss.
    if (demand) {
        ++stats_.demand.misses;
    } else if (type == AccessType::kPageWalk) {
        ++stats_.walk.misses;
    }

    if (type == AccessType::kWriteback) {
        // No allocation on writeback miss; forward the dirt downwards.
        AccessResult r;
        if (lower_ != nullptr) {
            r = lower_->access(paddr, AccessType::kWriteback, t);
        } else {
            r.done = t;
        }
        return r;
    }

    // MSHR occupancy: when all entries are in flight the request
    // stalls until the oldest completes.
    std::erase_if(inflight_, [t](Cycle c) { return c <= t; });
    if (inflight_.size() >= cfg_.mshr_entries) {
        const Cycle oldest = *std::min_element(inflight_.begin(),
                                               inflight_.end());
        t = oldest;
        std::erase_if(inflight_, [t](Cycle c) { return c <= t; });
    }

    Cycle fill_done = t;
    if (lower_ != nullptr) {
        fill_done = lower_->access(paddr, type, t, pgc_prefetch).done +
                    cfg_.latency;
    }
    inflight_.push_back(fill_done);
    SIM_AUDIT(inflight_.size() <= cfg_.mshr_entries,
              "MSHR occupancy exceeded its configured entries");

    const std::uint32_t victim_way = pick_victim(base, t);
    const std::size_t idx = base + victim_way;
    tags_[idx] = tag | kValidTagBit;
    std::uint8_t f = 0;
    if (type == AccessType::kStore) {
        f |= kFlagDirty;
    }
    const bool pgc = cfg_.track_pgc && pgc_prefetch &&
                     type == AccessType::kPrefetch;
    if (type == AccessType::kPrefetch) {
        f |= kFlagPrefetched;
        if (pgc) {
            f |= kFlagPgc;
        }
        ++stats_.pf.issued;
        if (pgc || (pgc_prefetch && !cfg_.track_pgc)) {
            ++stats_.pf.pgc_issued;
        }
    } else if (demand) {
        // A demand miss fills a demand block; mark used on arrival.
        f |= kFlagUsed;
    }
    flags_[idx] = f;
    if (start - fill_base_ >= kRebaseSpan) [[unlikely]] {
        rebase_fills(start);
    }
    const Cycle offset = fill_done > fill_base_ ? fill_done - fill_base_ : 0;
    SIM_REQUIRE(offset <= std::numeric_limits<std::uint32_t>::max(),
                "fill landed 2^32 cycles past its cache's fill base");
    fill_offset_[idx] = static_cast<std::uint32_t>(offset);
    touch(base, victim_way, true);

    AccessResult r;
    r.done = fill_done;
    return r;
}

template <class Self, class IO>
void
Cache::serialize(Self &self, IO &io)
{
    field(io, self.tags_);
    field(io, self.flags_);
    std::uint8_t any = 0;
    for (const std::uint8_t f : self.flags_) {
        any |= f;
    }
    require(io, (any & ~kFlagMask) == 0, "cache block flags outside kFlag*");
    field(io, self.fill_base_);
    field(io, self.fill_offset_);
    // The MSHR list length is runtime state (outstanding fills at
    // snapshot time), bounded by the configured entries.
    field(io, self.inflight_, self.cfg_.mshr_entries,
          "MSHR list longer than its entries");
    field(io, self.next_port_free_);
    require(io, self.fill_base_ <= self.next_port_free_,
            "cache fill base ahead of its port clock");
    if (self.cfg_.replacement == ReplacementKind::kRandom) {
        field(io, self.rng_);
    } else {
        field(io, self.repl_);
        require(io, self.first_inconsistent_set() < 0,
                self.cfg_.replacement == ReplacementKind::kLru
                    ? "lru ranks of a set are not a permutation of its ways"
                    : "srrip rrpv above the 2-bit rail");
    }
    field(io, self.stats_);
}

template void Cache::serialize(const Cache &, SnapshotWriter &);
template void Cache::serialize(Cache &, SnapshotReader &);

}  // namespace moka
