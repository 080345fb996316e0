#include "cache/cache.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"
#include "snapshot/snapshot.h"

namespace moka {

Cache::Cache(const CacheConfig &config, MemoryLevel *lower)
    : cfg_(config), lower_(lower),
      tags_(static_cast<std::size_t>(config.sets) * config.ways, 0),
      flags_(static_cast<std::size_t>(config.sets) * config.ways, 0),
      fill_done_(static_cast<std::size_t>(config.sets) * config.ways, 0),
      repl_(make_replacement(config.replacement, config.sets,
                             config.ways))
{
    SIM_REQUIRE(is_pow2(cfg_.sets), "cache sets must be a power of two");
    SIM_REQUIRE(cfg_.ways > 0, "cache must have at least one way");
    if (cfg_.replacement == ReplacementKind::kLru) {
        lru_ = static_cast<LruPolicy *>(repl_.get());
    }
    // MSHR occupancy is bounded at mshr_entries by the eviction in
    // access(); reserving here keeps the per-access path allocation
    // free (rule L10).
    inflight_.reserve(cfg_.mshr_entries);
}

std::uint32_t
Cache::set_index(PhysAddr paddr) const
{
    return static_cast<std::uint32_t>(block_number(paddr) &
                                      (cfg_.sets - 1));
}

Cache::SetRef
Cache::set_ref(PhysAddr paddr) const
{
    const std::uint32_t set = set_index(paddr);
    return {set, static_cast<std::size_t>(set) * cfg_.ways};
}

std::uint32_t
Cache::tag_of(PhysAddr paddr) const
{
    const Addr block = block_number(paddr);
    SIM_REQUIRE(block < kTagLimit,
                "physical address past the 31-bit block tag (128 GiB)");
    return static_cast<std::uint32_t>(block);
}

std::uint32_t
Cache::find(const SetRef &ref, std::uint32_t tag) const
{
    const std::uint32_t key = tag | kValidTagBit;
    const std::uint32_t *row = &tags_[ref.base];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (row[w] == key) {
            return w;
        }
    }
    return kNoWay;
}

bool
Cache::probe(PhysAddr paddr) const
{
    return find(set_ref(paddr), tag_of(paddr)) != kNoWay;
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

void
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

std::uint32_t
Cache::pick_victim(const SetRef &ref, Cycle now)
{
    const std::uint32_t *row = &tags_[ref.base];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if ((row[w] & kValidTagBit) == 0) {
            return w;
        }
    }
    const std::uint32_t way =
        lru_ != nullptr ? lru_->victim(ref.set) : repl_->victim(ref.set);
    SIM_AUDIT(way < cfg_.ways,
              "replacement policy chose a way outside the set");
    const std::size_t idx = ref.base + way;
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
    const SetRef ref = set_ref(paddr);
    const std::uint32_t way = find(ref, tag);
    if (way != kNoWay) {
        const std::size_t idx = ref.base + way;
        if (lru_ != nullptr) {
            lru_->on_hit(ref.set, way);
        } else {
            repl_->on_hit(ref.set, way);
        }
        AccessResult r;
        if (fill_done_[idx] > t && type != AccessType::kWriteback) {
            // In-flight fill: merge (counts as a miss, pays residual).
            r.done = fill_done_[idx];
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

    const std::uint32_t victim_way = pick_victim(ref, t);
    const std::size_t idx = ref.base + victim_way;
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
    fill_done_[idx] = fill_done;
    if (lru_ != nullptr) {
        lru_->on_fill(ref.set, victim_way);
    } else {
        repl_->on_fill(ref.set, victim_way);
    }

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
    field(io, self.fill_done_);
    // The MSHR list length is runtime state (outstanding fills at
    // snapshot time), bounded by the configured entries.
    field(io, self.inflight_, self.cfg_.mshr_entries,
          "MSHR list longer than its entries");
    field(io, self.next_port_free_);
    field(io, *self.repl_);
    field(io, self.stats_);
}

template void Cache::serialize(const Cache &, SnapshotWriter &);
template void Cache::serialize(Cache &, SnapshotReader &);

}  // namespace moka
