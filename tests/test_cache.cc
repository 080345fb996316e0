/** @file Unit tests for the set-associative cache model. */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.h"
#include "common/rng.h"
#include "dram/dram.h"

namespace moka {
namespace {

CacheConfig
tiny_config(bool track_pgc = false)
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sets = 4;
    cfg.ways = 2;
    cfg.latency = 2;
    cfg.mshr_entries = 4;
    cfg.track_pgc = track_pgc;
    return cfg;
}

/** Records L1D lifetime events for assertions. */
class RecordingListener : public CacheListener
{
  public:
    void
    on_pgc_first_use(PhysAddr block_paddr) override
    {
        first_uses.push_back(block_paddr);
    }

    void
    on_eviction(PhysAddr block_paddr, bool prefetched, bool pgc,
                bool used) override
    {
        evictions.push_back({block_paddr, prefetched, pgc, used});
    }

    struct Evt
    {
        PhysAddr addr;
        bool prefetched;
        bool pgc;
        bool used;
    };
    std::vector<PhysAddr> first_uses;
    std::vector<Evt> evictions;
};

/** A lower level that answers every request @p delay cycles later. */
class LateMemory : public MemoryLevel
{
  public:
    explicit LateMemory(Cycle delay) : delay_(delay) {}

    AccessResult
    access(PhysAddr, AccessType, Cycle now, bool) override
    {
        AccessResult r;
        r.done = now + delay_;
        return r;
    }

  private:
    Cycle delay_;
};

/** One access's outcome, its completion relative to the run's shift. */
struct Outcome
{
    Cycle done;
    bool hit;
    bool merged;

    bool operator==(const Outcome &) const = default;
};

/**
 * 200k accesses through an L1 -> L2 -> DRAM chain at times that jitter
 * up to 63 cycles behind a rising clock, which jumps 2^31 + 77 cycles
 * halfway; every time is offset by @p shift.
 */
std::vector<Outcome>
run_chain(Cycle shift)
{
    Dram dram(DramConfig{});
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sets = 64;
    l2_cfg.ways = 8;
    l2_cfg.latency = 10;
    l2_cfg.mshr_entries = 16;
    Cache l2(l2_cfg, &dram);
    CacheConfig l1_cfg;
    l1_cfg.name = "l1";
    l1_cfg.sets = 16;
    l1_cfg.ways = 4;
    l1_cfg.latency = 4;
    Cache l1(l1_cfg, &l2);
    Rng rng(29);
    std::vector<Outcome> out;
    out.reserve(200'000);
    Cycle clock = 1'000;
    for (int i = 0; i < 200'000; ++i) {
        if (i == 100'000) {
            clock += (Cycle{1} << 31) + 77;
        }
        clock += rng.below(3);
        const Cycle now = clock - rng.below(64);
        const PhysAddr paddr{rng.below(1024) * kBlockSize};
        const std::uint64_t kind = rng.below(8);
        const AccessType type = kind == 0   ? AccessType::kStore
                                : kind == 1 ? AccessType::kPrefetch
                                            : AccessType::kLoad;
        const AccessResult r = l1.access(paddr, type, shift + now);
        out.push_back({r.done - shift, r.hit, r.merged});
    }
    return out;
}

TEST(Cache, MissThenHit)
{
    Cache c(tiny_config(), nullptr);
    const AccessResult miss = c.access(PhysAddr{0x1000}, AccessType::kLoad, 0);
    EXPECT_FALSE(miss.hit);
    const AccessResult hit = c.access(PhysAddr{0x1000}, AccessType::kLoad, miss.done);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(c.stats().demand.accesses, 2u);
    EXPECT_EQ(c.stats().demand.misses, 1u);
}

TEST(Cache, BlockGranularity)
{
    Cache c(tiny_config(), nullptr);
    const AccessResult m = c.access(PhysAddr{0x1000}, AccessType::kLoad, 0);
    // Different byte in the same 64B block: hit.
    EXPECT_TRUE(c.access(PhysAddr{0x103F}, AccessType::kLoad, m.done).hit);
    // Next block: miss.
    EXPECT_FALSE(c.access(PhysAddr{0x1040}, AccessType::kLoad, m.done).hit);
}

TEST(Cache, LruEviction)
{
    Cache c(tiny_config(), nullptr);
    // 3 blocks in the same set (sets=4 => stride 4 blocks).
    const Addr set_stride = 4 * kBlockSize;
    const PhysAddr a{0}, b{set_stride}, d{2 * set_stride};
    Cycle t = 1000;
    c.access(a, AccessType::kLoad, t);
    c.access(b, AccessType::kLoad, t + 1000);
    // Touch a again so b becomes LRU.
    c.access(a, AccessType::kLoad, t + 2000);
    c.access(d, AccessType::kLoad, t + 3000);  // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, MergeIntoInflightFill)
{
    // With no lower level the fill completes at lookup time, so give
    // the cache a slow lower level via a second cache + nullptr chain.
    CacheConfig lower_cfg = tiny_config();
    lower_cfg.latency = 500;
    Cache lower(lower_cfg, nullptr);
    Cache c(tiny_config(), &lower);
    const AccessResult first = c.access(PhysAddr{0x2000}, AccessType::kLoad, 0);
    EXPECT_FALSE(first.hit);
    // Immediately re-access: merges into the in-flight fill and
    // counts as a miss with the same completion time.
    const AccessResult second = c.access(PhysAddr{0x2000}, AccessType::kLoad, 10);
    EXPECT_FALSE(second.hit);
    EXPECT_TRUE(second.merged);
    EXPECT_EQ(second.done, first.done);
    EXPECT_EQ(c.stats().demand.misses, 2u);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    CacheConfig lower_cfg = tiny_config();
    Cache lower(lower_cfg, nullptr);
    Cache c(tiny_config(), &lower);
    const Addr set_stride = 4 * kBlockSize;
    Cycle t = 0;
    c.access(PhysAddr{0x0}, AccessType::kStore, t);            // dirty
    c.access(PhysAddr{set_stride}, AccessType::kLoad, t + 600);
    c.access(PhysAddr{2 * set_stride}, AccessType::kLoad, t + 1200);  // evicts 0x0
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, PrefetchUsefulnessAccounting)
{
    Cache c(tiny_config(true), nullptr);
    Cycle t = 0;
    // Prefetch fill, then demand hit: useful.
    c.access(PhysAddr{0x0}, AccessType::kPrefetch, t, /*pgc=*/true);
    EXPECT_EQ(c.stats().pf.issued, 1u);
    EXPECT_EQ(c.stats().pf.pgc_issued, 1u);
    c.access(PhysAddr{0x0}, AccessType::kLoad, t + 100);
    EXPECT_EQ(c.stats().pf.useful, 1u);
    EXPECT_EQ(c.stats().pf.pgc_useful, 1u);
    // Second hit must not double-count.
    c.access(PhysAddr{0x0}, AccessType::kLoad, t + 200);
    EXPECT_EQ(c.stats().pf.useful, 1u);
}

TEST(Cache, UselessPrefetchCountedAtEviction)
{
    Cache c(tiny_config(true), nullptr);
    const Addr set_stride = 4 * kBlockSize;
    Cycle t = 0;
    c.access(PhysAddr{0x0}, AccessType::kPrefetch, t, true);
    // Fill the set and evict the prefetched block without any use.
    c.access(PhysAddr{set_stride}, AccessType::kLoad, t + 600);
    c.access(PhysAddr{2 * set_stride}, AccessType::kLoad, t + 1200);
    EXPECT_EQ(c.stats().pf.useless, 1u);
    EXPECT_EQ(c.stats().pf.pgc_useless, 1u);
}

TEST(Cache, ListenerSeesPgcLifetime)
{
    RecordingListener listener;
    Cache c(tiny_config(true), nullptr);
    c.set_listener(&listener);
    const Addr set_stride = 4 * kBlockSize;

    // Useful PGC block: first-use event fires once.
    c.access(PhysAddr{0x0}, AccessType::kPrefetch, 0, true);
    c.access(PhysAddr{0x0}, AccessType::kLoad, 100);
    c.access(PhysAddr{0x0}, AccessType::kLoad, 200);
    ASSERT_EQ(listener.first_uses.size(), 1u);
    EXPECT_EQ(listener.first_uses[0], PhysAddr{0});

    // Unused PGC block evicted: eviction event carries pgc && !used.
    c.access(PhysAddr{set_stride}, AccessType::kPrefetch, 300, true);
    c.access(PhysAddr{2 * set_stride}, AccessType::kLoad, 900);
    c.access(PhysAddr{3 * set_stride}, AccessType::kLoad, 1500);
    bool saw_useless_pgc = false;
    for (const auto &e : listener.evictions) {
        if (e.addr == PhysAddr{set_stride}) {
            EXPECT_TRUE(e.prefetched);
            EXPECT_TRUE(e.pgc);
            EXPECT_FALSE(e.used);
            saw_useless_pgc = true;
        }
    }
    EXPECT_TRUE(saw_useless_pgc);
}

TEST(Cache, PgcBitRequiresTracking)
{
    Cache c(tiny_config(false), nullptr);  // track_pgc off (L2/LLC)
    c.access(PhysAddr{0x0}, AccessType::kPrefetch, 0, true);
    c.access(PhysAddr{0x0}, AccessType::kLoad, 100);
    EXPECT_EQ(c.stats().pf.useful, 1u);
    // Without PCB tracking the pgc-useful counter must stay zero.
    EXPECT_EQ(c.stats().pf.pgc_useful, 0u);
}

TEST(Cache, InflightMissesVisible)
{
    CacheConfig lower_cfg = tiny_config();
    lower_cfg.latency = 500;
    Cache lower(lower_cfg, nullptr);
    Cache c(tiny_config(), &lower);
    c.access(PhysAddr{0x0}, AccessType::kLoad, 0);
    c.access(PhysAddr{0x40 * 4}, AccessType::kLoad, 0);
    EXPECT_GE(c.inflight_misses(10), 2u);
    EXPECT_EQ(c.inflight_misses(100000), 0u);
}

TEST(Cache, MshrLimitDelaysOverflowingMiss)
{
    CacheConfig lower_cfg = tiny_config();
    lower_cfg.sets = 64;
    lower_cfg.ways = 8;
    lower_cfg.latency = 1000;
    Cache lower(lower_cfg, nullptr);
    CacheConfig cfg = tiny_config();
    cfg.sets = 64;
    cfg.mshr_entries = 2;
    Cache c(cfg, &lower);
    const AccessResult a = c.access(PhysAddr{0 * kBlockSize}, AccessType::kLoad, 0);
    const AccessResult b = c.access(PhysAddr{1 * kBlockSize}, AccessType::kLoad, 0);
    // Third miss must wait for an MSHR, so it completes clearly after
    // the first two despite arriving at the same time.
    const AccessResult d = c.access(PhysAddr{2 * kBlockSize}, AccessType::kLoad, 0);
    EXPECT_GT(d.done, a.done);
    EXPECT_GT(d.done, b.done - 2);
}

TEST(Cache, DemandMissMarksBlockUsed)
{
    RecordingListener listener;
    Cache c(tiny_config(true), nullptr);
    c.set_listener(&listener);
    const Addr set_stride = 4 * kBlockSize;
    c.access(PhysAddr{0x0}, AccessType::kLoad, 0);
    c.access(PhysAddr{set_stride}, AccessType::kLoad, 600);
    c.access(PhysAddr{2 * set_stride}, AccessType::kLoad, 1200);
    ASSERT_FALSE(listener.evictions.empty());
    EXPECT_TRUE(listener.evictions[0].used);
    EXPECT_FALSE(listener.evictions[0].prefetched);
}

TEST(Cache, WidestTagKeepsItsAddress)
{
    // The last block below 128 GiB fills the 31-bit tag: the listener
    // must see it at its own address, widened before the shift.
    RecordingListener listener;
    Cache c(tiny_config(true), nullptr);
    c.set_listener(&listener);
    const PhysAddr top{(Addr{1} << 37) - kBlockSize};
    const Addr set_stride = 4 * kBlockSize;
    c.access(top, AccessType::kPrefetch, 0, true);
    EXPECT_TRUE(c.probe(top));
    c.access(top, AccessType::kLoad, 100);
    ASSERT_EQ(listener.first_uses.size(), 1u);
    EXPECT_EQ(listener.first_uses[0], top);
    c.access(top - set_stride, AccessType::kLoad, 600);
    c.access(top - 2 * set_stride, AccessType::kLoad, 1200);
    ASSERT_EQ(listener.evictions.size(), 1u);
    EXPECT_EQ(listener.evictions[0].addr, top);
}

TEST(CacheDeath, RefusesAnAddressPastItsTagWidth)
{
    Cache c(tiny_config(), nullptr);
    const PhysAddr wide{Addr{1} << 37};
    EXPECT_DEATH(c.access(wide, AccessType::kLoad, 0), "31-bit block tag");
    EXPECT_DEATH((void)c.probe(wide), "31-bit block tag");
}

TEST(Cache, FillTimesAreShiftInvariant)
{
    // Fill times are stored as 32-bit offsets above a base that
    // rebases 2^31 cycles behind the port clock; moving every time by
    // a constant moves where the rebases fall, and must change nothing.
    const std::vector<Outcome> base = run_chain(0);
    const auto merges = std::count_if(
        base.begin(), base.end(), [](const Outcome &o) { return o.merged; });
    EXPECT_GT(merges, 10'000);
    EXPECT_TRUE(run_chain(5 * (Cycle{1} << 31) + 12'345) == base);
    EXPECT_TRUE(run_chain(3 * (Cycle{1} << 31) - 1'000) == base);
}

TEST(Cache, FillInFlightAcrossARebaseMergesAtItsArrival)
{
    LateMemory lower(1'000);
    Cache c(tiny_config(), &lower);
    const Cycle jump = Cycle{1} << 31;
    const PhysAddr early{0}, in_flight{kBlockSize}, trigger{2 * kBlockSize};
    c.access(early, AccessType::kLoad, 100);
    const AccessResult first = c.access(in_flight, AccessType::kLoad,
                                        jump - 500);
    ASSERT_GT(first.done, jump + 10);
    // This fill's port cycle is 2^31 past the base and rebases to it.
    c.access(trigger, AccessType::kLoad, jump + 10);
    const AccessResult merged = c.access(in_flight, AccessType::kLoad,
                                         jump + 20);
    EXPECT_TRUE(merged.merged);
    EXPECT_EQ(merged.done, first.done);
    const AccessResult hit = c.access(early, AccessType::kLoad, jump + 30);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.done, jump + 32);
}

TEST(Cache, FillsLandingUnder2To31CyclesLateFitAtAnyPortCycle)
{
    // Whatever the port cycle, the base trails it by less than 2^31
    // once the fill is stored, so a fill landing less than 2^31 - 4
    // cycles after it has an offset below 2^32.
    const Cycle delay = (Cycle{1} << 31) - 10;
    LateMemory lower(delay);
    Cache c(tiny_config(), &lower);
    const Cycle starts[] = {0, (Cycle{1} << 31) - 1, (Cycle{1} << 32) - 1,
                            3 * (Cycle{1} << 32)};
    Addr block = 0;
    for (const Cycle now : starts) {
        SCOPED_TRACE(now);
        const PhysAddr paddr{block++ * kBlockSize};
        const AccessResult fill = c.access(paddr, AccessType::kLoad, now);
        EXPECT_EQ(fill.done, now + 2 + delay + 2);
        const AccessResult merged = c.access(paddr, AccessType::kLoad, now);
        EXPECT_TRUE(merged.merged);
        EXPECT_EQ(merged.done, fill.done);
    }
}

TEST(CacheDeath, RefusesAFillPastItsOffsetWidth)
{
    // Request at cycle 0, lookup done at 2, fill at 2 + delay + 2: a
    // delay of 2^32 - 5 lands on the widest offset, 2^32 - 1, and
    // merges exactly; one cycle more needs offset 2^32 and aborts.
    const Cycle widest = (Cycle{1} << 32) - 1;
    LateMemory last(widest - 4);
    Cache fits(tiny_config(), &last);
    const AccessResult fill = fits.access(PhysAddr{0}, AccessType::kLoad, 0);
    ASSERT_EQ(fill.done, widest);
    const AccessResult merged =
        fits.access(PhysAddr{0}, AccessType::kLoad, 10);
    EXPECT_TRUE(merged.merged);
    EXPECT_EQ(merged.done, widest);

    LateMemory late(widest - 3);
    Cache c(tiny_config(), &late);
    EXPECT_DEATH(c.access(PhysAddr{0}, AccessType::kLoad, 0),
                 "cycles past its cache's fill base");
}

}  // namespace
}  // namespace moka
