/** @file Unit tests for the radix page table + frame allocator. */
#include <gtest/gtest.h>

#include <set>

#include "audit/access.h"
#include "vmem/page_table.h"

namespace moka {
namespace {

VmemConfig
config(double large_fraction = 0.0, std::uint64_t seed = 1)
{
    VmemConfig cfg;
    cfg.phys_bytes = Addr{1} << 30;
    cfg.large_page_fraction = large_fraction;
    cfg.seed = seed;
    return cfg;
}

TEST(PageTable, TranslationIsStable)
{
    PageTable pt(config());
    const VirtAddr va{0x12345678};
    const Translation t1 = pt.translate(va);
    const Translation t2 = pt.translate(va);
    EXPECT_EQ(t1.paddr, t2.paddr);
    EXPECT_FALSE(t1.large);
}

TEST(PageTable, OffsetPreserved)
{
    PageTable pt(config());
    const Translation t = pt.translate(VirtAddr{0xABC123});
    EXPECT_EQ(page_offset(t.paddr), page_offset(Addr{0xABC123}));
}

TEST(PageTable, DistinctPagesGetDistinctFrames)
{
    PageTable pt(config());
    std::set<Addr> frames;
    for (Addr p = 0; p < 500; ++p) {
        const Translation t = pt.translate(VirtAddr{0x40000000 + p * kPageSize});
        frames.insert(page_addr(t.paddr).raw());
    }
    EXPECT_EQ(frames.size(), 500u);
}

TEST(PageTable, ContiguityIsDestroyed)
{
    // Randomized allocation: adjacent virtual pages should rarely be
    // adjacent physically (the VIPT-prefetching premise).
    PageTable pt(config());
    unsigned adjacent = 0;
    PhysAddr prev = pt.translate(VirtAddr{0x40000000}).paddr;
    for (Addr p = 1; p < 200; ++p) {
        const PhysAddr cur = pt.translate(VirtAddr{0x40000000 + p * kPageSize}).paddr;
        if (page_addr(cur) == page_addr(prev) + kPageSize) {
            ++adjacent;
        }
        prev = cur;
    }
    EXPECT_LT(adjacent, 5u);
}

TEST(PageTable, WalkLevelsFor4K)
{
    PageTable pt(config());
    std::array<PhysAddr, 5> addrs;
    EXPECT_EQ(pt.walk_addresses(VirtAddr{0x40000000}, addrs), 5u);
    // Each PTE address must be 8-byte aligned and inside a 4KB table.
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(addrs[i].raw() % 8, 0u);
    }
}

TEST(PageTable, WalkLevelsFor2M)
{
    PageTable pt(config(1.0));
    std::array<PhysAddr, 5> addrs;
    EXPECT_EQ(pt.walk_addresses(VirtAddr{0x40000000}, addrs), 4u);
    const Translation t = pt.translate(VirtAddr{0x40000000});
    EXPECT_TRUE(t.large);
    // 2MB-aligned frame.
    EXPECT_EQ(large_page_offset(t.paddr),
              Addr{0x40000000} & (kLargePageSize - 1));
}

TEST(PageTable, AdjacentPagesShareLeafTable)
{
    PageTable pt(config());
    std::array<PhysAddr, 5> a, b;
    pt.walk_addresses(VirtAddr{0x40000000}, a);
    pt.walk_addresses(VirtAddr{0x40000000 + kPageSize}, b);
    // Same PT leaf page, consecutive entries.
    EXPECT_EQ(page_addr(a[4]), page_addr(b[4]));
    EXPECT_EQ(b[4], a[4] + 8);
    // Upper levels identical.
    EXPECT_EQ(a[0], b[0]);
    EXPECT_EQ(a[3], b[3]);
}

TEST(PageTable, LargeRegionDecisionDeterministic)
{
    PageTable pt1(config(0.5, 99));
    PageTable pt2(config(0.5, 99));
    for (Addr r = 0; r < 64; ++r) {
        const VirtAddr va{r * kLargePageSize};
        EXPECT_EQ(pt1.is_large_region(va), pt2.is_large_region(va));
    }
}

TEST(PageTable, LargeFractionRoughlyHonored)
{
    PageTable pt(config(0.5, 7));
    unsigned large = 0;
    const unsigned n = 400;
    for (Addr r = 0; r < n; ++r) {
        large += pt.is_large_region(VirtAddr{r * kLargePageSize}) ? 1 : 0;
    }
    EXPECT_GT(large, n / 3);
    EXPECT_LT(large, 2 * n / 3);
}

TEST(PageTable, AcceptsPhysicalMemoryUpTo128GiB)
{
    VmemConfig cfg = config(0.5);
    cfg.phys_bytes = PageTable::kMaxPhysBytes;
    PageTable pt(cfg);
    for (Addr r = 0; r < 16; ++r) {
        EXPECT_LT(pt.translate(VirtAddr{r * kLargePageSize}).paddr.raw(),
                  PageTable::kMaxPhysBytes);
    }
}

TEST(PageTableDeath, RefusesPhysicalMemoryPast128GiB)
{
    VmemConfig cfg = config();
    cfg.phys_bytes = Addr{1} << 38;
    EXPECT_DEATH({ PageTable pt(cfg); }, "above 128 GiB");
}

/** Slots of the page map, then of each table map. */
struct Reserved
{
    std::size_t page_map;
    std::size_t other_maps;
};

/**
 * A table at @p large_fraction and @p bound reserves @p r; its
 * large-page map reserves as a table map does when the config maps
 * large pages, and keeps the 64-slot floor when it maps none.
 */
void
expect_reserved(double large_fraction, std::size_t bound, const Reserved &r)
{
    PageTable pt(config(large_fraction), bound);
    EXPECT_EQ(pt.page_bound(), bound);
    EXPECT_EQ(AuditAccess::page_map(pt).capacity_slots(), r.page_map);
    EXPECT_EQ(AuditAccess::large_page_map(pt).capacity_slots(),
              large_fraction > 0.0 ? r.other_maps : 64u);
    for (const FlatAddrMap &table : AuditAccess::tables(pt)) {
        EXPECT_EQ(table.capacity_slots(), r.other_maps);
    }
}

TEST(PageTable, NoBoundReservesTheCaps)
{
    // 65536 page-map entries and 1024 per other map, at 50% load.
    for (const double large : {0.0, 0.5}) {
        SCOPED_TRACE(large);
        expect_reserved(large, 0, {131072, 2048});
    }
}

TEST(PageTable, BoundReservesUpToTheCaps)
{
    const struct
    {
        std::size_t bound;
        Reserved slots;
    } cases[] = {
        {1, {64, 64}},            // the 64-slot floor
        {300, {1024, 1024}},
        {1024, {2048, 2048}},     // the table maps' cap
        {8198, {32768, 2048}},
        {65536, {131072, 2048}},  // the page map's cap
        {1'000'000, {131072, 2048}},
    };
    for (const auto &c : cases) {
        for (const double large : {0.0, 0.5}) {
            SCOPED_TRACE(testing::Message()
                         << "bound " << c.bound << ", large " << large);
            expect_reserved(large, c.bound, c.slots);
        }
    }
}

TEST(PageTable, MappedPagesCounts)
{
    PageTable pt(config());
    EXPECT_EQ(pt.mapped_pages(), 0u);
    pt.translate(VirtAddr{0x1000});
    pt.translate(VirtAddr{0x1100});  // same page
    pt.translate(VirtAddr{0x2000});
    EXPECT_EQ(pt.mapped_pages(), 2u);
}

}  // namespace
}  // namespace moka
