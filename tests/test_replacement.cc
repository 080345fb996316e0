/** @file Unit tests for the caches' replacement policies, driven
 *  through Cache::access and observed through Cache::probe. */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "audit/audit.h"
#include "cache/cache.h"

namespace moka {
namespace {

/** A memoryless cache (misses complete locally) of @p kind. */
Cache
make_cache(ReplacementKind kind, std::uint32_t sets, std::uint32_t ways)
{
    CacheConfig cfg;
    cfg.sets = sets;
    cfg.ways = ways;
    cfg.replacement = kind;
    return Cache(cfg, nullptr);
}

/** The @p i-th distinct block that indexes to @p set. */
PhysAddr
block(std::uint32_t sets, std::uint32_t set, Addr i)
{
    return PhysAddr{(i * sets + set) * kBlockSize};
}

/** Loads @p paddr one step after the previous call. */
void
load(Cache &c, PhysAddr paddr)
{
    static Cycle now = 0;
    now += 10;
    (void)c.access(paddr, AccessType::kLoad, now);
}

TEST(Replacement, LruEvictsOldest)
{
    Cache c = make_cache(ReplacementKind::kLru, 2, 4);
    for (Addr i = 0; i < 4; ++i) {
        load(c, block(2, 0, i));
    }
    load(c, block(2, 0, 0));  // block 1 is now the oldest
    load(c, block(2, 0, 4));
    EXPECT_FALSE(c.probe(block(2, 0, 1)));
    for (Addr i : {0, 2, 3, 4}) {
        EXPECT_TRUE(c.probe(block(2, 0, i))) << i;
    }
    load(c, block(2, 0, 2));  // oldest first: 3, 0, 4, 2
    load(c, block(2, 0, 5));
    EXPECT_FALSE(c.probe(block(2, 0, 3)));
    load(c, block(2, 0, 6));
    EXPECT_FALSE(c.probe(block(2, 0, 0)));
    for (Addr i : {2, 4, 5, 6}) {
        EXPECT_TRUE(c.probe(block(2, 0, i))) << i;
    }
}

TEST(Replacement, LruSetsIndependent)
{
    Cache c = make_cache(ReplacementKind::kLru, 2, 2);
    load(c, block(2, 0, 0));
    load(c, block(2, 0, 1));
    load(c, block(2, 1, 0));
    load(c, block(2, 1, 1));
    load(c, block(2, 0, 0));  // touches set 0 only
    load(c, block(2, 0, 2));
    load(c, block(2, 1, 2));
    EXPECT_TRUE(c.probe(block(2, 0, 0)));
    EXPECT_FALSE(c.probe(block(2, 0, 1)));
    EXPECT_FALSE(c.probe(block(2, 1, 0)));
    EXPECT_TRUE(c.probe(block(2, 1, 1)));
}

TEST(Replacement, SrripHitPromotes)
{
    // A fill predicts a long re-reference interval (RRPV 2) and a hit
    // a near one (RRPV 0), so a hit block outlives the next fill,
    // where LRU would evict the hit block first.
    Cache c = make_cache(ReplacementKind::kSrrip, 1, 2);
    load(c, block(1, 0, 0));
    load(c, block(1, 0, 1));
    load(c, block(1, 0, 0));  // hit: block 0 to RRPV 0
    load(c, block(1, 0, 2));  // ages 0 to 1, 1 to 3: evicts 1
    EXPECT_FALSE(c.probe(block(1, 0, 1)));
    load(c, block(1, 0, 3));  // ages 0 to 2, 2 to 3: evicts 2
    EXPECT_TRUE(c.probe(block(1, 0, 0)));
    EXPECT_FALSE(c.probe(block(1, 0, 2)));
    EXPECT_TRUE(c.probe(block(1, 0, 3)));

    Cache lru = make_cache(ReplacementKind::kLru, 1, 2);
    for (Addr i : {0, 1, 0, 2, 3}) {
        load(lru, block(1, 0, i));
    }
    EXPECT_FALSE(lru.probe(block(1, 0, 0)));
    EXPECT_TRUE(lru.probe(block(1, 0, 2)));
}

TEST(Replacement, RandomCoversAllWays)
{
    // Ways fill in order, so ways[w] is the block in way w; each new
    // block replaces the one block that is no longer resident.
    Cache c = make_cache(ReplacementKind::kRandom, 1, 4);
    std::vector<PhysAddr> ways;
    for (Addr i = 0; i < 4; ++i) {
        ways.push_back(block(1, 0, i));
        load(c, ways.back());
    }
    std::set<std::size_t> victims;
    for (Addr i = 4; i < 204; ++i) {
        load(c, block(1, 0, i));
        std::vector<std::size_t> gone;
        for (std::size_t w = 0; w < ways.size(); ++w) {
            if (!c.probe(ways[w])) {
                gone.push_back(w);
            }
        }
        ASSERT_EQ(gone.size(), 1u);
        ways[gone[0]] = block(1, 0, i);
        victims.insert(gone[0]);
    }
    EXPECT_EQ(victims.size(), 4u);
}

/**
 * Property: every policy evicts exactly one block of the filled set
 * and nothing of any other set, so its victim is a way of that set.
 */
class VictimBounds : public ::testing::TestWithParam<ReplacementKind>
{
};

TEST_P(VictimBounds, AlwaysInRange)
{
    constexpr std::uint32_t kSets = 8;
    constexpr std::uint32_t kWays = 6;
    Cache c = make_cache(GetParam(), kSets, kWays);
    std::vector<std::vector<PhysAddr>> resident(kSets);
    Addr next = 0;
    for (std::uint32_t s = 0; s < kSets; ++s) {
        for (std::uint32_t w = 0; w < kWays; ++w) {
            resident[s].push_back(block(kSets, s, next++));
            load(c, resident[s].back());
        }
    }
    for (int i = 0; i < 500; ++i) {
        const std::uint32_t set = static_cast<std::uint32_t>(i % kSets);
        std::vector<PhysAddr> &row = resident[set];
        const PhysAddr fresh = block(kSets, set, next++);
        load(c, fresh);
        ASSERT_TRUE(c.probe(fresh));
        std::size_t gone = kWays;
        for (std::size_t w = 0; w < kWays; ++w) {
            if (!c.probe(row[w])) {
                ASSERT_EQ(gone, kWays) << "two blocks evicted";
                gone = w;
            }
        }
        ASSERT_LT(gone, kWays) << "no block of the set evicted";
        row[gone] = fresh;
        load(c, row[(gone + 1) % kWays]);  // a hit
        for (std::uint32_t s = 0; s < kSets; ++s) {
            for (const PhysAddr b : resident[s]) {
                ASSERT_TRUE(c.probe(b)) << "set " << s;
            }
        }
    }
    AuditReport report;
    audit::audit_cache(c, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Policies, VictimBounds,
                         ::testing::Values(ReplacementKind::kLru,
                                           ReplacementKind::kSrrip,
                                           ReplacementKind::kRandom));

}  // namespace
}  // namespace moka
