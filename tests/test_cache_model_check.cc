/**
 * @file
 * Model-checking tests: drive the Cache and Tlb with random traffic
 * and compare hit/miss outcomes against simple golden reference
 * models (a map-of-sets LRU). Catches indexing/tagging/replacement
 * regressions that example-based tests miss.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <vector>

#include "cache/cache.h"
#include "common/rng.h"
#include "vmem/tlb.h"

namespace moka {
namespace {

/** Golden fully-explicit LRU set-associative model. */
class GoldenCache
{
  public:
    GoldenCache(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), data_(sets)
    {
    }

    /** True when resident; touches LRU. Installs on miss. */
    bool
    access(Addr block)
    {
        auto &set = data_[block & (sets_ - 1)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == block) {
                set.erase(it);
                set.push_front(block);
                return true;
            }
        }
        set.push_front(block);
        if (set.size() > ways_) {
            set.pop_back();
        }
        return false;
    }

  private:
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<std::list<Addr>> data_;
};

/** Cache geometry sweep parameter. */
struct Geometry
{
    std::uint32_t sets;
    std::uint32_t ways;
};

class CacheModelCheck : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheModelCheck, MatchesGoldenLru)
{
    const Geometry g = GetParam();
    CacheConfig cfg;
    cfg.sets = g.sets;
    cfg.ways = g.ways;
    cfg.latency = 1;
    cfg.mshr_entries = 64;
    Cache cache(cfg, nullptr);
    GoldenCache golden(g.sets, g.ways);

    Rng rng(g.sets * 1000 + g.ways);
    Cycle now = 0;
    // At least 8 accesses per block, so large geometries fill every
    // set and run through many victim choices.
    const std::uint64_t steps =
        std::max<std::uint64_t>(20000, std::uint64_t{8} * g.sets * g.ways);
    for (std::uint64_t i = 0; i < steps; ++i) {
        // Footprint ~4x the cache so hits and misses both occur.
        const Addr block = rng.below(std::uint64_t(g.sets) * g.ways * 4);
        const Addr paddr = block << kBlockBits;
        now += 10;  // fills complete before the next access
        const AccessResult r =
            cache.access(PhysAddr{paddr}, AccessType::kLoad, now);
        const bool golden_hit = golden.access(block);
        ASSERT_EQ(r.hit, golden_hit)
            << "divergence at step " << i << " block " << block;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelCheck,
    ::testing::Values(Geometry{1, 1}, Geometry{1, 4}, Geometry{4, 1},
                      Geometry{16, 2}, Geometry{64, 8},
                      Geometry{128, 12}, Geometry{1024, 8},
                      Geometry{2048, 16}));

class TlbModelCheck : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(TlbModelCheck, MatchesGoldenLru)
{
    const Geometry g = GetParam();
    TlbConfig cfg;
    cfg.sets = g.sets;
    cfg.ways = g.ways;
    cfg.large_sets = 1;
    cfg.large_ways = 1;
    Tlb tlb(cfg);
    GoldenCache golden(g.sets, g.ways);

    Rng rng(g.sets * 77 + g.ways);
    for (int i = 0; i < 20000; ++i) {
        const Addr vpn = rng.below(std::uint64_t(g.sets) * g.ways * 4);
        const Addr vaddr = vpn << kPageBits;
        const Tlb::Result r = tlb.lookup(VirtAddr{vaddr}, 0, true);
        const bool golden_hit = golden.access(vpn);
        ASSERT_EQ(r.hit, golden_hit)
            << "divergence at step " << i << " vpn " << vpn;
        if (!r.hit) {
            tlb.fill(VirtAddr{vaddr}, PhysAddr{vpn << kPageBits}, false,
                     false);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbModelCheck,
                         ::testing::Values(Geometry{1, 2}, Geometry{4, 4},
                                           Geometry{16, 4},
                                           Geometry{128, 12}));

}  // namespace
}  // namespace moka
