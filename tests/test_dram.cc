/** @file Unit tests for the DRAM model. */
#include <gtest/gtest.h>

#include "dram/dram.h"

namespace moka {
namespace {

DramConfig
small_config()
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.banks = 2;
    cfg.row_hit_latency = 90;
    cfg.row_miss_latency = 180;
    cfg.burst_cycles = 3;
    return cfg;
}

TEST(Dram, FirstAccessIsRowMiss)
{
    Dram dram(small_config());
    const AccessResult r = dram.access(PhysAddr{0x1000}, AccessType::kLoad, 100);
    EXPECT_EQ(r.done, 100 + 180);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(dram.row_hits(), 0u);
    EXPECT_EQ(dram.accesses(), 1u);
}

TEST(Dram, SameRowHitsAfterActivation)
{
    Dram dram(small_config());
    dram.access(PhysAddr{0x0}, AccessType::kLoad, 0);
    // +2 blocks returns to bank 0 within the same row (rows span
    // 2^column_bits blocks per bank).
    const AccessResult r = dram.access(PhysAddr{2 * kBlockSize}, AccessType::kLoad,
                                       10000);
    EXPECT_EQ(r.done, 10000 + 90);
    EXPECT_EQ(dram.row_hits(), 1u);
}

TEST(Dram, BankContentionSerializes)
{
    Dram dram(small_config());
    const AccessResult a = dram.access(PhysAddr{0x0}, AccessType::kLoad, 0);
    // Immediately reuse the same bank: the second access cannot start
    // before the bank frees.
    const AccessResult b = dram.access(PhysAddr{2 * kBlockSize}, AccessType::kLoad, 0);
    EXPECT_GT(b.done, a.done - 180 + 90);  // started after bank busy
    EXPECT_GE(b.done, 90u);
}

TEST(Dram, ChannelBusAddsBackToBackDelay)
{
    DramConfig cfg = small_config();
    cfg.banks = 64;  // avoid bank conflicts
    Dram dram(cfg);
    Cycle prev_done = 0;
    for (int i = 0; i < 8; ++i) {
        const AccessResult r =
            dram.access(PhysAddr{static_cast<Addr>(i) * kBlockSize},
                        AccessType::kLoad, 0);
        EXPECT_GE(r.done, prev_done == 0 ? 0 : cfg.burst_cycles);
        prev_done = r.done;
    }
    EXPECT_EQ(dram.accesses(), 8u);
}

TEST(Dram, TypeCountersSplit)
{
    Dram dram(small_config());
    dram.access(PhysAddr{0}, AccessType::kLoad, 0);
    dram.access(PhysAddr{64}, AccessType::kPrefetch, 0);
    dram.access(PhysAddr{128}, AccessType::kPageWalk, 0);
    EXPECT_EQ(dram.accesses(), 3u);
    EXPECT_EQ(dram.prefetch_accesses(), 1u);
    EXPECT_EQ(dram.walk_accesses(), 1u);
}

TEST(DramDeath, NonPow2ChannelsAbort)
{
    DramConfig cfg = small_config();
    cfg.channels = 3;
    EXPECT_DEATH({ Dram dram(cfg); }, "DRAM channels must be a power of two");
}

TEST(DramDeath, NonPow2BanksAbort)
{
    DramConfig cfg = small_config();
    cfg.banks = 3;
    EXPECT_DEATH({ Dram dram(cfg); }, "DRAM banks must be a power of two");
}

}  // namespace
}  // namespace moka
