/** @file Unit tests for the Best-Offset prefetcher. */
#include <gtest/gtest.h>

#include "prefetch/bop.h"

namespace moka {
namespace {

void
miss(Bop &bop, Addr vaddr, std::vector<PrefetchRequest> &out, Cycle now = 0)
{
    out.clear();
    PrefetchContext ctx;
    ctx.vaddr = VirtAddr{vaddr};
    ctx.pc = 0x400100;
    ctx.hit = false;
    ctx.now = now;
    bop.on_access(ctx, out);
}

TEST(Bop, StartsActiveWithOffsetOne)
{
    Bop bop(BopConfig{});
    EXPECT_EQ(bop.best_offset(), 1);
    std::vector<PrefetchRequest> out;
    miss(bop, 0x100000, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].delta, 1);
}

TEST(Bop, LearnsStrideOffsetFromFillTiming)
{
    BopConfig cfg;
    cfg.round_max = 8;
    Bop bop(cfg);
    // Stream with stride 4 blocks, where fills complete immediately
    // (on_fill called right after each access): offsets that are
    // multiples of 4 score, others cannot.
    Addr a = 0x100000;
    std::vector<PrefetchRequest> out;
    for (int i = 0; i < 2000; ++i) {
        miss(bop, a, out);
        bop.on_fill(VirtAddr{a}, 0, /*was_prefetch=*/false);
        a += 4 * kBlockSize;
        if (bop.best_offset() % 4 == 0 && bop.best_offset() > 0) {
            break;  // converged
        }
    }
    EXPECT_EQ(bop.best_offset() % 4, 0) << "best=" << bop.best_offset();
}

TEST(Bop, GoesInactiveOnRandomPattern)
{
    BopConfig cfg;
    cfg.round_max = 4;
    Bop bop(cfg);
    std::vector<PrefetchRequest> out;
    std::uint64_t x = 99;
    for (int i = 0; i < 4000; ++i) {
        x = x * 6364136223846793005ull + 1;
        miss(bop, (x % (1u << 28)) & ~(kBlockSize - 1), out);
    }
    // After learning rounds with no scoring offset, prefetching stops.
    EXPECT_EQ(bop.best_offset(), 0);
    miss(bop, 0x100000, out);
    EXPECT_TRUE(out.empty());
}

TEST(Bop, PrefetchFillInsertsShiftedBase)
{
    // After a prefetch fill of Y with offset D, accessing Y must give
    // offset D a scoring opportunity (Y - D is in the RR table).
    BopConfig cfg;
    cfg.round_max = 4;
    cfg.bad_score = 1;  // any scoring offset keeps prefetching on
    Bop bop(cfg);
    std::vector<PrefetchRequest> out;
    Addr a = 0x200000;
    for (int i = 0; i < 800; ++i) {
        miss(bop, a, out);
        bop.on_fill(VirtAddr{a}, 0, /*was_prefetch=*/false);
        if (!out.empty()) {
            bop.on_fill(out[0].vaddr, 0, /*was_prefetch=*/true);
        }
        a += kBlockSize;
    }
    // The sequential stream keeps offset 1 (or a small positive) alive.
    EXPECT_GT(bop.best_offset(), 0);
}

TEST(Bop, CandidatesCrossPagesFreely)
{
    Bop bop(BopConfig{});
    std::vector<PrefetchRequest> out;
    miss(bop, 0x100000 + kPageSize - kBlockSize, out);
    ASSERT_FALSE(out.empty());
    EXPECT_TRUE(crosses_page(VirtAddr{0x100000 + kPageSize - kBlockSize},
                             out[0].vaddr));
}

TEST(BopDeath, NonPow2RecentRequestTableAborts)
{
    BopConfig cfg;
    cfg.rr_entries = 96;
    EXPECT_DEATH({ Bop bop(cfg); },
                 "BOP recent-request entries must be a power of two");
}

}  // namespace
}  // namespace moka
