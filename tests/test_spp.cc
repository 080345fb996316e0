/** @file Unit tests for the SPP (L2C) prefetcher. */
#include <gtest/gtest.h>

#include "prefetch/spp.h"

namespace moka {
namespace {

std::vector<PrefetchRequest>
access(Spp &spp, Addr paddr)
{
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    ctx.vaddr = VirtAddr{paddr};  // SPP: physical stream via the adapter seam
    ctx.pc = 0x400100;
    spp.on_access(ctx, out);
    return out;
}

TEST(Spp, NoPredictionOnFreshPage)
{
    Spp spp(SppConfig{});
    EXPECT_TRUE(access(spp, 0x100000).empty());
}

TEST(Spp, LearnsConstantDeltaWithinPage)
{
    Spp spp(SppConfig{});
    std::vector<PrefetchRequest> out;
    // Several pages with the same +2-line pattern build signature
    // confidence.
    for (Addr page = 0; page < 16; ++page) {
        const Addr base = 0x100000 + page * kPageSize;
        for (unsigned i = 0; i < 20; ++i) {
            out = access(spp, base + Addr(i) * 2 * kBlockSize);
        }
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].delta, 2);
}

TEST(Spp, NeverCrossesPhysicalPage)
{
    Spp spp(SppConfig{});
    std::vector<PrefetchRequest> out;
    for (Addr page = 0; page < 16; ++page) {
        const Addr base = 0x200000 + page * kPageSize;
        for (unsigned i = 0; i < 30; ++i) {
            out = access(spp, base + Addr(i) * 2 * kBlockSize);
            for (const PrefetchRequest &r : out) {
                EXPECT_EQ(page_number(r.vaddr), page_number(VirtAddr{base}))
                    << "SPP crossed a physical page";
            }
        }
    }
}

TEST(Spp, LookaheadDepthBounded)
{
    SppConfig cfg;
    cfg.max_depth = 3;
    Spp spp(cfg);
    std::vector<PrefetchRequest> out;
    for (Addr page = 0; page < 16; ++page) {
        const Addr base = 0x300000 + page * kPageSize;
        for (unsigned i = 0; i < 30; ++i) {
            out = access(spp, base + Addr(i) * kBlockSize);
            EXPECT_LE(out.size(), 3u);
        }
    }
}

TEST(Spp, RandomOffsetsStayQuiet)
{
    Spp spp(SppConfig{});
    std::uint64_t x = 5;
    std::vector<PrefetchRequest> out;
    std::size_t emitted = 0;
    for (int i = 0; i < 3000; ++i) {
        x = x * 6364136223846793005ull + 1;
        out = access(spp, (x % (1u << 28)) & ~(kBlockSize - 1));
        emitted += out.size();
    }
    // Random pages produce almost no confident paths.
    EXPECT_LT(emitted, 100u);
}

TEST(SppDeath, NonPow2SignatureTableAborts)
{
    SppConfig cfg;
    cfg.st_entries = 96;
    EXPECT_DEATH({ Spp spp(cfg); },
                 "SPP signature-table entries must be a power of two");
}

TEST(SppDeath, NonPow2PatternTableAborts)
{
    SppConfig cfg;
    cfg.pt_entries = 96;
    EXPECT_DEATH({ Spp spp(cfg); },
                 "SPP pattern-table entries must be a power of two");
}

}  // namespace
}  // namespace moka
