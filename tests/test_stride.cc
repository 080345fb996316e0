/** @file Unit tests for the classic IP-stride prefetcher. */
#include <gtest/gtest.h>

#include "prefetch/stride.h"

namespace moka {
namespace {

std::vector<PrefetchRequest>
access(StridePrefetcher &pf, Addr pc, Addr vaddr)
{
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    ctx.pc = pc;
    ctx.vaddr = VirtAddr{vaddr};
    pf.on_access(ctx, out);
    return out;
}

TEST(Stride, LearnsConstantStride)
{
    StridePrefetcher pf(StridePrefetcherConfig{});
    std::vector<PrefetchRequest> out;
    for (int i = 0; i < 6; ++i) {
        out = access(pf, 0x400100, 0x100000 + Addr(i) * 5 * kBlockSize);
    }
    ASSERT_EQ(out.size(), 2u);  // degree 2
    EXPECT_EQ(out[0].delta, 5);
    EXPECT_EQ(out[1].delta, 10);
}

TEST(Stride, QuietUntilConfident)
{
    StridePrefetcher pf(StridePrefetcherConfig{});
    EXPECT_TRUE(access(pf, 0x1, 0x100000).empty());
    EXPECT_TRUE(access(pf, 0x1, 0x100000 + 3 * kBlockSize).empty());
}

TEST(Stride, RandomPatternNeverFires)
{
    StridePrefetcher pf(StridePrefetcherConfig{});
    std::uint64_t x = 17;
    std::size_t emitted = 0;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1;
        emitted += access(pf, 0x2, (x % (1u << 28)) & ~63ull).size();
    }
    EXPECT_LT(emitted, 50u);
}

TEST(Stride, NegativeStrideSupported)
{
    StridePrefetcher pf(StridePrefetcherConfig{});
    std::vector<PrefetchRequest> out;
    const Addr base = 0x800000;
    for (int i = 0; i < 6; ++i) {
        out = access(pf, 0x3, base - Addr(i) * 2 * kBlockSize);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].delta, -2);
}

TEST(Stride, FactoryIntegration)
{
    const PrefetcherPtr pf =
        make_l1d_prefetcher(L1dPrefetcherKind::kStride);
    ASSERT_NE(pf, nullptr);
    EXPECT_EQ(pf->name(), "stride");
    EXPECT_EQ(parse_l1d_kind("stride"), L1dPrefetcherKind::kStride);
}

TEST(StrideDeath, NonPow2TableAborts)
{
    StridePrefetcherConfig cfg;
    cfg.entries = 96;
    EXPECT_DEATH({ StridePrefetcher pf(cfg); },
                 "stride-prefetcher entries must be a power of two");
}

TEST(PrefetcherFactory, BuildsEveryShippedConfiguration)
{
    // Every hashed table a factory builds is a power of two, which
    // the constructors require, except IPCP's ISO Storage IP table
    // (96 entries), which may take any size.
    for (const L1dPrefetcherKind kind :
         {L1dPrefetcherKind::kBerti, L1dPrefetcherKind::kIpcp,
          L1dPrefetcherKind::kBop, L1dPrefetcherKind::kStride,
          L1dPrefetcherKind::kNextLine}) {
        for (const bool iso : {false, true}) {
            EXPECT_NE(make_l1d_prefetcher(kind, iso), nullptr);
        }
    }
    for (const L2PrefetcherKind kind :
         {L2PrefetcherKind::kSpp, L2PrefetcherKind::kIpcp,
          L2PrefetcherKind::kBop}) {
        EXPECT_NE(make_l2_prefetcher(kind), nullptr);
    }
}

}  // namespace
}  // namespace moka
