/** @file Unit tests for the IPCP prefetcher. */
#include <gtest/gtest.h>

#include "prefetch/ipcp.h"

namespace moka {
namespace {

std::vector<PrefetchRequest>
access(Ipcp &ipcp, Addr pc, Addr vaddr, bool hit = false, Cycle now = 0)
{
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    ctx.pc = pc;
    ctx.vaddr = VirtAddr{vaddr};
    ctx.hit = hit;
    ctx.now = now;
    ipcp.on_access(ctx, out);
    return out;
}

TEST(Ipcp, NextLineOnFreshIpMiss)
{
    Ipcp ipcp(IpcpConfig{});
    const auto out = access(ipcp, 0x400100, 0x100000, /*hit=*/false);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].delta, 1);
    EXPECT_EQ(out[0].vaddr, VirtAddr{0x100000 + kBlockSize});
}

TEST(Ipcp, ConstantStrideClassified)
{
    // The default IP table indexes by mask; ISO Storage's 96 entries
    // take the modulo lookup.
    for (const unsigned ip_entries : {64u, 96u}) {
        IpcpConfig cfg;
        cfg.ip_entries = ip_entries;
        Ipcp ipcp(cfg);
        const std::int64_t stride = 3;
        std::vector<PrefetchRequest> out;
        // Spread the accesses across sparse regions so the GS detector
        // stays quiet and the CS class fires.
        for (int i = 0; i < 10; ++i) {
            out = access(ipcp, 0x400200,
                         0x100000 + Addr(i) * stride * kBlockSize);
        }
        ASSERT_FALSE(out.empty()) << ip_entries;
        EXPECT_EQ(out[0].delta, stride) << ip_entries;
        // Degree: multiples of the stride.
        for (std::size_t d = 0; d < out.size(); ++d) {
            EXPECT_EQ(out[d].delta, stride * std::int64_t(d + 1))
                << ip_entries;
        }
    }
}

TEST(Ipcp, GlobalStreamOnDenseRegion)
{
    IpcpConfig cfg;
    Ipcp ipcp(cfg);
    std::vector<PrefetchRequest> out;
    // Touch a 2KB region densely with one IP.
    for (unsigned i = 0; i < cfg.region_lines; ++i) {
        out = access(ipcp, 0x400300, 0x200000 + Addr(i) * kBlockSize);
    }
    ASSERT_GE(out.size(), cfg.gs_degree - 1);
    EXPECT_EQ(out[0].delta, 1);
}

TEST(Ipcp, NoPrefetchOnHitForFreshIp)
{
    Ipcp ipcp(IpcpConfig{});
    const auto out = access(ipcp, 0x400400, 0x100000, /*hit=*/true);
    EXPECT_TRUE(out.empty());
}

TEST(Ipcp, CandidatesCarryTriggerContext)
{
    Ipcp ipcp(IpcpConfig{});
    std::vector<PrefetchRequest> out;
    for (int i = 0; i < 12; ++i) {
        out = access(ipcp, 0x400500, 0x300000 + Addr(i) * 2 * kBlockSize);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].trigger_pc, 0x400500u);
    EXPECT_EQ(page_number(out[0].trigger_vaddr),
              page_number(VirtAddr{0x300000 + 11 * 2 * kBlockSize}));
}

TEST(Ipcp, StrideChangeRetrains)
{
    Ipcp ipcp(IpcpConfig{});
    std::vector<PrefetchRequest> out;
    for (int i = 0; i < 10; ++i) {
        out = access(ipcp, 0x400600, 0x400000 + Addr(i) * 2 * kBlockSize);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].delta, 2);
    // Switch to stride 5; after retraining the new stride wins.
    const Addr base = 0x400000 + 10 * 2 * kBlockSize;
    for (int i = 0; i < 12; ++i) {
        out = access(ipcp, 0x400600, base + Addr(i) * 5 * kBlockSize);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].delta, 5);
}

TEST(IpcpDeath, NonPow2RegionAborts)
{
    IpcpConfig cfg;
    cfg.region_lines = 96;
    EXPECT_DEATH({ Ipcp ipcp(cfg); },
                 "IPCP region lines must be a power of two, at most 64");
}

TEST(IpcpDeath, NonPow2CsptAborts)
{
    IpcpConfig cfg;
    cfg.cspt_entries = 96;
    EXPECT_DEATH({ Ipcp ipcp(cfg); },
                 "IPCP CSPT entries must be a power of two");
}

}  // namespace
}  // namespace moka
