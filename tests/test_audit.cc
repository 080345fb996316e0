/**
 * @file
 * Tests for the invariant auditors (src/audit/): healthy structures
 * must audit silent, and each class of injected corruption — PCB bits
 * desynchronized from the pUB, perceptron weights pushed past their
 * rails, TLB entries desynchronized from the page table, and more —
 * must produce a finding. Corruption is injected through the
 * AuditAccess test window, never through public APIs, because the
 * public APIs are exactly what keeps these invariants true.
 */
#include <gtest/gtest.h>

#include "audit/access.h"
#include "audit/audit.h"
#include "filter/moka.h"
#include "filter/policies.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {
namespace {

VirtDecisionRecord
make_rec(Addr block_index)
{
    VirtDecisionRecord r;
    r.block = VirtAddr{block_index * kBlockSize};
    r.num_features = 1;
    r.indexes[0] = 0;
    return r;
}

MokaConfig
permissive_config()
{
    MokaConfig cfg;
    cfg.name = "test";
    cfg.program_features = {ProgramFeatureId::kDelta};
    cfg.system_features = {
        default_system_feature(SystemFeatureId::kStlbMpki)};
    cfg.threshold.adaptive = false;
    cfg.threshold.t_static = -4;  // cold weights (0) already permit
    return cfg;
}

// ---------------------------------------------------------------------------
// Failure handler plumbing
// ---------------------------------------------------------------------------

TEST(AuditReport, ForwardingRoutesToGlobalFailureCounter)
{
    const bool was_fatal = audit::fatal();
    audit::set_fatal(false);
    audit::reset_failures();

    AuditReport silent(/*forward=*/false);
    silent.fail("test", "not forwarded");
    EXPECT_EQ(audit::failure_count(), 0u);

    AuditReport forwarding(/*forward=*/true);
    forwarding.fail("test", "forwarded");
    EXPECT_EQ(audit::failure_count(), 1u);
    EXPECT_FALSE(forwarding.ok());
    EXPECT_NE(forwarding.to_string().find("forwarded"),
              std::string::npos);

    audit::reset_failures();
    audit::set_fatal(was_fatal);
}

TEST(AuditDeath, RequireViolationAborts)
{
    EXPECT_DEATH({ VirtUpdateBuffer buffer(0); },
                 "UpdateBuffer capacity must be positive");
}

// ---------------------------------------------------------------------------
// Update buffers
// ---------------------------------------------------------------------------

TEST(AuditUpdateBuffer, CleanBufferIsSilent)
{
    VirtUpdateBuffer buffer(4);
    buffer.insert(make_rec(1));
    buffer.insert(make_rec(2));
    VirtDecisionRecord out;
    ASSERT_TRUE(buffer.take(make_rec(1).block, out));

    AuditReport report;
    audit::audit_update_buffer(buffer, "ub", report);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditUpdateBuffer, DetectsPhantomFifoSlot)
{
    VirtUpdateBuffer buffer(4);
    buffer.insert(make_rec(1));
    AuditAccess::corrupt_ub_phantom_fifo_slot(buffer,
                                              VirtAddr{0x9999 * kBlockSize});

    AuditReport report;
    audit::audit_update_buffer(buffer, "ub", report);
    EXPECT_FALSE(report.ok());
}

TEST(AuditUpdateBuffer, DetectsIllegalFeatureCount)
{
    VirtUpdateBuffer buffer(4);
    buffer.insert(make_rec(1));
    ASSERT_TRUE(AuditAccess::corrupt_ub_feature_count(buffer));

    AuditReport report;
    audit::audit_update_buffer(buffer, "ub", report);
    EXPECT_FALSE(report.ok());
}

/**
 * Regression: a record taken and later re-inserted must not be the
 * overflow victim in place of the true oldest record. The stale FIFO
 * slot left by take() carries the old sequence number, so eviction
 * must skip it rather than kill the re-inserted (younger) record.
 */
TEST(AuditUpdateBuffer, OverflowEvictsOldestLiveNotReinsertedRecord)
{
    VirtUpdateBuffer buffer(4);
    buffer.insert(make_rec(1));  // A, oldest slot
    VirtDecisionRecord out;
    ASSERT_TRUE(buffer.take(make_rec(1).block, out));  // stale A slot
    buffer.insert(make_rec(2));
    buffer.insert(make_rec(3));
    buffer.insert(make_rec(4));
    buffer.insert(make_rec(1));  // re-insert A; buffer full: 2,3,4,A
    ASSERT_EQ(buffer.size(), 4u);

    buffer.insert(make_rec(5));  // overflow: must evict 2, not A

    EXPECT_EQ(buffer.overflow_evictions(), 1u);
    EXPECT_FALSE(buffer.take(make_rec(2).block, out)) << "oldest "
        "live record should have been the overflow victim";
    EXPECT_TRUE(buffer.take(make_rec(1).block, out)) << "re-inserted "
        "record was evicted through its stale FIFO slot";

    AuditReport report;
    audit::audit_update_buffer(buffer, "ub", report);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

/** The FIFO must not grow without bound under insert/take churn. */
TEST(AuditUpdateBuffer, FifoStaysBoundedUnderChurn)
{
    VirtUpdateBuffer buffer(8);
    VirtDecisionRecord out;
    for (Addr i = 0; i < 10'000; ++i) {
        buffer.insert(make_rec(i));
        ASSERT_TRUE(buffer.take(make_rec(i).block, out));
    }
    EXPECT_LE(AuditAccess::ub_fifo_size(buffer), 2 * buffer.capacity());

    AuditReport report;
    audit::audit_update_buffer(buffer, "ub", report);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// Perceptron weights / thresholds
// ---------------------------------------------------------------------------

TEST(AuditThreshold, DetectsEscapedAdaptiveThreshold)
{
    ThresholdConfig cfg;  // adaptive, clamp [-8, 14]
    AdaptiveThreshold threshold(cfg);
    AuditReport clean;
    audit::audit_threshold(threshold, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    AuditAccess::corrupt_threshold(threshold, 99);
    AuditReport report;
    audit::audit_threshold(threshold, report);
    EXPECT_FALSE(report.ok());
}

TEST(AuditThreshold, DetectsDriftedStaticThreshold)
{
    ThresholdConfig cfg;
    cfg.adaptive = false;
    cfg.t_static = 2;
    AdaptiveThreshold threshold(cfg);

    AuditAccess::corrupt_threshold(threshold, 3);
    AuditReport report;
    audit::audit_threshold(threshold, report);
    EXPECT_FALSE(report.ok());
}

TEST(AuditFilter, DetectsCorruptWeightThroughFullFilterAudit)
{
    MokaFilter filter(permissive_config());
    AuditReport clean;
    audit::audit_filter(filter, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    AuditAccess::corrupt_filter_weight(filter, 0, 0, -100);
    AuditReport report;
    audit::audit_filter(filter, report);
    EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// TLB vs page table
// ---------------------------------------------------------------------------

TEST(AuditTlb, DetectsTranslationDesyncFromPageTable)
{
    VmemConfig vmem;
    vmem.phys_bytes = Addr{1} << 30;
    PageTable table(vmem);
    Tlb tlb(TlbConfig{"dTLB", 16, 4, 1, 4, 1});

    const Addr va = 0x1234'5678'9000;
    const Translation tr = table.translate(VirtAddr{va});
    tlb.fill(VirtAddr{va}, page_addr(tr.paddr), false, false);

    AuditReport clean;
    audit::audit_tlb(tlb, table, clean);
    audit::audit_page_table(table, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    ASSERT_TRUE(AuditAccess::corrupt_tlb_page_base(tlb, kPageSize));
    AuditReport report;
    audit::audit_tlb(tlb, table, report);
    EXPECT_FALSE(report.ok());
}

TEST(AuditPageTable, DetectsMorePagesThanItsBound)
{
    VmemConfig vmem;
    vmem.phys_bytes = Addr{1} << 30;
    PageTable table(vmem, /*page_bound=*/3);
    for (Addr page = 0; page < 3; ++page) {
        table.translate(VirtAddr{0x4000'0000 + page * kPageSize});
    }
    AuditReport clean;
    audit::audit_page_table(table, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    // A fourth page: the workload under-declared its bound.
    table.translate(VirtAddr{0x4000'0000 + 3 * kPageSize});
    AuditReport report;
    audit::audit_page_table(table, report);
    EXPECT_FALSE(report.ok());

    // A table with no bound (a trace file's) has nothing to exceed.
    PageTable unbounded(vmem);
    for (Addr page = 0; page < 4; ++page) {
        unbounded.translate(VirtAddr{0x4000'0000 + page * kPageSize});
    }
    AuditReport none;
    audit::audit_page_table(unbounded, none);
    EXPECT_TRUE(none.ok()) << none.to_string();
}

TEST(AuditTlb, DetectsEntryForUnmappedPage)
{
    VmemConfig vmem;
    vmem.phys_bytes = Addr{1} << 30;
    PageTable table(vmem);
    Tlb tlb(TlbConfig{"dTLB", 16, 4, 1, 4, 1});

    // Install a translation the page table never produced.
    tlb.fill(VirtAddr{0x4000'0000}, PhysAddr{0x1000}, false, false);

    AuditReport report;
    audit::audit_tlb(tlb, table, report);
    EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// Walker PSCs
// ---------------------------------------------------------------------------

TEST(AuditWalker, DetectsDuplicatePscEntry)
{
    VmemConfig vmem;
    vmem.phys_bytes = Addr{1} << 30;
    PageTable table(vmem);
    Cache memory(CacheConfig{"L2C", 64, 8, 10, 32, false}, nullptr);
    PageWalker walker(WalkerConfig{}, &table, &memory);
    walker.walk(VirtAddr{0x7000'1000}, 0, /*speculative=*/false);

    AuditReport clean;
    audit::audit_walker(walker, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    AuditAccess::corrupt_psc_duplicate(walker);
    AuditReport report;
    audit::audit_walker(walker, report);
    EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// Cache structure
// ---------------------------------------------------------------------------

TEST(AuditCache, DetectsDuplicateTagInSet)
{
    Cache cache(CacheConfig{"L1D", 16, 4, 4, 8, true}, nullptr);
    cache.access(PhysAddr{0x1000}, AccessType::kLoad, 0);
    cache.access(PhysAddr{0x2000}, AccessType::kLoad, 0);

    AuditReport clean;
    audit::audit_cache(cache, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    AuditAccess::corrupt_cache_duplicate_tag(cache, 0);
    AuditReport report;
    audit::audit_cache(cache, report);
    EXPECT_FALSE(report.ok());
}

TEST(AuditCache, DetectsLruRanksThatAreNotAPermutation)
{
    Cache cache(CacheConfig{"L2C", 16, 4, 4, 8, false}, nullptr);
    for (Addr block = 0; block < 96; ++block) {
        cache.access(PhysAddr{(block * 7 % 96) * kBlockSize},
                     AccessType::kLoad, block * 10);
    }

    AuditReport clean;
    audit::audit_cache(cache, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    ASSERT_TRUE(AuditAccess::corrupt_cache_lru_rank(cache, 3));
    AuditReport report;
    audit::audit_cache(cache, report);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("lru ranks of set 3"),
              std::string::npos)
        << report.to_string();
}

TEST(AuditCache, DetectsSrripRrpvAboveItsRail)
{
    CacheConfig cfg{"LLC", 16, 4, 4, 8, false};
    cfg.replacement = ReplacementKind::kSrrip;
    Cache cache(cfg, nullptr);
    for (Addr block = 0; block < 96; ++block) {
        cache.access(PhysAddr{(block * 7 % 96) * kBlockSize},
                     AccessType::kLoad, block * 10);
    }

    AuditReport clean;
    audit::audit_cache(cache, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    ASSERT_TRUE(AuditAccess::corrupt_cache_rrpv(cache, 6, 2, 4));
    AuditReport report;
    audit::audit_cache(cache, report);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("srrip rrpv above the 2-bit rail in "
                                      "set 6"),
              std::string::npos)
        << report.to_string();
}

TEST(AuditCache, DetectsFillBaseAheadOfThePortClock)
{
    Cache cache(CacheConfig{"L2C", 16, 4, 4, 8, false}, nullptr);
    cache.access(PhysAddr{0x1000}, AccessType::kLoad, 100);

    AuditReport clean;
    audit::audit_cache(cache, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    // The port is free from cycle 101; a base there is still sound.
    AuditAccess::corrupt_cache_fill_base(cache, 101);
    AuditReport at_clock;
    audit::audit_cache(cache, at_clock);
    EXPECT_TRUE(at_clock.ok()) << at_clock.to_string();

    AuditAccess::corrupt_cache_fill_base(cache, 102);
    AuditReport report;
    audit::audit_cache(cache, report);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("fill base 102 ahead of the port "
                                      "clock 101"),
              std::string::npos)
        << report.to_string();
}

TEST(AuditCache, DetectsPcbOnNonPrefetchedBlock)
{
    Cache cache(CacheConfig{"L1D", 16, 4, 4, 8, true}, nullptr);
    cache.access(PhysAddr{0x1000}, AccessType::kLoad, 0);

    std::uint32_t set = 0;
    std::uint32_t way = 0;
    ASSERT_TRUE(AuditAccess::find_valid_block(cache, set, way));
    AuditAccess::corrupt_cache_pcb(cache, set, way, true);

    AuditReport report;
    audit::audit_cache(cache, report);
    EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// The PCB <-> pUB cross-structure invariant
// ---------------------------------------------------------------------------

TEST(AuditPcbPub, DetectsPcbFlippedUnderLivePubRecord)
{
    MokaFilter filter(permissive_config());
    Cache l1d(CacheConfig{"L1D", 16, 4, 4, 8, true}, nullptr);
    SystemSnapshot snap;
    snap.stlb_mpki = 100.0;  // deactivate the system feature

    const Addr target = 0x200000 + 5 * kBlockSize;
    ASSERT_TRUE(filter.permit(0x400100, VirtAddr{0x1ff000}, 5,
                              VirtAddr{target}, snap));
    l1d.access(PhysAddr{target}, AccessType::kPrefetch, 0,
               /*pgc_prefetch=*/true);
    filter.on_pgc_issued(VirtAddr{target}, PhysAddr{target});

    AuditReport clean;
    audit::audit_pcb_pub(l1d, filter, clean);
    EXPECT_TRUE(clean.ok()) << clean.to_string();

    // Corruption: clear the PCB while the pUB still holds the record.
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    ASSERT_TRUE(AuditAccess::find_valid_block(l1d, set, way));
    AuditAccess::corrupt_cache_pcb(l1d, set, way, false);

    AuditReport report;
    audit::audit_pcb_pub(l1d, filter, report);
    EXPECT_FALSE(report.ok());
}

TEST(AuditPcbPub, DetectsOrphanPubRecord)
{
    MokaFilter filter(permissive_config());
    Cache l1d(CacheConfig{"L1D", 16, 4, 4, 8, true}, nullptr);
    SystemSnapshot snap;
    snap.stlb_mpki = 100.0;

    // Insert a pUB record without ever filling the L1D block.
    const Addr target = 0x200000 + 7 * kBlockSize;
    ASSERT_TRUE(filter.permit(0x400100, VirtAddr{0x1ff000}, 7,
                              VirtAddr{target}, snap));
    filter.on_pgc_issued(VirtAddr{target}, PhysAddr{target});

    AuditReport report;
    audit::audit_pcb_pub(l1d, filter, report);
    EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// Whole machine
// ---------------------------------------------------------------------------

WorkloadSpec
pick(Family family)
{
    for (const WorkloadSpec &s : seen_workloads()) {
        if (s.family == family) {
            return s;
        }
    }
    ADD_FAILURE() << "family missing from roster";
    return seen_workloads().front();
}

TEST(AuditMachine, CleanRunWithDripperIsAuditSilent)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti,
                    scheme_dripper(L1dPrefetcherKind::kBerti));
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(pick(Family::kStream)));
    Machine machine(cfg, std::move(w));
    machine.run(60'000);

    AuditReport report;
    machine.audit(report);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AuditMachine, DetectsCorruptionInjectedIntoRunningMachine)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti,
                    scheme_dripper(L1dPrefetcherKind::kBerti));
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(pick(Family::kStream)));
    Machine machine(cfg, std::move(w));
    machine.run(60'000);

    // Shift one dTLB translation by a page: metadata drift no
    // functional test would notice quickly (the simulator would just
    // fetch the neighbouring frame's data), but every subsequent
    // access through that entry reads the wrong physical page.
    Tlb &dtlb = AuditAccess::core_dtlb(machine.core(0));
    ASSERT_TRUE(AuditAccess::corrupt_tlb_page_base(dtlb, kPageSize))
        << "no dTLB entry resident after the run";

    AuditReport report;
    machine.audit(report);
    EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace moka
