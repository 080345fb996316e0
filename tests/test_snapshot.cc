/** @file Snapshot subsystem: format, per-component round-trips,
 *  whole-machine byte-identity, cache, and corruption handling. */
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "core/branch_pred.h"
#include "dram/dram.h"
#include "filter/adaptive_threshold.h"
#include "filter/features.h"
#include "filter/moka.h"
#include "filter/perceptron.h"
#include "filter/policies.h"
#include "filter/system_features.h"
#include "filter/update_buffer.h"
#include "prefetch/berti.h"
#include "prefetch/bop.h"
#include "prefetch/ipcp.h"
#include "prefetch/spp.h"
#include "prefetch/stride.h"
#include "prefetch/throttle.h"
#include "sim/jobs/job.h"
#include "sim/multicore.h"
#include "sim/runner.h"
#include "snapshot/cache.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "snapshot/store_file.h"
#include "trace/suites.h"
#include "vmem/page_table.h"
#include "vmem/tlb.h"
#include "vmem/walker.h"

namespace moka {
namespace {

std::string
temp_dir(const char *tag)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "moka_snap_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ---------------------------------------------------------------- format

TEST(SnapshotFormat, RoundTripPrimitives)
{
    SnapshotWriter w(0x1234);
    w.begin_section("prims");
    w.put_u8(0xAB);
    w.put_u16(0xBEEF);
    w.put_u32(0xDEADBEEFu);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_i64(-42);
    w.put_bool(true);
    w.put_f64(-0.0);  // signed zero must survive bit-exactly
    w.put_f64(1.0 / 3.0);
    w.begin_section("vec");
    std::vector<std::uint64_t> vals = {1, 2, 3, 5, 8};
    put_vec(w, vals);
    const std::string bytes = w.finish();

    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    EXPECT_EQ(r.fingerprint(), 0x1234u);
    r.begin_section("prims");
    EXPECT_EQ(r.get_u8(), 0xAB);
    EXPECT_EQ(r.get_u16(), 0xBEEF);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.get_i64(), -42);
    EXPECT_TRUE(r.get_bool());
    EXPECT_TRUE(std::signbit(r.get_f64()));
    EXPECT_DOUBLE_EQ(r.get_f64(), 1.0 / 3.0);
    r.begin_section("vec");
    std::vector<std::uint64_t> back(vals.size());
    get_vec(r, back);
    EXPECT_EQ(back, vals);
    r.finish();
}

std::string
tiny_snapshot()
{
    SnapshotWriter w(7);
    w.begin_section("s");
    w.put_u64(99);
    return w.finish();
}

SnapshotErrorKind
reject_kind(const std::string &bytes)
{
    try {
        const SnapshotImage image(bytes);
    } catch (const SnapshotError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "corrupt snapshot was accepted";
    return SnapshotErrorKind::kMalformed;
}

TEST(SnapshotFormat, RejectsBadMagic)
{
    std::string bytes = tiny_snapshot();
    bytes[0] ^= 0xFF;
    EXPECT_EQ(reject_kind(bytes), SnapshotErrorKind::kBadMagic);
}

TEST(SnapshotFormat, RejectsWrongVersion)
{
    std::string bytes = tiny_snapshot();
    bytes[8] = static_cast<char>(bytes[8] + 1);  // version u32 LSB
    EXPECT_EQ(reject_kind(bytes), SnapshotErrorKind::kBadVersion);
}

TEST(SnapshotFormat, RejectsTruncation)
{
    const std::string bytes = tiny_snapshot();
    // Every proper prefix must be rejected, never mis-parsed.
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const SnapshotErrorKind kind = reject_kind(bytes.substr(0, n));
        EXPECT_TRUE(kind == SnapshotErrorKind::kTruncated ||
                    kind == SnapshotErrorKind::kBadMagic)
            << "prefix of " << n << " bytes";
    }
}

TEST(SnapshotFormat, RejectsFlippedPayloadBit)
{
    std::string bytes = tiny_snapshot();
    bytes[bytes.size() - 1] ^= 0x01;  // last payload byte
    EXPECT_EQ(reject_kind(bytes), SnapshotErrorKind::kChecksum);
}

TEST(SnapshotFormat, SectionNameMismatchIsMalformed)
{
    const SnapshotImage image(tiny_snapshot());
    SnapshotReader r(image);
    try {
        r.begin_section("wrong");
        ADD_FAILURE() << "mismatched section name accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMalformed);
    }
}

TEST(SnapshotFormat, OverconsumeIsMalformed)
{
    const SnapshotImage image(tiny_snapshot());
    SnapshotReader r(image);
    r.begin_section("s");
    (void)r.get_u64();
    try {
        (void)r.get_u64();
        ADD_FAILURE() << "read past the section end";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMalformed);
    }
}

/** One-section container "t" holding @p payload verbatim. */
std::string
reseal(const std::string &payload)
{
    SnapshotWriter w(0);
    w.begin_section("t");
    w.put_bytes(payload.data(), payload.size());
    return w.finish();
}

/** Payload of a one-section container "t" (see reseal). */
std::string
payload_of(const std::string &bytes)
{
    // magic, version, fingerprint, count, name length, "t", payload
    // length, payload sum
    constexpr std::size_t kHeader = 8 + 4 + 8 + 4 + 4 + 1 + 8 + 8;
    return bytes.substr(kHeader);
}

/**
 * Kind of the SnapshotError that restoring section "t" of @p bytes
 * through @p restore throws; any other exception fails the test.
 */
template <typename Fn>
SnapshotErrorKind
restore_error(const std::string &bytes, Fn restore)
{
    try {
        const SnapshotImage image(bytes);
        SnapshotReader r(image);
        r.begin_section("t");
        restore(r);
        r.finish();
    } catch (const SnapshotError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "malformed section was accepted";
    return SnapshotErrorKind::kBadMagic;
}

TEST(SnapshotFormat, OversizedVectorIsMalformed)
{
    // Checksum-valid, yet the length claims far more elements than
    // the section holds: rejected before anything is allocated.
    SnapshotWriter w(0);
    w.begin_section("t");
    w.put_u64(std::uint64_t{1} << 61);
    w.put_u64(0);
    const std::string bytes = w.finish();
    std::vector<Cycle> grow;
    EXPECT_EQ(restore_error(bytes,
                            [&](SnapshotReader &r) {
                                get_vec(r, grow, /*fixed_size=*/false);
                            }),
              SnapshotErrorKind::kMalformed);
    std::vector<Cycle> fixed(2);
    EXPECT_EQ(restore_error(bytes,
                            [&](SnapshotReader &r) { get_vec(r, fixed); }),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotFormat, HugeMshrListIsMalformed)
{
    // A cache section whose outstanding-fill list claims 2^61 entries
    // must fall back like any other bad snapshot, not throw
    // std::length_error from the allocation.
    DramConfig dcfg;
    CacheConfig ccfg;
    ccfg.sets = 16;
    ccfg.ways = 4;
    Dram dram(dcfg);
    Cache cache(ccfg, &dram);
    const std::size_t blocks = ccfg.sets * ccfg.ways;
    SnapshotWriter w(0);
    w.begin_section("t");
    put_vec(w, std::vector<Addr>(blocks));
    put_vec(w, std::vector<std::uint8_t>(blocks));
    put_vec(w, std::vector<Cycle>(blocks));
    w.put_u64(std::uint64_t{1} << 61);
    EXPECT_EQ(restore_error(w.finish(),
                            [&](SnapshotReader &r) {
                                cache.restore_state(r);
                            }),
              SnapshotErrorKind::kMalformed);
}

/** Section "t" holding a FlatAddrMap in the v3 sparse encoding. */
std::string
map_section(std::uint64_t slots, std::uint64_t size,
            const std::vector<std::array<std::uint64_t, 3>> &entries)
{
    SnapshotWriter w(0);
    w.begin_section("t");
    w.put_u64(slots);
    w.put_u64(size);
    for (const auto &[slot, key, value] : entries) {
        w.put_u64(slot);
        w.put_u64(key);
        w.put_u64(value);
    }
    return w.finish();
}

TEST(SnapshotFormat, MalformedFlatMapsAreRejected)
{
    constexpr Addr kEmpty = FlatAddrMap::kEmptyKey;
    std::vector<std::array<std::uint64_t, 3>> over_half;
    for (std::uint64_t i = 0; i < 33; ++i) {
        over_half.push_back({i, i, i});
    }
    const struct
    {
        const char *what;
        std::string bytes;
    } cases[] = {
        {"slot >= capacity", map_section(64, 1, {{64, 5, 7}})},
        {"slots out of order",
         map_section(64, 2, {{10, 5, 7}, {3, 6, 8}})},
        {"repeated slot", map_section(64, 2, {{10, 5, 7}, {10, 6, 8}})},
        {"empty-sentinel key", map_section(64, 1, {{3, kEmpty, 1}})},
        {"size x 2 > capacity", map_section(64, 33, over_half)},
        {"capacity not a power of two", map_section(48, 0, {})},
        {"capacity its entries never grew to",
         map_section(std::uint64_t{1} << 40, 1, {{0, 5, 7}})},
        {"size beyond the section",
         map_section(std::uint64_t{1} << 42, std::uint64_t{1} << 41,
                     {{0, 5, 7}})},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        FlatAddrMap map(32);  // 64 slots
        EXPECT_EQ(restore_error(c.bytes,
                                [&](SnapshotReader &r) {
                                    SnapshotAccess::restore(r, map);
                                }),
                  SnapshotErrorKind::kMalformed);
    }
}

TEST(SnapshotFormat, MalformedFrameBitmapsAreRejected)
{
    const auto bitmap_section = [](std::uint64_t frames,
                                   std::uint64_t count,
                                   const std::vector<std::uint8_t> &bits) {
        SnapshotWriter w(0);
        w.begin_section("t");
        w.put_u64(frames);
        w.put_u64(count);
        w.put_bytes(bits.data(), bits.size());
        return w.finish();
    };
    const struct
    {
        const char *what;
        std::string bytes;
    } cases[] = {
        {"count differs from set bits",
         bitmap_section(10, 2, {0x01, 0x00})},
        {"bit past the last frame", bitmap_section(10, 1, {0x00, 0x10})},
        {"frame count differs", bitmap_section(16, 0, {0x00, 0x00})},
        {"bits missing", bitmap_section(10, 0, {0x00})},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        FrameBitmap bitmap(10);
        EXPECT_EQ(restore_error(c.bytes,
                                [&](SnapshotReader &r) {
                                    SnapshotAccess::restore(r, bitmap);
                                }),
                  SnapshotErrorKind::kMalformed);
    }
}

// ------------------------------------------------- component round-trips

/** One section's worth of @p obj's serialized state. */
template <typename T>
std::string
section_of(const T &obj)
{
    SnapshotWriter w(0);
    w.begin_section("t");
    obj.save_state(w);
    return w.finish();
}

/** Restore @p obj from section_of-style @p bytes. */
template <typename T>
void
restore_section(T &obj, const std::string &bytes)
{
    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    r.begin_section("t");
    obj.restore_state(r);
    r.finish();
}

/**
 * The round-trip law every component must satisfy: state saved from
 * a driven instance, restored into a fresh same-config instance, and
 * saved again must be byte-identical.
 */
template <typename T>
void
expect_round_trip(const T &driven, T &fresh)
{
    const std::string bytes = section_of(driven);
    restore_section(fresh, bytes);
    EXPECT_EQ(section_of(fresh), bytes);
}

TEST(SnapshotComponents, Rng)
{
    Rng driven(1);
    for (int i = 0; i < 100; ++i) {
        (void)driven.below(1000);
    }
    Rng fresh(2);
    SnapshotWriter w(0);
    w.begin_section("t");
    SnapshotAccess::save(w, driven);
    const std::string bytes = w.finish();
    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    r.begin_section("t");
    SnapshotAccess::restore(r, fresh);
    r.finish();
    // The restored stream must continue exactly where driven left off.
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(fresh.next(), driven.next());
    }
}

TEST(SnapshotComponents, Dram)
{
    DramConfig cfg;
    Dram driven(cfg);
    for (Addr a = 0; a < 64 * kBlockSize; a += kBlockSize) {
        (void)driven.access(PhysAddr{a * 37}, AccessType::kLoad, a);
    }
    Dram fresh(cfg);
    expect_round_trip(driven, fresh);
    // Behavioral check: next access sees the same open-row state.
    const AccessResult a =
        driven.access(PhysAddr{0x5000}, AccessType::kStore, 9999);
    const AccessResult b =
        fresh.access(PhysAddr{0x5000}, AccessType::kStore, 9999);
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.hit, b.hit);
}

TEST(SnapshotComponents, CacheOverDram)
{
    DramConfig dcfg;
    CacheConfig ccfg;
    ccfg.name = "l1d";
    ccfg.sets = 16;
    ccfg.ways = 4;
    Dram dram_a(dcfg), dram_b(dcfg);
    Cache driven(ccfg, &dram_a);
    for (Addr a = 0; a < 256; ++a) {
        (void)driven.access(PhysAddr{a * kBlockSize * 3}, AccessType::kLoad,
                            a);
    }
    Cache fresh(ccfg, &dram_b);
    expect_round_trip(driven, fresh);
}

TEST(SnapshotComponents, CacheFlagsOutsideKnownBitsAreMalformed)
{
    DramConfig dcfg;
    CacheConfig ccfg;
    ccfg.sets = 16;
    ccfg.ways = 4;
    Dram dram_a(dcfg), dram_b(dcfg);
    Cache driven(ccfg, &dram_a);
    for (Addr a = 0; a < 64; ++a) {
        (void)driven.access(PhysAddr{a * kBlockSize}, AccessType::kStore, a);
    }
    std::string payload = payload_of(section_of(driven));
    // Layout: tag count, tags, flag count, then one flag byte per block.
    const std::size_t blocks = ccfg.sets * ccfg.ways;
    payload[8 + 8 * blocks + 8] |= static_cast<char>(0x80);
    Cache fresh(ccfg, &dram_b);
    EXPECT_EQ(restore_error(reseal(payload),
                            [&](SnapshotReader &r) {
                                fresh.restore_state(r);
                            }),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, Tlb)
{
    TlbConfig cfg;
    Tlb driven(cfg);
    for (Addr page = 0; page < 128; ++page) {
        const Addr vaddr = page << 12;
        (void)driven.lookup(VirtAddr{vaddr}, page, /*demand=*/true);
        driven.fill(VirtAddr{vaddr}, PhysAddr{vaddr | 0x1000000},
                    /*large=*/false,
                    /*from_prefetch=*/(page % 3) == 0);
    }
    Tlb fresh(cfg);
    expect_round_trip(driven, fresh);
}

TEST(SnapshotComponents, PageTableAndWalker)
{
    VmemConfig vcfg;
    WalkerConfig wcfg;
    DramConfig dcfg;
    Dram dram_a(dcfg), dram_b(dcfg);
    PageTable pt_driven(vcfg);
    PageWalker driven(wcfg, &pt_driven, &dram_a);
    for (Addr page = 0; page < 64; ++page) {
        (void)driven.walk(VirtAddr{page << 12}, page,
                          /*speculative=*/page % 2);
    }
    PageTable pt_fresh(vcfg);
    PageWalker fresh(wcfg, &pt_fresh, &dram_b);
    // Walker depends on its table: restore both, compare both.
    expect_round_trip(pt_driven, pt_fresh);
    expect_round_trip(driven, fresh);
}

TEST(SnapshotComponents, PageTableRoundTripsAfterGrowth)
{
    // Every map starts at its 64-slot floor and doubles many times:
    // the saved capacity and slot placement must come back exactly.
    VmemConfig cfg;
    cfg.reserve_pages = 64;
    const auto vaddr = [](Addr i) { return VirtAddr{(i * 37) << 18}; };
    PageTable driven(cfg);
    std::array<PhysAddr, 5> walk{};
    for (Addr i = 0; i < 3000; ++i) {
        (void)driven.translate(vaddr(i));
        (void)driven.walk_addresses(vaddr(i), walk);
    }
    ASSERT_GT(driven.mapped_pages(), cfg.reserve_pages);
    PageTable fresh(cfg);
    expect_round_trip(driven, fresh);
    EXPECT_EQ(fresh.mapped_pages(), driven.mapped_pages());
    // Mapped pages translate alike; new ones draw the same frames.
    std::array<PhysAddr, 5> walk_fresh{};
    for (Addr i = 0; i < 4000; ++i) {
        EXPECT_EQ(fresh.translate(vaddr(i)).paddr,
                  driven.translate(vaddr(i)).paddr);
        const unsigned levels = driven.walk_addresses(vaddr(i), walk);
        ASSERT_EQ(fresh.walk_addresses(vaddr(i), walk_fresh), levels);
        for (unsigned l = 0; l < levels; ++l) {
            EXPECT_EQ(walk_fresh[l], walk[l]);
        }
    }
}

TEST(SnapshotComponents, BranchPredictor)
{
    BranchPredConfig cfg;
    BranchPredictor driven(cfg);
    for (Addr pc = 0; pc < 500; ++pc) {
        const bool taken = (pc % 7) < 3;
        (void)driven.predict(pc * 4);
        driven.update(pc * 4, taken);
    }
    BranchPredictor fresh(cfg);
    expect_round_trip(driven, fresh);
    for (Addr pc = 0; pc < 64; ++pc) {
        EXPECT_EQ(fresh.predict(pc * 4), driven.predict(pc * 4));
    }
}

/** Drive @p pf across page-crossing strides so tables populate. */
void
drive_prefetcher(Prefetcher &pf)
{
    std::vector<PrefetchRequest> out;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        PrefetchContext ctx;
        ctx.pc = 0x400000 + (i % 7) * 4;
        ctx.vaddr = VirtAddr{(i * 3) * kBlockSize};
        ctx.hit = (i % 4) != 0;
        ctx.now = i * 10;
        pf.on_access(ctx, out);
        if (i % 5 == 0) {
            pf.on_fill(ctx.vaddr + kBlockSize, ctx.now + 50,
                       /*was_prefetch=*/i % 10 == 0);
        }
        out.clear();
    }
}

template <typename P, typename Cfg>
void
expect_prefetcher_round_trip()
{
    Cfg cfg;
    P driven(cfg);
    drive_prefetcher(driven);
    P fresh(cfg);
    SnapshotWriter w(0);
    driven.save_state(w);  // prefetchers open their own section
    const std::string bytes = w.finish();
    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    fresh.restore_state(r);
    r.finish();
    SnapshotWriter w2(0);
    fresh.save_state(w2);
    EXPECT_EQ(w2.finish(), bytes);
}

TEST(SnapshotComponents, Berti)
{
    expect_prefetcher_round_trip<Berti, BertiConfig>();
}

TEST(SnapshotComponents, Ipcp)
{
    expect_prefetcher_round_trip<Ipcp, IpcpConfig>();
}

TEST(SnapshotComponents, Bop)
{
    expect_prefetcher_round_trip<Bop, BopConfig>();
}

TEST(SnapshotComponents, Stride)
{
    expect_prefetcher_round_trip<StridePrefetcher,
                                 StridePrefetcherConfig>();
}

TEST(SnapshotComponents, Spp)
{
    expect_prefetcher_round_trip<Spp, SppConfig>();
}

TEST(SnapshotComponents, Throttle)
{
    ThrottleConfig cfg;
    ThrottledPrefetcher driven(std::make_unique<Bop>(BopConfig{}), cfg);
    drive_prefetcher(driven);
    ThrottledPrefetcher fresh(std::make_unique<Bop>(BopConfig{}), cfg);
    SnapshotWriter w(0);
    driven.save_state(w);
    const std::string bytes = w.finish();
    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    fresh.restore_state(r);
    r.finish();
    SnapshotWriter w2(0);
    fresh.save_state(w2);
    EXPECT_EQ(w2.finish(), bytes);
}

TEST(SnapshotComponents, UpdateBuffer)
{
    VirtUpdateBuffer driven(32);
    for (std::uint64_t i = 0; i < 100; ++i) {
        VirtDecisionRecord rec;
        rec.block = VirtAddr{i * kBlockSize};
        rec.num_features = 3;
        rec.indexes[0] = static_cast<std::uint32_t>(i);
        driven.insert(rec);
        if (i % 3 == 0) {
            VirtDecisionRecord out;
            (void)driven.take(VirtAddr{(i / 2) * kBlockSize}, out);
        }
    }
    VirtUpdateBuffer fresh(32);
    expect_round_trip(driven, fresh);
    // Same lookup must succeed/fail identically after restore.
    VirtDecisionRecord a, b;
    EXPECT_EQ(driven.take(VirtAddr{99 * kBlockSize}, a),
              fresh.take(VirtAddr{99 * kBlockSize}, b));
}

TEST(SnapshotComponents, WeightTable)
{
    WeightTable driven(256, 5);
    for (std::uint64_t v = 0; v < 600; ++v) {
        const std::uint32_t idx = driven.index_of(v * 2654435761u);
        if (v % 3 == 0) {
            driven.decrement(idx);
        } else {
            driven.increment(idx);
        }
    }
    WeightTable fresh(256, 5);
    expect_round_trip(driven, fresh);
    EXPECT_EQ(fresh.weight_at(driven.index_of(12345)),
              driven.weight_at(driven.index_of(12345)));
}

TEST(SnapshotComponents, AdaptiveThreshold)
{
    ThresholdConfig cfg;
    AdaptiveThreshold driven(cfg);
    for (int e = 0; e < 20; ++e) {
        EpochInfo info;
        info.pgc_accuracy = (e % 5) * 0.2;
        info.accuracy_valid = e > 2;
        info.ipc = 1.0 + 0.01 * e;
        driven.on_epoch(info);
    }
    AdaptiveThreshold fresh(cfg);
    // AdaptiveThreshold opens its own section.
    SnapshotWriter w(0);
    driven.save_state(w);
    const std::string bytes = w.finish();
    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    fresh.restore_state(r);
    r.finish();
    SnapshotWriter w2(0);
    fresh.save_state(w2);
    EXPECT_EQ(w2.finish(), bytes);
    EXPECT_EQ(fresh.threshold(), driven.threshold());
}

TEST(SnapshotComponents, MokaFilter)
{
    const MokaConfig cfg = dripper_config(L1dPrefetcherKind::kBerti);
    MokaFilter driven(cfg);
    SystemSnapshot snap;
    snap.l1d_mpki = 12.0;
    snap.stlb_mpki = 2.0;
    for (std::uint64_t i = 0; i < 500; ++i) {
        const Addr pc = 0x400100 + (i % 11) * 4;
        const Addr vaddr = i * 4096 + (i % 64) * 64;
        driven.on_demand_access(pc, VirtAddr{vaddr});
        const bool ok = driven.permit(pc, VirtAddr{vaddr}, 5,
                                      VirtAddr{vaddr + 5 * 64}, snap);
        if (ok) {
            driven.on_pgc_issued(VirtAddr{vaddr + 5 * 64},
                                 PhysAddr{vaddr + 5 * 64});
        }
        if (i % 7 == 0) {
            driven.on_l1d_demand_miss(VirtAddr{vaddr + 5 * 64});
        }
    }
    MokaFilter fresh(cfg);
    SnapshotWriter w(0);
    driven.save_state(w);  // opens filter.* sections itself
    const std::string bytes = w.finish();
    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    fresh.restore_state(r);
    r.finish();
    SnapshotWriter w2(0);
    fresh.save_state(w2);
    EXPECT_EQ(w2.finish(), bytes);
}

// ------------------------------------------------- whole-machine tests

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

MachineConfig
snap_config()
{
    return make_config(L1dPrefetcherKind::kBerti,
                       scheme_dripper(L1dPrefetcherKind::kBerti));
}

Machine
build_machine(const MachineConfig &cfg, const WorkloadSpec &spec)
{
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(spec));
    return Machine(cfg, std::move(w));
}

TEST(SnapshotMachine, SaveRestoreSaveIsByteIdentical)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kCsr);
    Machine warmed = build_machine(cfg, spec);
    warmed.run(20'000);
    const std::string s1 = warmed.save_snapshot();

    Machine restored = build_machine(cfg, spec);
    restored.restore_snapshot(s1);
    EXPECT_EQ(restored.save_snapshot(), s1);
}

TEST(SnapshotMachine, WarmedSingleCoreSnapshotIsCompact)
{
    // Sparse page maps and packed frame bits: a warmed default
    // single-core machine took 4.1 MB in format version 2.
    Machine warmed = build_machine(default_config(1), pick(Family::kStream));
    warmed.run(200'000);
    EXPECT_LT(warmed.save_snapshot().size(), 1'500'000u);
}

TEST(SnapshotMachine, RestoredMeasureMatchesStraightThrough)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kCsr);

    // Straight through: warmup + measure on one machine.
    Machine straight = build_machine(cfg, spec);
    straight.run(20'000);
    const std::string snap = straight.save_snapshot();
    straight.start_measurement();
    straight.run(60'000);

    // Restored: fresh machine, restore the warmup state, measure.
    Machine resumed = build_machine(cfg, spec);
    resumed.restore_snapshot(snap);
    resumed.start_measurement();
    resumed.run(60'000);

    // Strongest possible equality: the full architectural state after
    // the measured region is byte-identical, not just the metrics.
    EXPECT_EQ(resumed.save_snapshot(), straight.save_snapshot());
    const RunMetrics a = straight.measured(0);
    const RunMetrics b = resumed.measured(0);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1d.misses, b.l1d.misses);
    EXPECT_EQ(a.llc.misses, b.llc.misses);
    EXPECT_EQ(a.pgc_issued, b.pgc_issued);
    EXPECT_EQ(a.pgc_dropped, b.pgc_dropped);
    EXPECT_EQ(a.spec_walks, b.spec_walks);
    EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts);
}

TEST(SnapshotMachine, ConfigMismatchRejected)
{
    const WorkloadSpec spec = pick(Family::kStream);
    Machine warmed = build_machine(snap_config(), spec);
    warmed.run(5'000);
    const std::string snap = warmed.save_snapshot();

    const MachineConfig other =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    Machine fresh = build_machine(other, spec);
    try {
        fresh.restore_snapshot(snap);
        ADD_FAILURE() << "restored under a different machine config";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kConfigMismatch);
    }
}

// ------------------------------------------------------- snapshot cache

TEST(SnapshotCacheTest, MissProducesThenDiskHit)
{
    const std::string dir = temp_dir("cache");
    int produced = 0;
    const auto produce = [&produced]() {
        ++produced;
        return tiny_snapshot();
    };
    {
        SnapshotCache cache(dir);
        SnapshotCache::FetchOutcome out;
        const SnapshotBlob blob = cache.fetch(1, produce, &out);
        ASSERT_NE(blob, nullptr);
        EXPECT_FALSE(out.hit);
        EXPECT_TRUE(out.saved);
        EXPECT_EQ(produced, 1);
        EXPECT_TRUE(std::filesystem::exists(cache.path_for(1)));
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().saves, 1u);
    }
    {
        // New cache instance: must hit from disk, not memory.
        SnapshotCache cache(dir);
        SnapshotCache::FetchOutcome out;
        const SnapshotBlob blob = cache.fetch(1, produce, &out);
        ASSERT_NE(blob, nullptr);
        EXPECT_TRUE(out.hit);
        EXPECT_EQ(produced, 1);  // not produced again
        EXPECT_EQ(cache.stats().hits, 1u);
        EXPECT_EQ(blob->bytes(), tiny_snapshot());
    }
}

TEST(SnapshotCacheTest, InProcessMemoization)
{
    const std::string dir = temp_dir("memo");
    SnapshotCache cache(dir);
    int produced = 0;
    for (int i = 0; i < 3; ++i) {
        (void)cache.fetch(5, [&produced]() {
            ++produced;
            return tiny_snapshot();
        });
    }
    EXPECT_EQ(produced, 1);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(SnapshotCacheTest, CorruptFileFallsBackToProduce)
{
    const std::string dir = temp_dir("corrupt");
    SnapshotCache cache(dir);
    {
        std::ofstream os(cache.path_for(9), std::ios::binary);
        os << "definitely not a snapshot";
    }
    int produced = 0;
    const SnapshotBlob blob = cache.fetch(9, [&produced]() {
        ++produced;
        return tiny_snapshot();
    });
    ASSERT_NE(blob, nullptr);
    EXPECT_EQ(produced, 1);
    EXPECT_EQ(cache.stats().invalid, 1u);
    // The corrupt file was dropped and replaced by the valid publish.
    std::ifstream is(cache.path_for(9), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, tiny_snapshot());
}

TEST(SnapshotCacheTest, FailedFlushPublishesNothing)
{
    // The blob fits the stream buffer, so only the final flush hits
    // the file-size limit: that failure must keep the file private.
    const std::string dir = temp_dir("fsize");
    const std::string bytes = tiny_snapshot();
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const rlim_t limit = bytes.size() / 2;
        const rlimit lim{limit, limit};
        std::signal(SIGXFSZ, SIG_IGN);
        if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) {
            std::_Exit(2);
        }
        SnapshotCache cache(dir);
        const SnapshotBlob blob = cache.fetch(4, [&] { return bytes; });
        const bool ok = blob != nullptr && blob->bytes() == bytes &&
                        !std::filesystem::exists(cache.path_for(4));
        std::_Exit(ok ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SnapshotCacheTest, StaleClaimIsStolenAndPublished)
{
    // A producer killed mid-warmup leaves its claim behind. Once the
    // claim is older than the TTL, the next fetch steals it, produces
    // and publishes, instead of stalling and leaving the key bare.
    namespace fs = std::filesystem;
    const std::string dir = temp_dir("stale");
    const std::string claim =
        LeaseDir(dir, "snap", SnapshotCache::kClaimTtlMs).path(6);
    {
        std::ofstream os(claim);
        os << "killed producer";
    }
    fs::last_write_time(claim, fs::file_time_type::clock::now() -
                                   std::chrono::seconds(60));

    const auto t0 = std::chrono::steady_clock::now();
    SnapshotCache cache(dir);
    SnapshotCache::FetchOutcome out;
    ASSERT_NE(cache.fetch(6, [] { return tiny_snapshot(); }, &out),
              nullptr);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(SnapshotCache::kClaimTtlMs / 10));
    EXPECT_TRUE(out.saved);
    EXPECT_FALSE(fs::exists(claim));  // the thief released it

    SnapshotCache second(dir);
    SnapshotCache::FetchOutcome again;
    (void)second.fetch(
        6,
        []() -> std::string {
            ADD_FAILURE() << "published snapshot was not reused";
            return tiny_snapshot();
        },
        &again);
    EXPECT_TRUE(again.hit);
}

TEST(SnapshotCacheTest, LiveClaimMakesWaitersPoll)
{
    // A fresh claim is another process producing the key: wait for
    // its publish instead of warming up a duplicate.
    const std::string dir = temp_dir("live");
    SnapshotCache cache(dir);
    const LeaseDir producer(dir, "snap", SnapshotCache::kClaimTtlMs);
    ASSERT_EQ(producer.try_claim(8), ClaimOutcome::kAcquired);
    std::thread publisher([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        EXPECT_TRUE(publish_file(cache.path_for(8), tiny_snapshot()));
        producer.release(8);
    });
    SnapshotCache::FetchOutcome out;
    const SnapshotBlob blob = cache.fetch(
        8,
        []() -> std::string {
            ADD_FAILURE() << "waiter produced despite a live claim";
            return tiny_snapshot();
        },
        &out);
    publisher.join();
    ASSERT_NE(blob, nullptr);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(SnapshotCacheTest, ProducerFailurePropagates)
{
    const std::string dir = temp_dir("fail");
    SnapshotCache cache(dir);
    EXPECT_THROW(
        (void)cache.fetch(3,
                          []() -> std::string {
                              throw JobError(JobErrorCode::kTimeout,
                                             "warmup hung");
                          }),
        JobError);
    // A later fetch may retry: the inflight entry was not poisoned.
    const SnapshotBlob blob = cache.fetch(3, []() { return tiny_snapshot(); });
    ASSERT_NE(blob, nullptr);
}

// ----------------------------------------------- runner + job taxonomy

TEST(SnapshotRunner, WarmRunMatchesColdRunExactly)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kGather);
    RunConfig run;
    run.warmup_insts = 15'000;
    run.measure_insts = 40'000;

    const RunMetrics cold =
        run_single_workload(cfg, make_workload(spec), run, nullptr);

    const std::string dir = temp_dir("runner");
    SnapshotCache cache(dir);
    const WorkloadFactory factory = [&spec]() {
        return make_workload(spec);
    };
    // First call misses (produces + publishes), second hits from disk;
    // both must reproduce the cold metrics exactly.
    const RunMetrics missed = run_single_workload_snapshot(
        cfg, factory, run, nullptr, cache, /*warmup_key=*/77);
    const RunMetrics hit = run_single_workload_snapshot(
        cfg, factory, run, nullptr, cache, /*warmup_key=*/77);
    EXPECT_GE(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    for (const RunMetrics &warm : {missed, hit}) {
        EXPECT_EQ(warm.instructions, cold.instructions);
        EXPECT_EQ(warm.cycles, cold.cycles);
        EXPECT_EQ(warm.l1d.misses, cold.l1d.misses);
        EXPECT_EQ(warm.llc.misses, cold.llc.misses);
        EXPECT_EQ(warm.pgc_issued, cold.pgc_issued);
        EXPECT_EQ(warm.branch_mispredicts, cold.branch_mispredicts);
    }
}

TEST(SnapshotRunner, DifferentSchemesGetDifferentWarmupKeys)
{
    // Same workload + warmup under two schemes must not share a
    // snapshot: the second run must miss, not hit.
    const WorkloadSpec spec = pick(Family::kStream);
    RunConfig run;
    run.warmup_insts = 5'000;
    run.measure_insts = 10'000;
    const std::string dir = temp_dir("keys");
    SnapshotCache cache(dir);
    const WorkloadFactory factory = [&spec]() {
        return make_workload(spec);
    };
    (void)run_single_workload_snapshot(snap_config(), factory, run,
                                       nullptr, cache, 77);
    const MachineConfig other =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    (void)run_single_workload_snapshot(other, factory, run, nullptr,
                                       cache, 77);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SnapshotJobError, NameRoundTrip)
{
    EXPECT_STREQ(to_string(JobErrorCode::kSnapshotInvalid),
                 "snapshot_invalid");
    EXPECT_FALSE(is_transient(JobErrorCode::kSnapshotInvalid));
}

TEST(SnapshotDefaults, WarmupBudgetUnified)
{
    // Satellite of the snapshot work: the single-core and multicore
    // entry points used to carry silently different warmup defaults.
    EXPECT_EQ(RunConfig{}.warmup_insts, kDefaultWarmupInsts);
    EXPECT_EQ(MulticoreConfig{}.warmup_insts, kDefaultWarmupInsts);
    EXPECT_EQ(kDefaultWarmupInsts, 200'000u);
}

}  // namespace
}  // namespace moka
