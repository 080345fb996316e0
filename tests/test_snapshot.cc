/** @file Snapshot subsystem: format, per-component round-trips,
 *  whole-machine byte-identity, cache, and corruption handling. */
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "common/fields.h"
#include "common/hashing.h"
#include "core/branch_pred.h"
#include "core/core.h"
#include "dram/dram.h"
#include "filter/adaptive_threshold.h"
#include "filter/features.h"
#include "filter/moka.h"
#include "filter/policies.h"
#include "filter/system_features.h"
#include "filter/update_buffer.h"
#include "prefetch/berti.h"
#include "prefetch/bop.h"
#include "prefetch/ipcp.h"
#include "prefetch/spp.h"
#include "prefetch/stride.h"
#include "sim/jobs/job.h"
#include "sim/multicore.h"
#include "sim/runner.h"
#include "snapshot/cache.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "snapshot/store_file.h"
#include "trace/generators.h"
#include "trace/suites.h"
#include "trace/trace_io.h"
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

/** Save @p v at its own width (field() takes an lvalue). */
template <typename T>
void
put(SnapshotWriter &w, T v)
{
    field(w, v);
}

/** Restore one value saved by put(). */
template <typename T>
T
get(SnapshotReader &r)
{
    T v{};
    field(r, v);
    return v;
}

TEST(SnapshotFormat, RoundTripPrimitives)
{
    SnapshotWriter w(0x1234);
    w.begin_section("prims");
    put<std::uint8_t>(w, 0xAB);
    put<std::uint16_t>(w, 0xBEEF);
    put<std::uint32_t>(w, 0xDEADBEEFu);
    put<std::uint64_t>(w, 0x0123456789ABCDEFull);
    put<std::int64_t>(w, -42);
    put(w, true);
    put(w, -0.0);  // signed zero must survive bit-exactly
    put(w, 1.0 / 3.0);
    w.begin_section("vec");
    std::vector<std::uint64_t> vals = {1, 2, 3, 5, 8};
    field(w, vals);
    const std::string bytes = w.finish();

    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    EXPECT_EQ(r.fingerprint(), 0x1234u);
    r.begin_section("prims");
    EXPECT_EQ(get<std::uint8_t>(r), 0xAB);
    EXPECT_EQ(get<std::uint16_t>(r), 0xBEEF);
    EXPECT_EQ(get<std::uint32_t>(r), 0xDEADBEEFu);
    EXPECT_EQ(get<std::uint64_t>(r), 0x0123456789ABCDEFull);
    EXPECT_EQ(get<std::int64_t>(r), -42);
    EXPECT_TRUE(get<bool>(r));
    EXPECT_TRUE(std::signbit(get<double>(r)));
    EXPECT_DOUBLE_EQ(get<double>(r), 1.0 / 3.0);
    r.begin_section("vec");
    std::vector<std::uint64_t> back(vals.size());
    field(r, back);
    EXPECT_EQ(back, vals);
    r.finish();
}

std::string
tiny_snapshot()
{
    SnapshotWriter w(7);
    w.begin_section("s");
    put<std::uint64_t>(w, 99);
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
    (void)get<std::uint64_t>(r);
    try {
        (void)get<std::uint64_t>(r);
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

TEST(SnapshotFormat, RejectsFlippedPayloadBit)
{
    // Four 32-byte stripes fill every checksum lane, then a 13-byte
    // tail leaves one whole word and a partial one.
    std::string payload(4 * 32 + 13, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<char>(i * 37 + 11);
    }
    const std::string bytes = reseal(payload);
    ASSERT_EQ(payload_of(bytes), payload);
    // Every bit of the stored sum, then every bit of the payload.
    const std::size_t sum_at = bytes.size() - payload.size() - 8;
    for (std::size_t at = sum_at; at < bytes.size(); ++at) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::string flipped = bytes;
            flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
            EXPECT_EQ(reject_kind(flipped), SnapshotErrorKind::kChecksum)
                << "byte " << at << ", bit " << bit;
        }
    }
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
    put(w, std::uint64_t{1} << 61);
    put<std::uint64_t>(w, 0);
    const std::string bytes = w.finish();
    std::vector<Cycle> grow;
    EXPECT_EQ(restore_error(bytes,
                            [&](SnapshotReader &r) {
                                field(r, grow,
                                      section_room(r, sizeof(Cycle)),
                                      "vector longer than its section");
                            }),
              SnapshotErrorKind::kMalformed);
    std::vector<Cycle> fixed(2);
    EXPECT_EQ(restore_error(bytes,
                            [&](SnapshotReader &r) { field(r, fixed); }),
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
    const std::vector<std::uint32_t> tags(blocks);
    const std::vector<std::uint8_t> flags(blocks);
    const std::vector<std::uint32_t> fill_offsets(blocks);
    field(w, tags);
    field(w, flags);
    put<Cycle>(w, 0);  // fill base
    field(w, fill_offsets);
    put(w, std::uint64_t{1} << 61);
    EXPECT_EQ(restore_error(w.finish(),
                            [&](SnapshotReader &r) {
                                cache.restore_state(r);
                            }),
              SnapshotErrorKind::kMalformed);
}

/** One saved flat-map entry: slot and key u64, value u32 (v5). */
struct MapEntry
{
    std::uint64_t slot;
    std::uint64_t key;
    FlatAddrMap::Value value;
};

/** Section "t" holding a FlatAddrMap in the sparse encoding. */
std::string
map_section(std::uint64_t slots, std::uint64_t size,
            const std::vector<MapEntry> &entries)
{
    SnapshotWriter w(0);
    w.begin_section("t");
    put(w, slots);
    put(w, size);
    for (const MapEntry &entry : entries) {
        put(w, entry.slot);
        put(w, entry.key);
        put(w, entry.value);
    }
    return w.finish();
}

TEST(SnapshotFormat, MalformedFlatMapsAreRejected)
{
    constexpr Addr kEmpty = FlatAddrMap::kEmptyKey;
    std::vector<MapEntry> over_half;
    for (std::uint32_t i = 0; i < 33; ++i) {
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
        {"capacity past the largest reservation, few entries",
         map_section(2 * FlatAddrMap::slots_for(
                             FlatAddrMap::kMaxReserveEntries),
                     1, {{0, 5, 7}})},
        {"size beyond the section",
         map_section(std::uint64_t{1} << 42, std::uint64_t{1} << 41,
                     {{0, 5, 7}})},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        FlatAddrMap map(32);  // 64 slots
        EXPECT_EQ(restore_error(c.bytes,
                                [&](SnapshotReader &r) {
                                    field(r, map);
                                }),
                  SnapshotErrorKind::kMalformed);
    }
}

TEST(SnapshotFormat, FrameBitmapRoundTripsAndKeepsItsBytes)
{
    for (const std::size_t frames : {1u, 63u, 64u, 65u, 4097u}) {
        SCOPED_TRACE(frames);
        // The set: every third frame and the last one.
        FrameBitmap bitmap(frames);
        std::vector<std::uint8_t> flags(frames, 0);
        for (std::size_t id = 0; id < frames; ++id) {
            if (id % 3 == 0 || id + 1 == frames) {
                EXPECT_TRUE(bitmap.insert(id));
                flags[id] = 1;
            }
        }
        EXPECT_FALSE(bitmap.insert(frames - 1));

        // Golden: the encoding of a bitmap kept as one byte per frame.
        SnapshotWriter golden(0);
        golden.begin_section("t");
        std::uint64_t count = 0;
        std::vector<std::uint8_t> packed((frames + 7) / 8, 0);
        for (std::size_t id = 0; id < frames; ++id) {
            count += flags[id];
            packed[id / 8] |=
                static_cast<std::uint8_t>(flags[id] << (id % 8));
        }
        put<std::uint64_t>(golden, frames);
        put(golden, count);
        golden.put_bytes(packed.data(), packed.size());

        SnapshotWriter w(0);
        w.begin_section("t");
        field(w, bitmap);
        const std::string bytes = w.finish();
        EXPECT_EQ(bytes, golden.finish());

        FrameBitmap restored(frames);
        const SnapshotImage image(bytes);
        SnapshotReader r(image);
        r.begin_section("t");
        field(r, restored);
        r.finish();
        EXPECT_EQ(restored.size(), bitmap.size());
        for (std::size_t id = 0; id <= frames; ++id) {
            EXPECT_EQ(restored.count(id), bitmap.count(id)) << id;
        }
    }
}

TEST(SnapshotFormat, MalformedFrameBitmapsAreRejected)
{
    const auto bitmap_section = [](std::uint64_t frames,
                                   std::uint64_t count,
                                   const std::vector<std::uint8_t> &bits) {
        SnapshotWriter w(0);
        w.begin_section("t");
        put(w, frames);
        put(w, count);
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
                                    field(r, bitmap);
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
    field(w, driven);
    const std::string bytes = w.finish();
    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    r.begin_section("t");
    field(r, fresh);
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

TEST(SnapshotComponents, RandomCacheContinuesItsVictimStream)
{
    // A Random cache saves its generator's lanes, so the restored
    // cache evicts what the saving cache goes on to evict.
    CacheConfig ccfg;
    ccfg.sets = 1;
    ccfg.ways = 8;
    ccfg.replacement = ReplacementKind::kRandom;
    Cache driven(ccfg, nullptr), restored(ccfg, nullptr);
    const auto block = [](Addr i) { return PhysAddr{i * kBlockSize}; };
    Cycle now = 0;
    for (Addr i = 0; i < 40; ++i) {
        (void)driven.access(block(i), AccessType::kLoad, now += 10);
    }
    expect_round_trip(driven, restored);
    for (Addr i = 40; i < 200; ++i) {
        (void)driven.access(block(i), AccessType::kLoad, now += 10);
        (void)restored.access(block(i), AccessType::kLoad, now);
        for (Addr b = 0; b <= i; ++b) {
            ASSERT_EQ(restored.probe(block(b)), driven.probe(block(b)))
                << "block " << b << " after fill " << i;
        }
    }
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
    // Layout: tag count, u32 tags, flag count, then one flag byte per
    // block.
    const std::size_t blocks = ccfg.sets * ccfg.ways;
    payload[8 + 4 * blocks + 8] |= static_cast<char>(0x80);
    Cache fresh(ccfg, &dram_b);
    EXPECT_EQ(restore_error(reseal(payload),
                            [&](SnapshotReader &r) {
                                fresh.restore_state(r);
                            }),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, CacheRestoredAfterARebaseContinuesMidFlight)
{
    // Save with fills in flight after the fill base has rebased past
    // 2^31; the restored cache and DRAM go on exactly as the saving
    // pair does, merges into those fills included.
    DramConfig dcfg;
    CacheConfig ccfg;
    ccfg.sets = 16;
    ccfg.ways = 4;
    Dram dram_a(dcfg), dram_b(dcfg);
    Cache driven(ccfg, &dram_a), restored(ccfg, &dram_b);
    const auto block = [](Addr i) {
        return PhysAddr{(i * 7 % 96) * kBlockSize};
    };
    const Cycle jump = (Cycle{1} << 31) + 5;
    for (Addr i = 0; i < 200; ++i) {
        (void)driven.access(block(i), AccessType::kLoad, i * 10);
    }
    for (Addr i = 200; i < 230; ++i) {
        (void)driven.access(block(i), AccessType::kLoad, jump + i * 4);
    }
    ASSERT_GT(driven.inflight_misses(jump + 230 * 4), 0u);
    restore_section(dram_b, section_of(dram_a));
    expect_round_trip(driven, restored);
    // Each step also re-reads the block of three steps back, whose
    // fill is still in flight; for the first three steps, a fill the
    // saving cache started.
    int merges = 0;
    for (Addr i = 230; i < 400; ++i) {
        const Cycle now = jump + i * 4 - (i % 3) * 20;
        for (const Addr b : {i, i - 3}) {
            const AccessResult x =
                driven.access(block(b), AccessType::kLoad, now);
            const AccessResult y =
                restored.access(block(b), AccessType::kLoad, now);
            ASSERT_EQ(x.done, y.done) << "step " << i << ", block " << b;
            ASSERT_EQ(x.hit, y.hit) << "step " << i << ", block " << b;
            ASSERT_EQ(x.merged, y.merged) << "step " << i << ", block " << b;
            merges += x.merged;
        }
    }
    EXPECT_GT(merges, 50);
    EXPECT_EQ(section_of(restored), section_of(driven));
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
    // A bound of 64 pages starts every map at 128 slots; 3000 pages
    // double each many times: the saved capacity and slot placement
    // must come back exactly.
    VmemConfig cfg;
    constexpr std::size_t kBound = 64;
    const auto vaddr = [](Addr i) { return VirtAddr{(i * 37) << 18}; };
    PageTable driven(cfg, kBound);
    std::array<PhysAddr, 5> walk{};
    for (Addr i = 0; i < 3000; ++i) {
        (void)driven.translate(vaddr(i));
        (void)driven.walk_addresses(vaddr(i), walk);
    }
    ASSERT_GT(driven.mapped_pages(), kBound);
    PageTable fresh(cfg, kBound);
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

TEST(SnapshotComponents, PageTableTranslationsSurviveRoundTrip)
{
    // The maps hold 32-bit frame numbers: every 4KB and 2MB mapping,
    // including frames above 4 GiB, must come back as the byte
    // address it translated to before the save.
    VmemConfig cfg;
    cfg.phys_bytes = Addr{16} << 30;
    cfg.large_page_fraction = 0.5;
    const auto vaddr = [](Addr i) { return VirtAddr{(i * 131) << 14}; };
    constexpr Addr kPages = 2000;
    PageTable driven(cfg);
    std::vector<Translation> before;
    for (Addr i = 0; i < kPages; ++i) {
        before.push_back(driven.translate(vaddr(i)));
    }
    const std::string bytes = section_of(driven);
    PageTable fresh(cfg);
    restore_section(fresh, bytes);
    unsigned large = 0;
    Addr highest = 0;
    for (Addr i = 0; i < kPages; ++i) {
        const Translation t = fresh.translate(vaddr(i));
        EXPECT_EQ(t.paddr, before[i].paddr);
        EXPECT_EQ(t.large, before[i].large);
        large += t.large ? 1 : 0;
        highest = std::max(highest, t.paddr.raw());
    }
    EXPECT_GT(large, 0u);
    EXPECT_LT(large, kPages);
    EXPECT_GE(highest, Addr{1} << 32);
    EXPECT_EQ(section_of(fresh), bytes);
}

TEST(SnapshotComponents, PageTableRestoresAcrossReservations)
{
    // Each table reserves by its workload's page bound, so a table
    // restores what one of another reservation saved: a table with no
    // bound (the caps) into a bounded one, and back. The reservation
    // never changes a translation.
    VmemConfig cfg;
    constexpr std::size_t kBound = 300;
    const auto vaddr = [](Addr i) { return VirtAddr{(i * 13) << 14}; };
    PageTable unbounded(cfg);
    PageTable bounded(cfg, kBound);
    std::array<PhysAddr, 5> walk{};
    for (Addr i = 0; i < 200; ++i) {
        EXPECT_EQ(bounded.translate(vaddr(i)).paddr,
                  unbounded.translate(vaddr(i)).paddr);
        (void)unbounded.walk_addresses(vaddr(i), walk);
        (void)bounded.walk_addresses(vaddr(i), walk);
    }

    const std::string wide = section_of(unbounded);
    PageTable into_bounded(cfg, kBound);
    restore_section(into_bounded, wide);
    EXPECT_EQ(section_of(into_bounded), wide);

    const std::string narrow = section_of(bounded);
    PageTable into_unbounded(cfg);
    restore_section(into_unbounded, narrow);
    EXPECT_EQ(section_of(into_unbounded), narrow);

    // Mapped pages translate alike; new ones draw the same frames.
    std::array<PhysAddr, 5> walk_other{};
    for (Addr i = 0; i < 400; ++i) {
        const PhysAddr expect = unbounded.translate(vaddr(i)).paddr;
        const unsigned levels = unbounded.walk_addresses(vaddr(i), walk);
        for (PageTable *other : {&into_bounded, &into_unbounded, &bounded}) {
            EXPECT_EQ(other->translate(vaddr(i)).paddr, expect);
            ASSERT_EQ(other->walk_addresses(vaddr(i), walk_other), levels);
            for (unsigned l = 0; l < levels; ++l) {
                EXPECT_EQ(walk_other[l], walk[l]);
            }
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

/**
 * Drive @p pf across page-crossing strides so tables populate: 2000
 * accesses from the @p first th on. Returns the requests it made, as
 * (access, target, delta, meta) rows.
 */
std::vector<std::array<std::uint64_t, 4>>
drive_prefetcher(Prefetcher &pf, std::uint64_t first = 0)
{
    std::vector<std::array<std::uint64_t, 4>> made;
    std::vector<PrefetchRequest> out;
    for (std::uint64_t i = first; i < first + 2000; ++i) {
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
        for (const PrefetchRequest &req : out) {
            made.push_back({i, req.vaddr.raw(),
                            static_cast<std::uint64_t>(req.delta), req.meta});
        }
        out.clear();
    }
    return made;
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
    // State derived on restore, not saved, must also match: the two
    // go on to make the same requests.
    const auto made = drive_prefetcher(driven, 2000);
    EXPECT_FALSE(made.empty());
    EXPECT_EQ(drive_prefetcher(fresh, 2000), made);
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
machine_on(const MachineConfig &cfg, WorkloadPtr workload)
{
    std::vector<WorkloadPtr> w;
    w.push_back(std::move(workload));
    return Machine(cfg, std::move(w));
}

Machine
build_machine(const MachineConfig &cfg, const WorkloadSpec &spec)
{
    return machine_on(cfg, make_workload(spec));
}

/** Every RunMetrics counter of @p a equals @p b's. */
void
expect_same_metrics(const RunMetrics &a, const RunMetrics &b)
{
    for_each_leaf([](const char *name, std::uint64_t x,
                     std::uint64_t y) { EXPECT_EQ(x, y) << name; },
                  a, b);
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
    // single-core machine took 4.1 MB in format version 2 and 1.20 MB
    // in version 4; u32 tags, u8 LRU ranks and u32 frame numbers make
    // it 0.74 MB in version 5, and u32 fill offsets 0.57 MB in
    // version 6.
    Machine warmed = build_machine(default_config(1), pick(Family::kStream));
    warmed.run(200'000);
    EXPECT_LT(warmed.save_snapshot().size(), 650'000u);
}

/** One roster instance of every workload family. */
std::vector<WorkloadSpec>
one_per_family()
{
    std::vector<WorkloadSpec> out;
    for (const Family f :
         {Family::kStream, Family::kTile, Family::kGather, Family::kCsr,
          Family::kChase, Family::kHash, Family::kBursty, Family::kPhaseMix,
          Family::kDualStride, Family::kSeqChase}) {
        out.push_back(pick(f));
    }
    return out;
}

/**
 * Warm up, save and measure on one machine; restore the save into a
 * fresh machine on a second @p make() and measure the same region.
 * Strongest possible equality: the full state after the measured
 * region, workload generator included, is byte-identical, not just
 * the metrics.
 */
void
expect_resume_matches(const std::function<WorkloadPtr()> &make)
{
    const MachineConfig cfg = snap_config();
    Machine straight = machine_on(cfg, make());
    straight.run(20'000);
    const std::string snap = straight.save_snapshot();
    straight.start_measurement();
    straight.run(60'000);

    Machine resumed = machine_on(cfg, make());
    resumed.restore_snapshot(snap);
    resumed.start_measurement();
    resumed.run(60'000);

    EXPECT_TRUE(resumed.save_snapshot() == straight.save_snapshot());
    expect_same_metrics(straight.measured(0), resumed.measured(0));
}

TEST(SnapshotMachine, RestoredMeasureMatchesStraightThrough)
{
    for (const WorkloadSpec &spec : one_per_family()) {
        SCOPED_TRACE(spec.name);
        expect_resume_matches([&spec] { return make_workload(spec); });
    }
    // A trace file saves no generator state; restore seeks it to the
    // retired count instead.
    const std::string path = temp_dir("trace") + "/hash.trc";
    {
        WorkloadPtr source = make_workload(pick(Family::kHash));
        ASSERT_TRUE(record_trace(path, *source, 100'000));
    }
    SCOPED_TRACE("recorded trace");
    expect_resume_matches([&path] { return open_trace(path); });
}

/**
 * A decorator that forwards only next, skip and name, the shape of a
 * counting wrapper: it inherits Workload's replaying restore_state.
 */
class ReplayOnlyWorkload final : public Workload
{
  public:
    explicit ReplayOnlyWorkload(WorkloadPtr inner) : inner_(std::move(inner))
    {
    }

    TraceInst next() override { return inner_->next(); }

    void
    skip(std::uint64_t n) override
    {
        skips_.push_back(n);
        inner_->skip(n);
    }

    const std::string &name() const override { return inner_->name(); }

    /** Every skip() argument so far. */
    const std::vector<std::uint64_t> &skips() const { return skips_; }

  private:
    WorkloadPtr inner_;
    std::vector<std::uint64_t> skips_;
};

TEST(SnapshotMachine, ReplayOnlyDecoratorRestoresByReplay)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kCsr);
    Machine straight = build_machine(cfg, spec);
    straight.run(20'000);
    const std::string snap = straight.save_snapshot();
    const std::uint64_t retired = straight.metrics(0).instructions;
    straight.start_measurement();
    straight.run(60'000);

    // The snapshot holds the generator's state; the decorator drops
    // it and replays the synthetic stream to the retired count.
    auto wrapper = std::make_unique<ReplayOnlyWorkload>(make_workload(spec));
    const ReplayOnlyWorkload &probe = *wrapper;
    Machine resumed = machine_on(cfg, std::move(wrapper));
    resumed.restore_snapshot(snap);
    EXPECT_EQ(probe.skips(), std::vector<std::uint64_t>{retired});
    resumed.start_measurement();
    resumed.run(60'000);

    // The decorator saves no generator state, so everything ahead of
    // the last section ("core.workload") must match byte for byte.
    const std::string a = straight.save_snapshot();
    const std::string b = resumed.save_snapshot();
    const std::size_t cut = a.rfind("core.workload");
    ASSERT_NE(cut, std::string::npos);
    EXPECT_EQ(b.rfind("core.workload"), cut);
    EXPECT_TRUE(a.compare(0, cut, b, 0, cut) == 0);
    expect_same_metrics(straight.measured(0), resumed.measured(0));
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

// ------------------------------------------------ workload state

/**
 * Where a synthetic workload's kernel starts in its "core.workload"
 * payload: after the four RNG lanes and the interleaver's loop_iter
 * and alu_pc. The kernel's one-byte kind tag comes first.
 */
constexpr std::size_t kKernelAt = 4 * 8 + 2 * 8;

using WorkloadFactory = std::function<WorkloadPtr()>;

WorkloadPtr
stream_workload()
{
    // StreamParams{} runs 4 streams.
    return make_synthetic("stream", make_stream_kernel(StreamParams{}),
                          InterleaveParams{}, 3);
}

WorkloadPtr
tile_workload()
{
    return make_synthetic("tile", make_tile_kernel(TileParams{}),
                          InterleaveParams{}, 3);
}

WorkloadPtr
chase_workload()
{
    // PointerChaseParams{} runs 2 chains.
    return make_synthetic("chase",
                          make_pointer_chase_kernel(PointerChaseParams{}),
                          InterleaveParams{}, 3);
}

WorkloadPtr
csr_workload()
{
    return make_synthetic("csr", make_csr_graph_kernel(CsrGraphParams{}),
                          InterleaveParams{}, 3);
}

WorkloadPtr
phase_workload()
{
    std::vector<KernelPtr> children;
    children.push_back(make_stream_kernel(StreamParams{}));
    children.push_back(make_tile_kernel(TileParams{}));
    return make_synthetic("phase",
                          make_phase_mix_kernel(std::move(children), 700),
                          InterleaveParams{}, 3);
}

/** Snapshot of a one-core machine on @p make() after 5k instructions. */
std::string
warmed_snapshot(const WorkloadFactory &make)
{
    Machine m = machine_on(snap_config(), make());
    m.run(5'000);
    return m.save_snapshot();
}

/** Payload of @p snap's last section, "core.workload". */
std::string
workload_payload(const std::string &snap)
{
    const std::size_t name_at = snap.rfind("core.workload");
    return snap.substr(name_at + std::strlen("core.workload") + 16);
}

/**
 * @p snap with its "core.workload" payload replaced by @p payload,
 * the section's length and sum re-sealed to match.
 */
std::string
with_workload_payload(const std::string &snap, const std::string &payload)
{
    const std::size_t len_at =
        snap.rfind("core.workload") + std::strlen("core.workload");
    std::string out = snap.substr(0, len_at + 16) + payload;
    const std::uint64_t size = payload.size();
    const std::uint64_t sum = checksum64(payload.data(), payload.size());
    std::memcpy(out.data() + len_at, &size, 8);
    std::memcpy(out.data() + len_at + 8, &sum, 8);
    return out;
}

/** Overwrite the @p n little-endian bytes of @p v at @p at. */
void
poke(std::string &payload, std::size_t at, std::uint64_t v, unsigned n)
{
    ASSERT_LE(at + n, payload.size());
    std::memcpy(payload.data() + at, &v, n);
}

/** Read the @p n little-endian bytes at @p at. */
std::uint64_t
peek(const std::string &payload, std::size_t at, unsigned n)
{
    std::uint64_t v = 0;
    std::memcpy(&v, payload.data() + at, n);
    return v;
}

/**
 * Kind of the SnapshotError restoring @p snap into a machine on
 * @p make() throws. A restore that succeeds runs the machine, so a
 * sanitizer build reports any out-of-range index it was handed, and
 * fails the test.
 */
SnapshotErrorKind
workload_restore_error(const std::string &snap, const WorkloadFactory &make)
{
    Machine m = machine_on(snap_config(), make());
    try {
        m.restore_snapshot(snap);
    } catch (const SnapshotError &e) {
        return e.kind();
    }
    m.run(2'000);
    ADD_FAILURE() << "malformed workload state was restored";
    return SnapshotErrorKind::kBadMagic;
}

TEST(SnapshotWorkload, ResealedUnpatchedStateRestores)
{
    // Control for the cases below: re-sealing alone changes nothing.
    const std::string snap = warmed_snapshot(stream_workload);
    const std::string same =
        with_workload_payload(snap, workload_payload(snap));
    EXPECT_EQ(same, snap);
    Machine m = machine_on(snap_config(), stream_workload());
    m.restore_snapshot(same);
    EXPECT_EQ(m.save_snapshot(), snap);
}

TEST(SnapshotWorkload, KernelKindMismatchIsMalformed)
{
    const std::string tile = workload_payload(warmed_snapshot(tile_workload));
    const std::string snap = warmed_snapshot(stream_workload);
    std::string payload = workload_payload(snap);
    ASSERT_NE(payload[kKernelAt], tile[kKernelAt]);
    payload[kKernelAt] = tile[kKernelAt];
    EXPECT_EQ(workload_restore_error(with_workload_payload(snap, payload),
                                     stream_workload),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotWorkload, StreamIndexPastStreamsIsMalformed)
{
    // Stream kernel: tag, next_stream (u32), then the cursor vector.
    const std::string snap = warmed_snapshot(stream_workload);
    std::string payload = workload_payload(snap);
    ASSERT_LT(peek(payload, kKernelAt + 1, 4), 4u);
    poke(payload, kKernelAt + 1, 4, 4);
    EXPECT_EQ(workload_restore_error(with_workload_payload(snap, payload),
                                     stream_workload),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotWorkload, ChaseIndexPastChainsIsMalformed)
{
    // Pointer-chase kernel: tag, next_chain (u32), then the cursors.
    const std::string snap = warmed_snapshot(chase_workload);
    std::string payload = workload_payload(snap);
    ASSERT_LT(peek(payload, kKernelAt + 1, 4), 2u);
    poke(payload, kKernelAt + 1, 2, 4);
    EXPECT_EQ(workload_restore_error(with_workload_payload(snap, payload),
                                     chase_workload),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotWorkload, PhaseIndexPastChildrenIsMalformed)
{
    // Phase mixer: tag, count (u64), active (u64), then the children.
    const std::string snap = warmed_snapshot(phase_workload);
    std::string payload = workload_payload(snap);
    ASSERT_LT(peek(payload, kKernelAt + 9, 8), 2u);
    poke(payload, kKernelAt + 9, 2, 8);
    EXPECT_EQ(workload_restore_error(with_workload_payload(snap, payload),
                                     phase_workload),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotWorkload, CsrStageOutsideEnumIsMalformed)
{
    // CSR kernel: tag, vertex (u64), degree_left (u32), edge_cursor
    // (u64), pending_gather (u8), stage (u8, three values).
    constexpr std::size_t kStageAt = kKernelAt + 1 + 8 + 4 + 8 + 1;
    const std::string snap = warmed_snapshot(csr_workload);
    std::string payload = workload_payload(snap);
    ASSERT_EQ(payload.size(), kStageAt + 1);
    ASSERT_LT(peek(payload, kStageAt, 1), 3u);
    poke(payload, kStageAt, 3, 1);
    EXPECT_EQ(workload_restore_error(with_workload_payload(snap, payload),
                                     csr_workload),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotWorkload, CursorVectorOfWrongLengthIsMalformed)
{
    // Three stream cursors where the kernel runs four: the length
    // says 3 and the section ends after three, so only the length
    // check can catch it.
    constexpr std::size_t kLengthAt = kKernelAt + 1 + 4;
    const std::string snap = warmed_snapshot(stream_workload);
    std::string payload = workload_payload(snap);
    ASSERT_EQ(peek(payload, kLengthAt, 8), 4u);
    ASSERT_EQ(payload.size(), kLengthAt + 8 + 4 * 8);
    poke(payload, kLengthAt, 3, 8);
    payload.resize(payload.size() - 8);
    EXPECT_EQ(workload_restore_error(with_workload_payload(snap, payload),
                                     stream_workload),
              SnapshotErrorKind::kMalformed);
}

// ------------------------------------------- malformed component state
//
// Each case below edits one field of a saved component so that the
// rest of the payload stays consistent: a list whose count grows
// gains the entries it claims. Only the check named by the test can
// then reject it.

/** Offset of section @p name's payload in container @p bytes. */
std::size_t
payload_at(const std::string &bytes, std::string_view name)
{
    std::size_t at = 8 + 4 + 8 + 4;  // magic, version, fingerprint, count
    for (;;) {
        const std::size_t len = peek(bytes, at, 4);
        const bool found = std::string_view(bytes).substr(at + 4, len) == name;
        at += 4 + len + 16;  // name, payload length, payload sum
        if (found) {
            return at;
        }
        at += peek(bytes, at - 16, 8);
    }
}

/** Payload of section @p name of container @p bytes. */
std::string
section_payload(const std::string &bytes, std::string_view name)
{
    const std::size_t begin = payload_at(bytes, name);
    return bytes.substr(begin, peek(bytes, begin - 16, 8));
}

/**
 * @p bytes with section @p name's payload replaced by @p payload, its
 * length and sum re-sealed to match.
 */
std::string
with_section(const std::string &bytes, std::string_view name,
             const std::string &payload)
{
    const std::size_t begin = payload_at(bytes, name);
    const std::uint64_t old_size = peek(bytes, begin - 16, 8);
    std::string out = bytes.substr(0, begin) + payload +
                      bytes.substr(begin + old_size);
    const std::uint64_t size = payload.size();
    const std::uint64_t sum = checksum64(payload.data(), payload.size());
    std::memcpy(out.data() + begin - 16, &size, 8);
    std::memcpy(out.data() + begin - 8, &sum, 8);
    return out;
}

/**
 * Set the list count of @p n bytes at @p at to @p count and insert
 * the zeroed entries of @p entry bytes it adds after the @p have
 * entries that follow the count.
 */
void
grow_list(std::string &payload, std::size_t at, unsigned n,
          std::uint64_t count, std::size_t entry)
{
    const std::uint64_t have = peek(payload, at, n);
    ASSERT_LT(have, count);
    poke(payload, at, count, n);
    payload.insert(at + n + have * entry, (count - have) * entry, '\0');
}

/** Container holding @p obj's state, which opens its own sections. */
template <typename T>
std::string
own_sections_of(const T &obj)
{
    SnapshotWriter w(0);
    obj.save_state(w);
    return w.finish();
}

/** Kind of the SnapshotError restoring @p bytes into @p obj throws. */
template <typename T>
SnapshotErrorKind
own_sections_error(T &obj, const std::string &bytes)
{
    try {
        const SnapshotImage image(bytes);
        SnapshotReader r(image);
        obj.restore_state(r);
        r.finish();
    } catch (const SnapshotError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "malformed component state was restored";
    return SnapshotErrorKind::kBadMagic;
}

/** Kind of the error restoring section "t" of @p bytes into @p obj. */
template <typename T>
SnapshotErrorKind
section_error(T &obj, const std::string &bytes)
{
    return restore_error(bytes,
                         [&](SnapshotReader &r) { obj.restore_state(r); });
}

/** Saved state of a Berti with trained IP entries. */
std::string
driven_berti()
{
    Berti driven{BertiConfig{}};
    drive_prefetcher(driven);
    return own_sections_of(driven);
}

// Berti entry 0: tag (u64), valid (u8), LRU (u64), history_per_ip
// (line, cycle) pairs, history head (u32), delta count (u32), then
// (value i64, occurrences u16, timely u16) per delta, the selection
// count (u32) and (value i64, timely u16) per selected delta.
constexpr std::size_t kBertiHeadAt = 8 + 1 + 8 + 16 * 16;
constexpr std::size_t kBertiDeltasAt = kBertiHeadAt + 4;

TEST(SnapshotComponents, BertiDeltaCountAboveCapacityIsMalformed)
{
    const std::string bytes = driven_berti();
    std::string payload = section_payload(bytes, "pf.berti");
    grow_list(payload, kBertiDeltasAt, 4, BertiConfig{}.deltas_per_ip + 1,
              12);
    Berti fresh{BertiConfig{}};
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "pf.berti", payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, BertiDeltaPastMaxDeltaIsMalformed)
{
    const std::string bytes = driven_berti();
    std::string payload = section_payload(bytes, "pf.berti");
    ASSERT_GE(peek(payload, kBertiDeltasAt, 4), 1u);
    poke(payload, kBertiDeltasAt + 4,
         static_cast<std::uint64_t>(BertiConfig{}.max_delta + 1), 8);
    Berti fresh{BertiConfig{}};
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "pf.berti", payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, BertiRepeatedDeltaIsMalformed)
{
    const std::string bytes = driven_berti();
    std::string payload = section_payload(bytes, "pf.berti");
    ASSERT_GE(peek(payload, kBertiDeltasAt, 4), 2u);
    poke(payload, kBertiDeltasAt + 4 + 12,
         peek(payload, kBertiDeltasAt + 4, 8), 8);
    Berti fresh{BertiConfig{}};
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "pf.berti", payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, BertiSelectionCountAboveCapacityIsMalformed)
{
    const std::string bytes = driven_berti();
    std::string payload = section_payload(bytes, "pf.berti");
    const std::size_t selected_at =
        kBertiDeltasAt + 4 + peek(payload, kBertiDeltasAt, 4) * 12;
    grow_list(payload, selected_at, 4, BertiConfig{}.max_degree + 1, 10);
    Berti fresh{BertiConfig{}};
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "pf.berti", payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, SppSlotCountAboveCapacityIsMalformed)
{
    // Every signature-table entry (tag u64, valid u8, last offset
    // i64, signature u16, LRU u64), then pattern entry 0's slot count
    // (u32) and its (delta i64, count u16) slots.
    const SppConfig cfg;
    Spp driven(cfg);
    drive_prefetcher(driven);
    const std::string bytes = own_sections_of(driven);
    std::string payload = section_payload(bytes, "pf.spp");
    grow_list(payload, cfg.st_entries * (8 + 1 + 8 + 2 + 8), 4,
              cfg.deltas_per_sig + 1, 10);
    Spp fresh(cfg);
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "pf.spp", payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, PscOccupancyAboveCapacityIsMalformed)
{
    // The walker's payload opens with the PML5 PSC: its occupancy
    // (u64), then (prefix u64, LRU u64) per entry.
    const WalkerConfig wcfg;
    const DramConfig dcfg;
    Dram dram_a(dcfg), dram_b(dcfg);
    PageTable pt_a{VmemConfig{}}, pt_b{VmemConfig{}};
    PageWalker driven(wcfg, &pt_a, &dram_a);
    std::string payload = payload_of(section_of(driven));
    grow_list(payload, 0, 8, wcfg.psc_pml5_entries + 1, 16);
    PageWalker fresh(wcfg, &pt_b, &dram_b);
    EXPECT_EQ(section_error(fresh, reseal(payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, BranchWeightOutsideRailsIsMalformed)
{
    // One u16 per weight, table-major; 6-bit weights top out at 31.
    const BranchPredConfig cfg;
    BranchPredictor driven(cfg);
    std::string payload = payload_of(section_of(driven));
    poke(payload, 0, 1u << (cfg.weight_bits - 1), 2);
    BranchPredictor fresh(cfg);
    EXPECT_EQ(section_error(fresh, reseal(payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, MokaWeightOutsideRailsIsMalformed)
{
    // "filter.moka" opens with the weight arena, one u16 per weight.
    const MokaConfig cfg = dripper_config(L1dPrefetcherKind::kBerti);
    MokaFilter driven(cfg), fresh(cfg);
    const std::string bytes = own_sections_of(driven);
    std::string payload = section_payload(bytes, "filter.moka");
    poke(payload, 0, 1u << (cfg.weight_bits - 1), 2);
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "filter.moka", payload)),
              SnapshotErrorKind::kMalformed);
}

/** Payload bytes of one DecisionRecord: block, count, indexes, mask. */
constexpr std::size_t kRecordBytes = 8 + 1 + 4 * 8 + 1;
/** Payload bytes of one UpdateBuffer ring slot: record, seq, live. */
constexpr std::size_t kSlotBytes = kRecordBytes + 8 + 1;

/** Hash-table positions of an UpdateBuffer of @p entries. */
std::size_t
ub_table_size(std::size_t entries)
{
    std::size_t table = 8;
    while (table < 4 * entries) {
        table *= 2;
    }
    return table;
}

TEST(SnapshotComponents, UpdateBufferOccupancyOutOfRangeIsMalformed)
{
    // Ring slots, the table vector (u64 length, u32 entries), then
    // head (u64).
    constexpr std::size_t kEntries = 32;
    VirtUpdateBuffer driven(kEntries);
    std::string payload = payload_of(section_of(driven));
    const std::size_t head_at =
        2 * kEntries * kSlotBytes + 8 + 4 * ub_table_size(kEntries);
    poke(payload, head_at, 2 * kEntries, 8);
    VirtUpdateBuffer fresh(kEntries);
    EXPECT_EQ(section_error(fresh, reseal(payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, SignedCounterOutsideRailsIsMalformed)
{
    // The weight is one u16; a 5-bit counter tops out at 15.
    const SystemFeatureConfig cfg;
    SystemFeature driven(cfg);
    std::string payload = payload_of(section_of(driven));
    poke(payload, 0, 16, 2);
    SystemFeature fresh(cfg);
    EXPECT_EQ(section_error(fresh, reseal(payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, UnsignedCounterAboveRailIsMalformed)
{
    // Stride entry 0: tag (u16), valid (u8), last line (u64), stride
    // (i64), then its 2-bit confidence counter (u16, at most 3).
    const StridePrefetcherConfig cfg;
    StridePrefetcher driven(cfg), fresh(cfg);
    const std::string bytes = own_sections_of(driven);
    std::string payload = section_payload(bytes, "pf.stride");
    poke(payload, 2 + 1 + 8 + 8, 4, 2);
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "pf.stride", payload)),
              SnapshotErrorKind::kMalformed);
}

// Indexes and bounds a component would use unchecked: each must be
// rejected on restore, before the first access runs past an array.

TEST(SnapshotComponents, RobRingHeadPastTheRingIsMalformed)
{
    // The retire ring (u64 length, one u64 per entry), then its head.
    const CoreConfig cfg;
    Core driven(cfg), fresh(cfg);
    std::string payload = payload_of(section_of(driven));
    poke(payload, 8 + 8 * cfg.rob_entries, cfg.rob_entries, 8);
    EXPECT_EQ(section_error(fresh, reseal(payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, BertiHistoryHeadPastTheHistoryIsMalformed)
{
    const std::string bytes = driven_berti();
    std::string payload = section_payload(bytes, "pf.berti");
    poke(payload, kBertiHeadAt, BertiConfig{}.history_per_ip, 4);
    Berti fresh{BertiConfig{}};
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "pf.berti", payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, BopTestIndexPastTheOffsetsIsMalformed)
{
    // The recent-request table (u64 length, one u64 per entry), one
    // i64 score per offset, then the test index (u32).
    const BopConfig cfg;
    Bop driven(cfg), fresh(cfg);
    const std::string bytes = own_sections_of(driven);
    std::string payload = section_payload(bytes, "pf.bop");
    poke(payload, 8 + 8 * cfg.rr_entries + 8 * cfg.offsets.size(),
         cfg.offsets.size(), 4);
    EXPECT_EQ(own_sections_error(fresh,
                                 with_section(bytes, "pf.bop", payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, UpdateBufferTableEntryOutsideTheRingIsMalformed)
{
    // The table vector (u64 length, u32 entries) follows the ring
    // slots; 2 x capacity is one past the last ring slot and is
    // neither the empty nor the tombstone sentinel.
    constexpr std::size_t kEntries = 32;
    VirtUpdateBuffer driven(kEntries), fresh(kEntries);
    std::string payload = payload_of(section_of(driven));
    poke(payload, 2 * kEntries * kSlotBytes + 8, 2 * kEntries, 4);
    EXPECT_EQ(section_error(fresh, reseal(payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, DecisionRecordOutsideTheWeightTablesIsMalformed)
{
    // "filter.moka": the weight arena (u16 each), one u16 per system
    // feature, the vUB and the pUB (ring slots, table vector, seven
    // u64 counters), then the pending record. A record is its block
    // (u64), feature count (u8), eight indexes (u32) and mask (u8).
    const MokaConfig cfg = dripper_config(L1dPrefetcherKind::kBerti);
    const std::size_t features =
        cfg.program_features.size() + cfg.specialized_features.size();
    ASSERT_LT(features, VirtDecisionRecord::kMaxFeatures);
    const auto ub_bytes = [](std::size_t entries) {
        return 2 * entries * kSlotBytes + 8 + 4 * ub_table_size(entries) +
               7 * 8;
    };
    const std::size_t vub_at =
        2 * features * cfg.wt_entries + 2 * cfg.system_features.size();
    const std::size_t pub_at = vub_at + ub_bytes(cfg.vub_entries);
    const std::size_t pending_at = pub_at + ub_bytes(cfg.pub_entries);
    const MokaFilter driven(cfg);
    const std::string bytes = own_sections_of(driven);
    const struct
    {
        const char *what;
        std::size_t record_at;
        std::uint64_t num_features;
        std::uint64_t index0;
    } cases[] = {
        {"pending count above kMaxFeatures", pending_at,
         VirtDecisionRecord::kMaxFeatures + 1, 0},
        {"pending count above the filter's features", pending_at,
         features + 1, 0},
        {"pending index past its table", pending_at, features,
         cfg.wt_entries},
        {"vUB index past its table", vub_at, features, cfg.wt_entries},
        {"pUB count above kMaxFeatures", pub_at,
         VirtDecisionRecord::kMaxFeatures + 1, 0},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        std::string payload = section_payload(bytes, "filter.moka");
        poke(payload, c.record_at + 8, c.num_features, 1);
        poke(payload, c.record_at + 9, c.index0, 4);
        MokaFilter fresh(cfg);
        EXPECT_EQ(own_sections_error(
                      fresh, with_section(bytes, "filter.moka", payload)),
                  SnapshotErrorKind::kMalformed);
    }
}

TEST(SnapshotComponents, SrripRrpvAboveItsRailIsMalformed)
{
    // Tags (u64 length, u32 each), flags (u64 length, u8 each), the
    // fill base (u64), fill offsets (u64 length, u32 each), the empty
    // MSHR list (u64 length), the port cycle (u64), then the RRPVs
    // (u64 length, u8 each, at most 3).
    DramConfig dcfg;
    CacheConfig ccfg;
    ccfg.sets = 16;
    ccfg.ways = 4;
    ccfg.replacement = ReplacementKind::kSrrip;
    Dram dram_a(dcfg), dram_b(dcfg);
    Cache driven(ccfg, &dram_a), fresh(ccfg, &dram_b);
    const std::size_t blocks = ccfg.sets * ccfg.ways;
    std::string payload = payload_of(section_of(driven));
    poke(payload, (8 + 4 * blocks) + (8 + blocks) + 8 + (8 + 4 * blocks) +
                      8 + 8 + 8,
         4, 1);
    EXPECT_EQ(section_error(fresh, reseal(payload)),
              SnapshotErrorKind::kMalformed);
}

TEST(SnapshotComponents, LruRanksOutsideAPermutationAreMalformed)
{
    // Tags (u64 length, u32 each), flags (u64 length, u8 each), the
    // fill base (u64), fill offsets (u64 length, u32 each), the MSHR
    // list (u64 length, u64 each), the port cycle (u64), then the
    // ranks (u64 length, one u8 per way, each set's row a permutation
    // of [0, ways)).
    DramConfig dcfg;
    CacheConfig ccfg;
    ccfg.sets = 16;
    ccfg.ways = 4;
    Dram dram_a(dcfg), dram_b(dcfg);
    Cache driven(ccfg, &dram_a);
    for (Addr a = 0; a < 200; ++a) {
        (void)driven.access(PhysAddr{((a * 7) % 96) * kBlockSize},
                            AccessType::kLoad, a * 10);
    }
    const std::size_t blocks = ccfg.sets * ccfg.ways;
    const std::string payload = payload_of(section_of(driven));
    const std::size_t mshr_at = (8 + 4 * blocks) + (8 + blocks) + 8 +
                                (8 + 4 * blocks);
    const std::size_t ranks_at =
        mshr_at + 8 + 8 * peek(payload, mshr_at, 8) + 8 + 8;
    ASSERT_EQ(peek(payload, ranks_at - 8, 8), blocks);
    constexpr std::size_t kSet = 5;
    const std::size_t row = ranks_at + kSet * ccfg.ways;
    std::uint64_t rank_sum = 0;
    for (std::size_t w = 0; w < ccfg.ways; ++w) {
        rank_sum += peek(payload, row + w, 1);
    }
    ASSERT_EQ(rank_sum, 0u + 1 + 2 + 3);

    const struct
    {
        const char *what;
        std::size_t way;
        std::uint64_t rank;
    } cases[] = {
        {"two ways share a rank", 1, peek(payload, row, 1)},
        {"rank past the last way", 2, ccfg.ways},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        std::string bad = payload;
        poke(bad, row + c.way, c.rank, 1);
        Cache fresh(ccfg, &dram_b);
        EXPECT_EQ(section_error(fresh, reseal(bad)),
                  SnapshotErrorKind::kMalformed);
    }
    Cache fresh(ccfg, &dram_b);
    restore_section(fresh, reseal(payload));
    EXPECT_EQ(section_of(fresh), section_of(driven));
}

TEST(SnapshotComponents, CacheFillBaseAheadOfItsPortClockIsMalformed)
{
    // Tags (u64 length, u32 each), flags (u64 length, u8 each), the
    // fill base (u64), fill offsets (u64 length, u32 each), the MSHR
    // list (u64 length, u64 each), then the port cycle (u64). A base
    // past the port clock would let an offset of 0 merge.
    DramConfig dcfg;
    CacheConfig ccfg;
    ccfg.sets = 16;
    ccfg.ways = 4;
    Dram dram_a(dcfg), dram_b(dcfg);
    Cache driven(ccfg, &dram_a);
    for (Addr a = 0; a < 64; ++a) {
        (void)driven.access(PhysAddr{a * kBlockSize}, AccessType::kLoad,
                            a * 3);
    }
    const std::size_t blocks = ccfg.sets * ccfg.ways;
    std::string payload = payload_of(section_of(driven));
    const std::size_t base_at = (8 + 4 * blocks) + (8 + blocks);
    const std::size_t mshr_at = base_at + 8 + (8 + 4 * blocks);
    const std::uint64_t port_free =
        peek(payload, mshr_at + 8 + 8 * peek(payload, mshr_at, 8), 8);
    ASSERT_EQ(port_free, 63u * 3 + 1);

    poke(payload, base_at, port_free, 8);
    Cache at_clock(ccfg, &dram_b);
    restore_section(at_clock, reseal(payload));
    poke(payload, base_at, port_free + 1, 8);
    Cache fresh(ccfg, &dram_b);
    EXPECT_EQ(section_error(fresh, reseal(payload)),
              SnapshotErrorKind::kMalformed);
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
    // The cache memoizes nothing in memory: the first fetch produces
    // and publishes, and the later ones are served from the published
    // file.
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

TEST(SnapshotCacheTest, FetchedBlobIsNotRetained)
{
    // A blob lives as long as its caller holds it, produced or loaded:
    // the cache keeps no reference of its own.
    const std::string dir = temp_dir("retain");
    SnapshotCache cache(dir);
    for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE(i == 0 ? "produced" : "loaded");
        SnapshotCache::FetchOutcome out;
        SnapshotBlob blob =
            cache.fetch(11, [] { return tiny_snapshot(); }, &out);
        ASSERT_NE(blob, nullptr);
        EXPECT_EQ(out.hit, i == 1);
        const std::weak_ptr<const SnapshotImage> weak = blob;
        blob.reset();
        EXPECT_TRUE(weak.expired());
    }
}

TEST(SnapshotCacheTest, SameKeyFromTwoThreadsProducesOnce)
{
    // The lease, not an in-memory memo, elects one producer among the
    // threads of one process: the other polls for the publish.
    const std::string dir = temp_dir("samekey");
    SnapshotCache cache(dir);
    std::atomic<int> produced{0};
    const auto produce = [&produced]() {
        produced.fetch_add(1);
        // Hold the claim long enough for the other thread to find it.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return tiny_snapshot();
    };
    std::array<SnapshotBlob, 2> blobs;
    std::array<std::thread, 2> threads;
    for (std::size_t t = 0; t < threads.size(); ++t) {
        threads[t] = std::thread(
            [&, t] { blobs[t] = cache.fetch(12, produce); });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    EXPECT_EQ(produced.load(), 1);
    const SnapshotCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.saves, 1u);
    EXPECT_EQ(s.hits, 1u);
    for (const SnapshotBlob &blob : blobs) {
        ASSERT_NE(blob, nullptr);
        EXPECT_EQ(blob->bytes(), tiny_snapshot());
    }
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
    // A later fetch may retry: the failed producer released its claim.
    const SnapshotBlob blob = cache.fetch(3, []() { return tiny_snapshot(); });
    ASSERT_NE(blob, nullptr);
}

// ----------------------------------------------- runner + job taxonomy

/**
 * Records the first machine step a run calls it at. A run restored
 * from a snapshot starts counting where the warmup stopped; a cold
 * run, or a cold fallback from a rejected snapshot, starts at 1.
 */
class FirstStep final : public RunTickHook
{
  public:
    void on_tick(std::uint64_t steps) override
    {
        if (first == 0) {
            first = steps;
        }
    }
    std::uint64_t next_tick(std::uint64_t steps) override
    {
        return first == 0 ? steps + 1 : kNever;
    }

    std::uint64_t first = 0;
};

TEST(SnapshotRunner, WarmRunMatchesColdRunExactly)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kGather);
    RunConfig run;
    run.warmup_insts = 15'000;
    run.measure_insts = 40'000;
    const std::vector<WorkloadFactory> make = {
        [&spec]() { return make_workload(spec); }};

    const RunMetrics cold = simulate(cfg, make, run)[0];

    const std::string dir = temp_dir("runner");
    SnapshotCache cache(dir);
    // First call misses (produces + publishes), second hits from disk;
    // both must reproduce the cold metrics exactly.
    const RunMetrics missed =
        simulate(cfg, make, run, nullptr, &cache, /*warmup_key=*/77)[0];
    FirstStep restored;
    const RunMetrics hit =
        simulate(cfg, make, run, &restored, &cache, /*warmup_key=*/77)[0];
    EXPECT_GE(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(restored.first, run.warmup_insts + 1);
    for (const RunMetrics &warm : {missed, hit}) {
        EXPECT_EQ(warm.instructions, cold.instructions);
        EXPECT_EQ(warm.cycles, cold.cycles);
        EXPECT_EQ(warm.l1d.misses, cold.l1d.misses);
        EXPECT_EQ(warm.llc.misses, cold.llc.misses);
        EXPECT_EQ(warm.pgc_issued, cold.pgc_issued);
        EXPECT_EQ(warm.branch_mispredicts, cold.branch_mispredicts);
    }
}

TEST(SnapshotRunner, MulticoreWarmRunMatchesColdRunExactly)
{
    // A mix goes through the same cache path as a single-core cell:
    // the cores finish the warmup at different points and keep
    // replaying, and the restored machine must carry on from there.
    MachineConfig cfg = default_config(2);
    cfg.scheme = scheme_dripper(L1dPrefetcherKind::kBerti);
    const std::vector<WorkloadSpec> mix = {pick(Family::kStream),
                                           pick(Family::kHash)};
    std::vector<WorkloadFactory> make;
    for (const WorkloadSpec &w : mix) {
        make.push_back([w]() { return make_workload(w); });
    }
    RunConfig run;
    run.warmup_insts = 15'000;
    run.measure_insts = 30'000;

    const std::vector<RunMetrics> cold = simulate(cfg, make, run);
    const std::string dir = temp_dir("runner_mix");
    SnapshotCache cache(dir);
    const std::vector<RunMetrics> missed =
        simulate(cfg, make, run, nullptr, &cache, /*warmup_key=*/78);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().saves, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    FirstStep restored;
    const std::vector<RunMetrics> hit =
        simulate(cfg, make, run, &restored, &cache, /*warmup_key=*/78);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    // The hit measured a restored machine, not a cold fallback: both
    // cores had retired their warmup before its first step.
    EXPECT_GT(restored.first, 2 * run.warmup_insts);
    ASSERT_EQ(cold.size(), 2u);
    for (const std::vector<RunMetrics> *warm : {&missed, &hit}) {
        ASSERT_EQ(warm->size(), cold.size());
        for (std::size_t c = 0; c < cold.size(); ++c) {
            SCOPED_TRACE(c);
            expect_same_metrics((*warm)[c], cold[c]);
        }
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
    const std::vector<WorkloadFactory> make = {
        [&spec]() { return make_workload(spec); }};
    (void)simulate(snap_config(), make, run, nullptr, &cache, 77);
    const MachineConfig other =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    (void)simulate(other, make, run, nullptr, &cache, 77);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
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
