// Layout-equivalence golden tests: the SoA data-layout work (cache
// tag arrays, flat filter weight arena, trace block decoder) must be
// metric-bit-identical to the original array-of-structs layouts.  The
// digests below were generated on the pre-refactor code by running
// each (scheme, workload) pair and hashing (a) the full architectural
// snapshot byte stream and (b) every RunMetrics field in declaration
// order.  Any layout change that perturbs a replacement decision, a
// filter sum, or a trace record stream shows up as a digest mismatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/hashing.h"
#include "filter/policies.h"
#include "sim/machine.h"
#include "sim/runner.h"
#include "trace/suites.h"
#include "trace/trace_io.h"

namespace moka {
namespace {

std::uint64_t
metrics_digest(const RunMetrics &m)
{
    std::uint64_t h = kFnv1aOffset;
    for_each_leaf(
        [&h](const char *, std::uint64_t v) {
            h = fnv1a_64(&v, sizeof(v), h);
        },
        m);
    return h;
}

const WorkloadSpec &
spec_of(const std::string &name)
{
    static const std::vector<WorkloadSpec> roster = seen_workloads();
    for (const WorkloadSpec &s : roster) {
        if (s.name == name) {
            return s;
        }
    }
    throw std::runtime_error("unknown workload: " + name);
}

SchemeConfig
scheme_of(const std::string &name)
{
    if (name == "dripper") {
        return scheme_dripper(L1dPrefetcherKind::kBerti);
    }
    if (name == "permit") {
        return scheme_permit();
    }
    if (name == "ppf") {
        return scheme_ppf(false);
    }
    return scheme_discard();
}

struct GoldenRow {
    const char *scheme;
    const char *workload;
    std::uint64_t snapshot_digest;
    std::uint64_t metrics_digest;
};

// Generated on the pre-refactor layouts (PR 10 baseline).  Regenerate
// only when simulation semantics intentionally change, never for a
// data-layout refactor.  The snapshot digests were re-pinned for
// snapshot format version 2 (caches stopped serializing the never-
// incremented PrefetchStats::pgc_dropped) and for version 3 (sparse
// page maps, packed frame bits, whole-array caches and TLBs, no audit
// cadence, so audit-enabled builds match too) and for version 4 (each
// core's workload generator state in "core.workload", section sums by
// checksum64) and for version 5 (u32 cache tags, one u8 LRU rank per
// way in place of u64 stamps and a clock, u32 page-map frame
// numbers), and once more at version 5 when each page table began
// reserving its maps by its workload's page bound: the synthetic
// rows' saved map capacities and slot indexes moved, and every row's
// header carries the config fingerprint that VmemConfig's deleted
// reserve_pages field moved (the trace-backed rows, whose workload
// declares no bound, differ from their previous digests in those
// eight header bytes alone), and for version 6 (caches save a u64
// fill base and u32 fill offsets above it in place of u64 fill
// cycles; a page table whose config maps no large pages saves a
// 64-slot large-page map). The metrics digests did not move.
constexpr GoldenRow kGolden[] = {
    {"dripper", "parsec.stream.0", 0x0bfac3560cba2c6dull, 0x7873dffa91c221dfull},
    {"permit", "parsec.stream.0", 0x9a921921dcaf1fdcull, 0x7873dffa91c221dfull},
    {"ppf", "parsec.stream.0", 0xf03fbeb760c59d78ull, 0xfad344a3d7cd329bull},
    {"discard", "parsec.stream.0", 0x283584260a2e393full, 0x513b0dc733f2ebcdull},
    {"dripper", "spec06.gather.1", 0xdc727f1e8bb56663ull, 0x19092a40a62fbb3bull},
    {"permit", "spec06.gather.1", 0x825847b1bec19b31ull, 0x19092a40a62fbb3bull},
    {"ppf", "spec06.gather.1", 0x2f4738fdbfecf320ull, 0xf361a57e8d9563afull},
    {"discard", "spec06.gather.1", 0xbf2956ab7d661367ull, 0x3941f4f8ee712a83ull},
};

constexpr GoldenRow kGoldenTrace[] = {
    {"dripper", "trace:spec06.hash.4", 0x7af9c1594ce24b59ull, 0x61bd44852deab3b6ull},
    {"permit", "trace:spec06.hash.4", 0x7c8e6d1ee3b792acull, 0x61bd44852deab3b6ull},
};

constexpr GoldenRow kGoldenMix[] = {
    {"dripper", "mix2:stream+gather", 0x6cb87f4881937c0cull, 0x697123b20d884c63ull},
    {"discard", "mix2:stream+gather", 0x2ddd56ed091df991ull, 0xa05e4b9e6186f1f3ull},
};

/**
 * kModelVersion history, append-only: one row per model version with
 * the FNV-1a hash of every metrics golden above (kGolden, then
 * kGoldenTrace, then kGoldenMix). A behaviour change that re-pins a
 * golden must bump kModelVersion and append a row, or the result and
 * warmup stores would keep serving what the old model computed.
 */
struct ModelVersionPin {
    std::uint32_t version;
    std::uint64_t goldens;
};

constexpr ModelVersionPin kModelVersions[] = {
    {1, 0x43b337fb77af8f2full},
};

TEST(LayoutEquivalence, MetricsGoldensMatchModelVersion)
{
    std::uint64_t h = kFnv1aOffset;
    const auto fold = [&h](const auto &rows) {
        for (const GoldenRow &row : rows) {
            h = fnv1a_64(&row.metrics_digest, sizeof(row.metrics_digest), h);
        }
    };
    fold(kGolden);
    fold(kGoldenTrace);
    fold(kGoldenMix);
    for (std::size_t i = 1; i < std::size(kModelVersions); ++i) {
        EXPECT_LT(kModelVersions[i - 1].version, kModelVersions[i].version);
    }
    const ModelVersionPin &current =
        kModelVersions[std::size(kModelVersions) - 1];
    EXPECT_EQ(current.version, kModelVersion)
        << "append a row for the new kModelVersion";
    EXPECT_EQ(current.goldens, h)
        << std::hex << "metrics goldens moved (now 0x" << h
        << "): bump kModelVersion and append {version, hash}";
}

TEST(LayoutEquivalence, SingleCoreSchemesMatchGoldenDigests)
{
    for (const GoldenRow &row : kGolden) {
        SCOPED_TRACE(std::string(row.scheme) + " / " + row.workload);
        MachineConfig cfg =
            make_config(L1dPrefetcherKind::kBerti, scheme_of(row.scheme));
        std::vector<WorkloadPtr> wl;
        wl.push_back(make_workload(spec_of(row.workload)));
        Machine m(cfg, std::move(wl));
        m.run(100'000);
        m.start_measurement();
        m.run(200'000);
        const std::string snap = m.save_snapshot();
        EXPECT_EQ(row.snapshot_digest, fnv1a_64(snap.data(), snap.size()));
        EXPECT_EQ(row.metrics_digest, metrics_digest(m.measured(0)));
    }
}

TEST(LayoutEquivalence, TraceBackedRunMatchesGoldenDigests)
{
    // Record a deterministic slice once, replay through the trace
    // decoder for both schemes: covers the block-decoder read path
    // end to end, not just unit-level ring mechanics.
    const std::string path =
        ::testing::TempDir() + "layout_equivalence.trc";
    {
        WorkloadPtr src = make_workload(spec_of("spec06.hash.4"));
        record_trace(path, *src, 50'000);
    }
    for (const GoldenRow &row : kGoldenTrace) {
        SCOPED_TRACE(std::string(row.scheme) + " / " + row.workload);
        MachineConfig cfg =
            make_config(L1dPrefetcherKind::kBerti, scheme_of(row.scheme));
        std::vector<WorkloadPtr> wl;
        wl.push_back(open_trace(path));
        Machine m(cfg, std::move(wl));
        m.run(60'000);
        m.start_measurement();
        m.run(100'000);
        const std::string snap = m.save_snapshot();
        EXPECT_EQ(row.snapshot_digest, fnv1a_64(snap.data(), snap.size()));
        EXPECT_EQ(row.metrics_digest, metrics_digest(m.measured(0)));
    }
    std::remove(path.c_str());
}

TEST(LayoutEquivalence, TwoCoreMixMatchesGoldenDigests)
{
    for (const GoldenRow &row : kGoldenMix) {
        SCOPED_TRACE(std::string(row.scheme) + " / " + row.workload);
        MachineConfig cfg = default_config(2);
        cfg.l1d_prefetcher = L1dPrefetcherKind::kBerti;
        cfg.scheme = scheme_of(row.scheme);
        std::vector<WorkloadPtr> wl;
        wl.push_back(make_workload(spec_of("parsec.stream.0")));
        wl.push_back(make_workload(spec_of("spec06.gather.1")));
        Machine m(cfg, std::move(wl));
        m.run(50'000);
        m.start_measurement();
        m.run(100'000);
        const std::string snap = m.save_snapshot();
        EXPECT_EQ(row.snapshot_digest, fnv1a_64(snap.data(), snap.size()));
        std::uint64_t md = kFnv1aOffset;
        for (std::size_t i = 0; i < m.num_cores(); ++i) {
            const std::uint64_t d = metrics_digest(m.measured(i));
            md = fnv1a_64(&d, sizeof(d), md);
        }
        EXPECT_EQ(row.metrics_digest, md);
    }
}

// Re-pinned when VmemConfig lost reserve_pages (each page table now
// reserves by its workload's page bound): a config fingerprint hashes
// every field name and value, so deleting a field moves every pin.
TEST(LayoutEquivalence, ConfigFingerprintsMatchGoldens)
{
    struct Pin {
        unsigned cores;
        const char *scheme;
        std::uint64_t fingerprint;
    };
    constexpr Pin kPins[] = {
        {1, "discard", 0xd586bfa1f5047308ull},
        {1, "dripper", 0xe61e04d6f9836eb1ull},
        {2, "discard", 0x1ef34f4dd7935745ull},
        {2, "dripper", 0x128b9fc26b5147c6ull},
        {8, "discard", 0xda09c5f608c2d7c9ull},
        {8, "dripper", 0x43bfb5b4cf6edf9full},
    };
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(std::to_string(pin.cores) + " / " + pin.scheme);
        MachineConfig cfg = default_config(pin.cores);
        cfg.scheme = scheme_of(pin.scheme);
        EXPECT_EQ(pin.fingerprint, config_fingerprint(cfg, pin.cores));
    }
}

}  // namespace
}  // namespace moka
