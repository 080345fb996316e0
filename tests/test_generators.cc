/** @file Unit tests for the synthetic workload generators. */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "snapshot/format.h"
#include "trace/generators.h"
#include "trace/suites.h"

namespace moka {
namespace {

TEST(Generators, DeterministicStreams)
{
    StreamParams p;
    WorkloadPtr a = make_synthetic("a", make_stream_kernel(p),
                                   InterleaveParams{}, 42);
    WorkloadPtr b = make_synthetic("b", make_stream_kernel(p),
                                   InterleaveParams{}, 42);
    for (int i = 0; i < 5000; ++i) {
        const TraceInst x = a->next();
        const TraceInst y = b->next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(static_cast<int>(x.op), static_cast<int>(y.op));
        ASSERT_EQ(x.mem_addr, y.mem_addr);
        ASSERT_EQ(x.taken, y.taken);
    }
}

TEST(Generators, InterleaveRatiosApproximatelyHonored)
{
    InterleaveParams ip;
    ip.mem_ratio = 0.3;
    ip.branch_ratio = 0.1;
    WorkloadPtr w = make_synthetic("w", make_stream_kernel(StreamParams{}),
                                   ip, 7);
    std::map<OpClass, unsigned> counts;
    const unsigned n = 50000;
    for (unsigned i = 0; i < n; ++i) {
        ++counts[w->next().op];
    }
    const double mem =
        double(counts[OpClass::kLoad] + counts[OpClass::kStore]) / n;
    const double br = double(counts[OpClass::kBranch]) / n;
    EXPECT_NEAR(mem, 0.3, 0.02);
    EXPECT_NEAR(br, 0.1, 0.02);
}

TEST(Generators, StreamKernelIsSequentialPerStream)
{
    StreamParams p;
    p.streams = 1;
    p.stride = 64;
    p.store_frac = 0.0;
    KernelPtr k = make_stream_kernel(p);
    Rng rng(1);
    Addr prev = k->next(rng).addr;
    for (int i = 0; i < 1000; ++i) {
        const Addr cur = k->next(rng).addr;
        ASSERT_EQ(cur, prev + 64);
        prev = cur;
    }
}

TEST(Generators, TileKernelRowsAndPitch)
{
    TileParams p;
    p.row_bytes = 256;
    p.pitch = 1 << 20;
    p.rows = 4;
    p.stride = 64;
    KernelPtr k = make_tile_kernel(p);
    Rng rng(1);
    // First row: 4 sequential accesses; then jump by pitch.
    Addr first = k->next(rng).addr;
    for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(k->next(rng).addr, first + Addr(i) * 64);
    }
    EXPECT_EQ(k->next(rng).addr, first + (1 << 20));
}

TEST(Generators, PointerChaseIsDependent)
{
    PointerChaseParams p;
    KernelPtr k = make_pointer_chase_kernel(p);
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(k->next(rng).dependent);
    }
}

TEST(Generators, HashProbeStaysInFootprint)
{
    HashProbeParams p;
    p.footprint = 1 << 20;
    KernelPtr k = make_hash_probe_kernel(p);
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = k->next(rng).addr;
        EXPECT_GE(a, p.base);
        // Probes may run a few lines past the last page.
        EXPECT_LT(a, p.base + p.footprint + kPageSize);
    }
}

TEST(Generators, DualStrideCrossingsAreDeltaSeparable)
{
    DualStrideParams p;
    p.hop_lines = 9;
    p.stream_burst = 64;
    p.runs_per_burst = 4;
    KernelPtr k = make_dual_stride_kernel(p);
    Rng rng(1);
    // Verify the two populations: +1-line steps within stream bursts
    // and +hop_lines steps within runs, both under a single PC.
    std::map<std::int64_t, unsigned> deltas;
    Addr prev = k->next(rng).addr;
    Addr pc = 0;
    for (int i = 0; i < 5000; ++i) {
        const AccessKernel::Access a = k->next(rng);
        const std::int64_t d =
            std::int64_t(block_number(a.addr)) -
            std::int64_t(block_number(prev));
        ++deltas[d];
        prev = a.addr;
        if (pc == 0) {
            pc = a.pc;
        } else {
            ASSERT_EQ(a.pc, pc) << "dual-stride must use a single PC";
        }
    }
    EXPECT_GT(deltas[1], 1000u);
    EXPECT_GT(deltas[9], 200u);
}

TEST(Generators, PhaseMixAlternatesChildren)
{
    StreamParams sp;
    sp.base = 0x1000000;
    TileParams tp;
    tp.base = 0x9000000;
    std::vector<KernelPtr> children;
    children.push_back(make_stream_kernel(sp));
    children.push_back(make_tile_kernel(tp));
    KernelPtr k = make_phase_mix_kernel(std::move(children), 10);
    Rng rng(1);
    bool saw_stream = false, saw_tile = false;
    for (int i = 0; i < 100; ++i) {
        const Addr a = k->next(rng).addr;
        saw_stream |= a < 0x9000000;
        saw_tile |= a >= 0x9000000;
    }
    EXPECT_TRUE(saw_stream);
    EXPECT_TRUE(saw_tile);
}

TEST(Generators, GatherMixesSequentialAndRandom)
{
    GatherParams p;
    p.gathers_per_index = 1;
    KernelPtr k = make_gather_kernel(p);
    Rng rng(1);
    unsigned index_side = 0, data_side = 0;
    for (int i = 0; i < 1000; ++i) {
        const AccessKernel::Access a = k->next(rng);
        if (a.addr >= p.data_base) {
            ++data_side;
            EXPECT_TRUE(a.dependent);
        } else {
            ++index_side;
        }
    }
    EXPECT_NEAR(double(index_side), double(data_side), 50.0);
}

// ------------------------------------------------ generator state

/** @p w's state saved into a one-section "core.workload" container. */
std::string
saved_state(const Workload &w)
{
    SnapshotWriter sw(0);
    sw.begin_section("core.workload");
    w.save_state(sw);
    return sw.finish();
}

/** Restore @p bytes (see saved_state) into @p w at @p position. */
void
restore_state(Workload &w, const std::string &bytes, std::uint64_t position)
{
    const SnapshotImage image(bytes);
    SnapshotReader r(image);
    r.begin_section("core.workload");
    w.restore_state(r, position);
    r.finish();
}

/**
 * Save a fresh make() after @p position instructions and restore the
 * save into another fresh make(): the next 10k instructions of the
 * restored stream must equal the uninterrupted stream's.
 */
void
expect_resumes(const std::function<WorkloadPtr()> &make,
               std::uint64_t position)
{
    WorkloadPtr straight = make();
    straight->skip(position);
    WorkloadPtr resumed = make();
    restore_state(*resumed, saved_state(*straight), position);
    for (int i = 0; i < 10'000; ++i) {
        const TraceInst x = straight->next();
        const TraceInst y = resumed->next();
        ASSERT_EQ(x.pc, y.pc) << "instruction " << i;
        ASSERT_EQ(static_cast<int>(x.op), static_cast<int>(y.op));
        ASSERT_EQ(x.mem_addr, y.mem_addr) << "instruction " << i;
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.target, y.target);
        ASSERT_EQ(x.dep_load, y.dep_load);
    }
}

TEST(GeneratorState, EveryFamilyResumesFromItsSavedState)
{
    std::map<Family, WorkloadSpec> first;
    for (const WorkloadSpec &spec : seen_workloads()) {
        first.emplace(spec.family, spec);
    }
    EXPECT_EQ(first.size(), 10u);
    for (const auto &[family, spec] : first) {
        SCOPED_TRACE(spec.name);
        expect_resumes([&spec] { return make_workload(spec); }, 123'457);
    }
}

TEST(GeneratorState, PhaseMixResumesMidPhase)
{
    const auto make = [] {
        std::vector<KernelPtr> children;
        children.push_back(make_stream_kernel(StreamParams{}));
        children.push_back(make_tile_kernel(TileParams{}));
        children.push_back(make_hash_probe_kernel(HashProbeParams{}));
        return make_synthetic("phase",
                              make_phase_mix_kernel(std::move(children),
                                                    1000),
                              InterleaveParams{}, 11);
    };
    constexpr std::uint64_t kPosition = 5'000;
    // ~1750 accesses in: the second child, partway through its phase.
    // In the payload, the mixer's kind tag, count and active index
    // follow the RNG lanes and the interleaver's two counters.
    constexpr std::size_t kPayloadAt =
        8 + 4 + 8 + 4 + 4 + (sizeof("core.workload") - 1) + 8 + 8;
    constexpr std::size_t kMixerAt = kPayloadAt + 4 * 8 + 2 * 8;
    WorkloadPtr probe = make();
    probe->skip(kPosition);
    const std::string bytes = saved_state(*probe);
    std::uint64_t count = 0;
    std::uint64_t active = 0;
    std::memcpy(&count, bytes.data() + kMixerAt + 1, 8);
    std::memcpy(&active, bytes.data() + kMixerAt + 9, 8);
    EXPECT_EQ(active, 1u);
    EXPECT_GT(count, 0u);
    EXPECT_LT(count, 1000u);
    expect_resumes(make, kPosition);
}

}  // namespace
}  // namespace moka
