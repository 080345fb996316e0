/** @file Allocation-trace interposer tests (hot-path rule L10).
 *
 * The first tests exercise the interposer itself with a fake hot
 * scope; the steady-state test is the enforcement end of the
 * hot-path contract: a warmed-up measured region must perform zero
 * heap allocations.  Every test skips in builds without
 * -DMOKASIM_ALLOC_TRACE=ON, where the interposer compiles away.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/alloc_trace.h"
#include "filter/policies.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {
namespace {

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

TEST(AllocTrace, DisabledBuildReportsDisabled)
{
    if (alloc_trace::enabled()) {
        GTEST_SKIP() << "interposer active";
    }
    EXPECT_EQ(alloc_trace::total(), 0u);
    alloc_trace::arm("noop");
    auto p = std::make_unique<int>(7);
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(alloc_trace::disarm(), 0u);
}

TEST(AllocTrace, FakeHotScopeTripsCounter)
{
    if (!alloc_trace::enabled()) {
        GTEST_SKIP() << "build without MOKASIM_ALLOC_TRACE";
    }
    const std::uint64_t before = alloc_trace::total();
    alloc_trace::arm("fake-hot-scope");
    EXPECT_STREQ(alloc_trace::window_label(), "fake-hot-scope");
    {
        // A "hot" loop that violates L10: per-iteration heap growth.
        std::vector<std::uint64_t> grower;
        for (std::uint64_t i = 0; i < 64; ++i) {
            grower.push_back(i);
        }
    }
    const std::uint64_t in_window = alloc_trace::disarm();
    EXPECT_GE(in_window, 1u);
    EXPECT_GT(alloc_trace::total(), before);
}

TEST(AllocTrace, QuietWindowCountsZero)
{
    if (!alloc_trace::enabled()) {
        GTEST_SKIP() << "build without MOKASIM_ALLOC_TRACE";
    }
    std::uint64_t in_window = 0;
    {
        alloc_trace::Window window("quiet", &in_window);
        std::uint64_t acc = 1;
        for (int i = 0; i < 1024; ++i) {
            acc = acc * 2862933555777941757ull + 3037000493ull;
        }
        // Keep the loop observable without allocating.
        EXPECT_NE(acc, 0u);
    }
    EXPECT_EQ(in_window, 0u);
}

TEST(AllocTrace, RearmResetsWindow)
{
    if (!alloc_trace::enabled()) {
        GTEST_SKIP() << "build without MOKASIM_ALLOC_TRACE";
    }
    alloc_trace::arm("first");
    auto p = std::make_unique<int>(1);
    EXPECT_NE(p, nullptr);
    alloc_trace::arm("second");
    EXPECT_EQ(alloc_trace::disarm(), 0u);
}

/**
 * The contract itself: after warmup has populated every pool, table
 * and reserve()d container, a fig19-class measured region must not
 * touch the heap at all.  One dripper (the paper's scheme) and one
 * baseline config, on a streaming and an irregular workload, and on a
 * tile workload: its rows span the widest VA range (hundreds of 2MB
 * regions), so its page table's table maps are the likeliest to
 * outgrow a reservation sized by the workload's page bound.
 */
TEST(AllocTrace, SteadyStateMeasuredRegionIsAllocationFree)
{
    if (!alloc_trace::enabled()) {
        GTEST_SKIP() << "build without MOKASIM_ALLOC_TRACE";
    }
    struct CasePoint
    {
        const char *name;
        MachineConfig cfg;
        Family family;
    };
    const CasePoint cases[] = {
        {"berti+dripper/stream",
         make_config(L1dPrefetcherKind::kBerti,
                     scheme_dripper(L1dPrefetcherKind::kBerti)),
         Family::kStream},
        {"berti+permit/csr",
         make_config(L1dPrefetcherKind::kBerti, scheme_permit()),
         Family::kCsr},
        {"berti+permit/tile",
         make_config(L1dPrefetcherKind::kBerti, scheme_permit()),
         Family::kTile},
    };
    for (const CasePoint &c : cases) {
        SCOPED_TRACE(c.name);
        std::vector<WorkloadPtr> w;
        w.push_back(make_workload(pick(c.family)));
        Machine machine(c.cfg, std::move(w));
        machine.run(/*insts=*/200'000, /*hook=*/nullptr);
        machine.start_measurement();
        alloc_trace::arm(c.name);
        machine.run(/*insts=*/200'000, /*hook=*/nullptr);
        const std::uint64_t in_measure = alloc_trace::disarm();
        EXPECT_EQ(in_measure, 0u)
            << in_measure << " heap allocations in the measured "
            << "region of " << c.name
            << "; rule L10 requires steady-state code to live off "
            << "warmup-time reservations";
    }
}

}  // namespace
}  // namespace moka
