/**
 * @file
 * The record structs' visit_fields lists (common/fields.h): each one
 * names every member, the snapshot helpers round-trip it, the
 * operator- built on it zeroes `x - x`, and config_fingerprint
 * reacts to every visited MachineConfig field.
 */
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "audit/access.h"
#include "common/fields.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"

namespace moka {
namespace {

/** Move leaf @p f off its current value; @p k >= 1 differs per field. */
template <class F>
void
shift(F &f, unsigned k)
{
    if constexpr (std::is_same_v<F, bool>) {
        f = !f;
    } else if constexpr (std::is_enum_v<F>) {
        f = static_cast<F>(static_cast<std::underlying_type_t<F>>(f) + k);
    } else if constexpr (std::is_same_v<F, std::string>) {
        f += std::to_string(k);
    } else if constexpr (std::is_arithmetic_v<F>) {
        f += static_cast<F>(k);
    }
}

/** A default record with every field moved to a distinct value. */
template <class T>
T
filled()
{
    T x{};
    unsigned k = 0;
    for_each_leaf([&k](const char *, auto &f) { shift(f, ++k); }, x);
    return x;
}

// Run state is snapshotted; configuration never is (a restored
// machine rebuilds it and checks the fingerprint instead).
template <class T>
constexpr bool kRunState =
    std::is_same_v<T, AccessStats> || std::is_same_v<T, PrefetchStats> ||
    std::is_same_v<T, CacheStats> || std::is_same_v<T, RunMetrics> ||
    std::is_same_v<T, SystemSnapshot> || std::is_same_v<T, EpochInfo> ||
    std::is_same_v<T, ThresholdTelemetry> ||
    std::is_same_v<T, AuditAccess::CoreWindow>;

template <class T>
class RecordFields : public ::testing::Test
{
};

using Records = ::testing::Types<
    AccessStats, PrefetchStats, CacheStats, RunMetrics, SystemSnapshot,
    EpochInfo, ThresholdTelemetry, AuditAccess::CoreWindow, MachineConfig,
    CoreConfig, FrontendConfig, BranchPredConfig, CacheConfig, TlbConfig,
    WalkerConfig, VmemConfig, DramConfig, SchemeConfig>;
TYPED_TEST_SUITE(RecordFields, Records);

TYPED_TEST(RecordFields, ListRoundTripsAndDiffs)
{
    using T = TypeParam;
    EXPECT_EQ(visited_count<T>(), member_count<T>());
    const T x = filled<T>();

    if constexpr (kRunState<T>) {
        SnapshotWriter w(0);
        w.begin_section("record");
        field(w, x);
        const SnapshotImage image(w.finish());
        SnapshotReader r(image);
        r.begin_section("record");
        T y{};
        field(r, y);
        r.finish();
        for_each_leaf([](const char *name, const auto &a,
                         const auto &b) { EXPECT_EQ(a, b) << name; },
                      x, y);
    }
    if constexpr (requires { x - x; }) {
        const T zero = x - x;
        for_each_leaf(
            [](const char *name, const auto &f) {
                EXPECT_EQ(f, std::remove_cvref_t<decltype(f)>{}) << name;
            },
            zero);
    }
}

TEST(RecordFields, FingerprintCoversEveryVisitedConfigField)
{
    const MachineConfig base = default_config(1);
    const std::uint64_t h0 = config_fingerprint(base, 1);
    unsigned leaves = 0;
    for_each_leaf([&leaves](const char *, const auto &) { ++leaves; },
                  base);
    unsigned checked = 0;
    for (unsigned k = 0; k < leaves; ++k) {
        MachineConfig cfg = base;
        unsigned i = 0;
        const char *field = nullptr;
        for_each_leaf(
            [&](const char *name, auto &f) {
                using F = std::remove_cvref_t<decltype(f)>;
                // make_filter is skipped: the fingerprint cannot see the
                // filter a closure builds (ROADMAP "Honest keys" (a)).
                if constexpr (!std::is_same_v<
                                  F, decltype(SchemeConfig::make_filter)>) {
                    if (i == k) {
                        field = name;
                        shift(f, 1);
                    }
                }
                ++i;
            },
            cfg);
        if (field != nullptr) {
            EXPECT_NE(config_fingerprint(cfg, 1), h0) << field;
            ++checked;
        }
    }
    EXPECT_EQ(checked, leaves - 1);
}

}  // namespace
}  // namespace moka
