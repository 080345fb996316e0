/**
 * @file
 * One field list per record struct. A record (counters, snapshots,
 * configuration) names each data member once, in declaration order:
 *
 *     template <class V, class... S>
 *     static constexpr void visit_fields(V &&v, S &...s)
 *     {
 *         v("accesses", s.accesses...);
 *         v("misses", s.misses...);
 *     }
 *
 * The pack walks one record (snapshot put/get, config fingerprint)
 * or several in lockstep (operator-, telemetry deltas), so every
 * per-field job derives from the one list instead of a hand-kept
 * copy. for_each_leaf() static_asserts that the list names as many
 * fields as the struct has members, so a forgotten field does not
 * compile.
 */
#ifndef MOKASIM_COMMON_FIELDS_H
#define MOKASIM_COMMON_FIELDS_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "common/hashing.h"

namespace moka {

namespace fields_detail {

/** Converts to any member type; only named in unevaluated contexts. */
struct AnyField
{
    template <class T>
    operator T() const;
};

template <class T, std::size_t... I>
constexpr bool
brace_constructible(std::index_sequence<I...>)
{
    return requires { T{((void)I, AnyField{})...}; };
}

}  // namespace fields_detail

/**
 * Number of data members of aggregate @p T: the largest N for which
 * `T{x1, ..., xN}` is well-formed (the Boost.PFR technique).
 */
template <class T, std::size_t N = 0>
constexpr std::size_t
member_count()
{
    if constexpr (fields_detail::brace_constructible<T>(
                      std::make_index_sequence<N + 1>{})) {
        return member_count<T, N + 1>();
    } else {
        return N;
    }
}

/** A struct with a visit_fields field list. */
template <class T>
concept Record = requires { T::visit_fields([](const char *) {}); };

/**
 * Number of fields @p T's visit_fields names. Visiting with no
 * objects needs no instance, so non-literal records count too.
 */
template <Record T>
constexpr std::size_t
visited_count()
{
    std::size_t n = 0;
    T::visit_fields([&n](const char *) { ++n; });
    return n;
}

/**
 * Call `v(name, leaf, leaves...)` for every field of @p r that is not
 * itself a record, descending into nested records; @p rest are
 * records of the same type walked in lockstep.
 */
template <class V, class R, class... Rs>
constexpr void
for_each_leaf(V &&v, R &r, Rs &...rest)
{
    using T = std::remove_const_t<R>;
    static_assert(visited_count<T>() == member_count<T>(),
                  "visit_fields must name every data member once");
    T::visit_fields(
        [&v](const char *name, auto &f, auto &...g) {
            if constexpr (Record<std::remove_cvref_t<decltype(f)>>) {
                for_each_leaf(v, f, g...);
            } else {
                v(name, f, g...);
            }
        },
        r, rest...);
}

/** Fieldwise `a - b`: the operator- of the cumulative counter records. */
template <Record T>
constexpr T
field_diff(const T &a, const T &b)
{
    T d{};
    for_each_leaf([](const char *, auto &o, const auto &x,
                     const auto &y) { o = x - y; },
                  d, a, b);
    return d;
}

/**
 * Fold one record leaf into the running hash @p h: strings by length
 * and bytes, floating-point values by bit pattern, integers, bools and
 * enums by value. The config fingerprint and the job key both hash
 * their records' leaves through it.
 */
template <class F>
std::uint64_t
hash_leaf(std::uint64_t h, const F &f)
{
    if constexpr (std::is_same_v<F, std::string>) {
        h = hash_combine(h, f.size());
        return hash_combine(h, fnv1a_64(f.data(), f.size()));
    } else if constexpr (std::is_floating_point_v<F>) {
        return hash_combine(h, std::bit_cast<std::uint64_t>(f));
    } else {
        return hash_combine(h, static_cast<std::uint64_t>(f));
    }
}

}  // namespace moka

#endif  // MOKASIM_COMMON_FIELDS_H
