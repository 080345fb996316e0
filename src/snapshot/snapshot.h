/**
 * @file
 * The Snapshottable contract and shared serialization helpers.
 *
 * Components expose a pair of member functions
 *
 *     void save_state(SnapshotWriter &w) const;
 *     void restore_state(SnapshotReader &r);
 *
 * with one hard rule: restore_state applied to a freshly-constructed
 * instance of the *same configuration* must reproduce every bit of
 * behaviourally relevant state, so that a restored machine continues
 * byte-identically to one that never stopped (simlint rule L16
 * enforces member coverage; tests/test_snapshot.cc round-trips every
 * component).  Configuration itself is never serialized — it is
 * re-derived from the MachineConfig and guarded by the container's
 * config fingerprint.
 *
 * SnapshotAccess is the narrow friend (mirroring audit/ AuditAccess)
 * through which common/ leaf types with private layout-sensitive
 * state (Rng lanes, FlatAddrMap slot arrays, saturating counters) are
 * copied verbatim.
 */
#ifndef MOKASIM_SNAPSHOT_SNAPSHOT_H
#define MOKASIM_SNAPSHOT_SNAPSHOT_H

#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/fields.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/sat_counter.h"
#include "common/types.h"
#include "snapshot/format.h"

namespace moka {

/** Save one integral value, width-dispatched. */
template <typename T>
inline void
put_int(SnapshotWriter &w, T v)
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "put_int takes integral or enum values");
    if constexpr (sizeof(T) == 1) {
        w.put_u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(T) == 2) {
        w.put_u16(static_cast<std::uint16_t>(v));
    } else if constexpr (sizeof(T) == 4) {
        w.put_u32(static_cast<std::uint32_t>(v));
    } else {
        w.put_u64(static_cast<std::uint64_t>(v));
    }
}

/** Restore one integral value, width-dispatched. */
template <typename T>
inline void
get_int(SnapshotReader &r, T &v)
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "get_int takes integral or enum values");
    if constexpr (sizeof(T) == 1) {
        v = static_cast<T>(r.get_u8());
    } else if constexpr (sizeof(T) == 2) {
        v = static_cast<T>(r.get_u16());
    } else if constexpr (sizeof(T) == 4) {
        v = static_cast<T>(r.get_u32());
    } else {
        v = static_cast<T>(r.get_u64());
    }
}

/** Save a vector of integral values (length-prefixed). */
template <typename T>
inline void
put_vec(SnapshotWriter &w, const std::vector<T> &v)
{
    w.put_u64(v.size());
    for (const T &x : v) {
        put_int(w, x);
    }
}

/**
 * Restore a vector of integral values.  The saved length must match
 * the configured length when the structure is fixed-size; callers
 * that allow growth (FlatAddrMap doubling past its reservation) pass
 * @p fixed_size false.
 */
template <typename T>
inline void
get_vec(SnapshotReader &r, std::vector<T> &v, bool fixed_size = true)
{
    const std::uint64_t n = r.get_u64();
    if (fixed_size && n != v.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "vector length mismatch");
    }
    v.resize(n);
    for (T &x : v) {
        get_int(r, x);
    }
}

/** Save a vector<bool> (length-prefixed, one byte per bit). */
inline void
put_vec(SnapshotWriter &w, const std::vector<bool> &v)
{
    w.put_u64(v.size());
    for (const bool x : v) {
        w.put_bool(x);
    }
}

inline void
get_vec(SnapshotReader &r, std::vector<bool> &v, bool fixed_size = true)
{
    const std::uint64_t n = r.get_u64();
    if (fixed_size && n != v.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "vector<bool> length mismatch");
    }
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = r.get_bool();
    }
}

/** Save a vector of doubles (length-prefixed, bit-exact). */
inline void
put_vec_f64(SnapshotWriter &w, const std::vector<double> &v)
{
    w.put_u64(v.size());
    for (const double x : v) {
        w.put_f64(x);
    }
}

inline void
get_vec_f64(SnapshotReader &r, std::vector<double> &v)
{
    const std::uint64_t n = r.get_u64();
    v.resize(n);
    for (double &x : v) {
        x = r.get_f64();
    }
}

/*
 * Serialization is a whitelisted exit from the strong address types
 * (types.h / ARCHITECTURE.md): a snapshot stores raw bits, so typed
 * addresses and page numbers pass through here instead of scattering
 * `.raw()` across component save/restore code.
 */

/** Save one typed address (virtual or physical). */
template <class Tag>
inline void
put_addr(SnapshotWriter &w, StrongAddr<Tag> a)
{
    w.put_u64(a.raw());
}

/** Restore one typed address. */
template <class Tag>
inline void
get_addr(SnapshotReader &r, StrongAddr<Tag> &a)
{
    a = StrongAddr<Tag>{r.get_u64()};
}

/** Save one typed page number (VPN or PPN). */
template <class Tag>
inline void
put_addr(SnapshotWriter &w, StrongPageNum<Tag> p)
{
    w.put_u64(p.raw());
}

/** Restore one typed page number. */
template <class Tag>
inline void
get_addr(SnapshotReader &r, StrongPageNum<Tag> &p)
{
    p = StrongPageNum<Tag>{r.get_u64()};
}

/**
 * Save every field of record @p rec (common/fields.h) in list order:
 * bools as put_bool, doubles bit-exact, integers and enums at their
 * own width.
 */
template <Record T>
inline void
put_fields(SnapshotWriter &w, const T &rec)
{
    for_each_leaf(
        [&w](const char *, const auto &f) {
            using F = std::remove_cvref_t<decltype(f)>;
            if constexpr (std::is_same_v<F, bool>) {
                w.put_bool(f);
            } else if constexpr (std::is_floating_point_v<F>) {
                w.put_f64(f);
            } else {
                put_int(w, f);
            }
        },
        rec);
}

/** Inverse of put_fields. */
template <Record T>
inline void
get_fields(SnapshotReader &r, T &rec)
{
    for_each_leaf(
        [&r](const char *, auto &f) {
            using F = std::remove_cvref_t<decltype(f)>;
            if constexpr (std::is_same_v<F, bool>) {
                f = r.get_bool();
            } else if constexpr (std::is_floating_point_v<F>) {
                f = r.get_f64();
            } else {
                get_int(r, f);
            }
        },
        rec);
}

/**
 * Narrow serialization friend for common/ leaf types whose private
 * state must be copied verbatim (layout is behaviour: Rng lanes
 * continue the stream, FlatAddrMap probe placement depends on
 * insertion order).
 */
struct SnapshotAccess
{
    static void save(SnapshotWriter &w, const Rng &rng)
    {
        for (const std::uint64_t lane : rng.s_) {
            w.put_u64(lane);
        }
    }

    static void restore(SnapshotReader &r, Rng &rng)
    {
        for (std::uint64_t &lane : rng.s_) {
            lane = r.get_u64();
        }
    }

    static void save(SnapshotWriter &w, const SignedSatCounter &c)
    {
        w.put_u16(static_cast<std::uint16_t>(c.value_));
    }

    static void restore(SnapshotReader &r, SignedSatCounter &c)
    {
        const auto v = static_cast<std::int16_t>(r.get_u16());
        if (v < c.min_ || v > c.max_) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "signed counter outside its rails");
        }
        c.value_ = v;
    }

    static void save(SnapshotWriter &w, const UnsignedSatCounter &c)
    {
        w.put_u16(c.value_);
    }

    static void restore(SnapshotReader &r, UnsignedSatCounter &c)
    {
        const std::uint16_t v = r.get_u16();
        if (v > c.max_) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "unsigned counter above its rail");
        }
        c.value_ = v;
    }

    static void save(SnapshotWriter &w, const FlatAddrMap &m)
    {
        put_vec(w, m.keys_);
        put_vec(w, m.vals_);
        w.put_u64(m.size_);
    }

    static void restore(SnapshotReader &r, FlatAddrMap &m)
    {
        // The map may have doubled past its construction reservation
        // before the snapshot was taken; accept the saved capacity.
        get_vec(r, m.keys_, /*fixed_size=*/false);
        get_vec(r, m.vals_, /*fixed_size=*/false);
        m.size_ = r.get_u64();
        if (m.keys_.size() != m.vals_.size() ||
            (m.keys_.size() & (m.keys_.size() - 1)) != 0) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "flat map slot arrays inconsistent");
        }
    }

    static void save(SnapshotWriter &w, const FrameBitmap &b)
    {
        put_vec(w, b.bits_);
        w.put_u64(b.count_);
    }

    static void restore(SnapshotReader &r, FrameBitmap &b)
    {
        get_vec(r, b.bits_);
        b.count_ = r.get_u64();
    }
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_SNAPSHOT_H
