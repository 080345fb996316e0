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
 * state (Rng lanes, FlatAddrMap slot placement, FrameBitmap bits,
 * saturating counters) are saved and restored.
 */
#ifndef MOKASIM_SNAPSHOT_SNAPSHOT_H
#define MOKASIM_SNAPSHOT_SNAPSHOT_H

#include <algorithm>
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

/** Save a vector of integral values (length-prefixed, one copy). */
template <typename T>
inline void
put_vec(SnapshotWriter &w, const std::vector<T> &v)
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "put_vec takes integral or enum elements");
    w.put_u64(v.size());
    w.put_bytes(v.data(), v.size() * sizeof(T));
}

/**
 * Restore a vector of integral values.  The saved length must match
 * the configured length when the structure is fixed-size; callers
 * that allow growth (a cache's outstanding-fill list) pass
 * @p fixed_size false.  Either way the length is checked against the
 * bytes left in the section before anything is allocated.
 */
template <typename T>
inline void
get_vec(SnapshotReader &r, std::vector<T> &v, bool fixed_size = true)
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "get_vec takes integral or enum elements");
    const std::uint64_t n = r.get_u64();
    if (n > r.remaining() / sizeof(T)) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "vector longer than its section");
    }
    if (fixed_size && n != v.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "vector length mismatch");
    }
    v.resize(n);
    r.get_bytes(v.data(), n * sizeof(T));
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
 * state must be restored exactly (layout is behaviour: Rng lanes
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

    /**
     * Capacity, size, then each occupied (slot, key, value) in slot
     * order: restoring every entry to its saved slot reproduces the
     * probe placement that insertion order produced.
     */
    static void save(SnapshotWriter &w, const FlatAddrMap &m)
    {
        w.put_u64(m.keys_.size());
        w.put_u64(m.size_);
        for (std::size_t i = 0; i < m.keys_.size(); ++i) {
            if (m.keys_[i] != FlatAddrMap::kEmptyKey) {
                w.put_u64(i);
                w.put_u64(m.keys_[i]);
                w.put_u64(m.vals_[i]);
            }
        }
    }

    static void restore(SnapshotReader &r, FlatAddrMap &m)
    {
        const std::uint64_t slots = r.get_u64();
        const std::uint64_t size = r.get_u64();
        // The map may have doubled past its construction reservation
        // before the snapshot was taken; it doubles only when more
        // than half full, so a grown capacity is under 4x its size.
        if (slots == 0 || (slots & (slots - 1)) != 0) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "flat map capacity not a power of two");
        }
        if (size > slots / 2) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "flat map over half full");
        }
        if (size > r.remaining() / (3 * sizeof(std::uint64_t)) ||
            (slots > m.keys_.size() && slots / 4 >= size)) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "flat map larger than its entries");
        }
        m.keys_.assign(slots, FlatAddrMap::kEmptyKey);
        m.vals_.assign(slots, 0);
        std::uint64_t next_slot = 0;
        for (std::uint64_t n = 0; n < size; ++n) {
            const std::uint64_t slot = r.get_u64();
            const Addr key = r.get_u64();
            if (slot >= slots || slot < next_slot) {
                throw SnapshotError(SnapshotErrorKind::kMalformed,
                                    "flat map slot out of range or order");
            }
            if (key == FlatAddrMap::kEmptyKey) {
                throw SnapshotError(SnapshotErrorKind::kMalformed,
                                    "flat map key is the empty sentinel");
            }
            m.keys_[slot] = key;
            m.vals_[slot] = r.get_u64();
            next_slot = slot + 1;
        }
        m.size_ = size;
    }

    /** Frame count, set-bit count, then one bit per frame. */
    static void save(SnapshotWriter &w, const FrameBitmap &b)
    {
        w.put_u64(b.bits_.size());
        w.put_u64(b.count_);
        std::vector<std::uint8_t> packed((b.bits_.size() + 7) / 8);
        for (std::size_t i = 0; i < b.bits_.size(); ++i) {
            packed[i / 8] |= static_cast<std::uint8_t>((b.bits_[i] != 0)
                                                       << (i % 8));
        }
        w.put_bytes(packed.data(), packed.size());
    }

    static void restore(SnapshotReader &r, FrameBitmap &b)
    {
        if (r.get_u64() != b.bits_.size()) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "frame bitmap size mismatch");
        }
        const std::uint64_t count = r.get_u64();
        std::vector<std::uint8_t> packed((b.bits_.size() + 7) / 8);
        r.get_bytes(packed.data(), packed.size());
        std::fill(b.bits_.begin(), b.bits_.end(), 0);
        std::uint64_t set = 0;
        for (std::size_t byte = 0; byte < packed.size(); ++byte) {
            if (packed[byte] == 0) {
                continue;  // most frames are free
            }
            for (unsigned bit = 0; bit < 8; ++bit) {
                if ((packed[byte] >> bit & 1) == 0) {
                    continue;
                }
                const std::size_t i = byte * 8 + bit;
                if (i >= b.bits_.size()) {
                    throw SnapshotError(SnapshotErrorKind::kMalformed,
                                        "frame bitmap bit past its end");
                }
                b.bits_[i] = 1;
                ++set;
            }
        }
        if (set != count) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "frame bitmap count mismatch");
        }
        b.count_ = count;
    }
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_SNAPSHOT_H
