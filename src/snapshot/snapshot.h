/**
 * @file
 * The Snapshottable contract and the field codec.
 *
 * A component that snapshots its state names each field once, in one
 * body that runs in both directions:
 *
 *     template <class Self, class IO>
 *     static void serialize(Self &self, IO &io)
 *     {
 *         field(io, self.retire_ring_);
 *         field(io, self.ring_head_);
 *         require(io, self.ring_head_ < self.retire_ring_.size(),
 *                 "ROB ring head past the ring");
 *     }
 *
 *     void save_state(SnapshotWriter &w) const { serialize(*this, w); }
 *     void restore_state(SnapshotReader &r) { serialize(*this, r); }
 *
 * On save IO is SnapshotWriter and Self is const; on restore IO is
 * SnapshotReader, every field() reads into the member it names, and
 * require() rejects a value the component would use as an index or
 * bound. The two directions therefore cannot disagree about order or
 * width. The one hard rule: restore_state applied to a
 * freshly-constructed instance of the *same configuration* must
 * reproduce every bit of behaviourally relevant state, so that a
 * restored machine continues byte-identically to one that never
 * stopped (simlint rule L16 checks that the serialize body names every
 * member; tests/test_snapshot.cc round-trips every component and feeds
 * each restore check a bad value). Configuration itself is never
 * serialized — it is re-derived from the MachineConfig and guarded by
 * the container's config fingerprint.
 *
 * SnapshotAccess is the narrow friend (mirroring audit/ AuditAccess)
 * through which common/ leaf types with private layout-sensitive
 * state (Rng lanes, FlatAddrMap slot placement, FrameBitmap bits,
 * saturating counters) are saved and restored.
 */
#ifndef MOKASIM_SNAPSHOT_SNAPSHOT_H
#define MOKASIM_SNAPSHOT_SNAPSHOT_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
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

/** True when @p IO restores state, false when it saves it. */
template <class IO>
inline constexpr bool kRestoring = std::is_same_v<IO, SnapshotReader>;

/** On restore, reject the snapshot as kMalformed with @p what unless @p ok. */
inline void
require(const SnapshotReader &, bool ok, const char *what)
{
    if (!ok) {
        throw SnapshotError(SnapshotErrorKind::kMalformed, what);
    }
}

/** On save there is nothing to check. */
inline void
require(const SnapshotWriter &, bool, const char *)
{
}

/** Copy @p n raw bytes into the snapshot. */
inline void
raw_bytes(SnapshotWriter &w, const void *p, std::size_t n)
{
    w.put_bytes(p, n);
}

/** Copy @p n raw bytes out of the snapshot. */
inline void
raw_bytes(SnapshotReader &r, void *p, std::size_t n)
{
    r.get_bytes(p, n);
}

/** How many @p each-byte elements a list being restored can hold. */
inline std::size_t
section_room(const SnapshotReader &r, std::size_t each)
{
    return r.remaining() / each;
}

/** Saving writes whatever the list holds. */
inline std::size_t
section_room(const SnapshotWriter &, std::size_t)
{
    return SIZE_MAX;
}

template <class IO, class T>
void field(IO &io, T &v);

/**
 * Save or restore @p v stored as @p Wire, for the fields whose
 * snapshot width differs from their type (an int stored as i64, a
 * uint8_t flag stored as a bool, an int16 weight as a u16).
 */
template <class Wire, class IO, class T>
void
field_as(IO &io, T &v)
{
    Wire w = static_cast<Wire>(v);
    field(io, w);
    if constexpr (kRestoring<IO>) {
        v = static_cast<T>(w);
    }
}

/**
 * Length of a bounded variable-length list, stored as @p Wire: on
 * save @p v's size; on restore checked against @p bound (kMalformed,
 * @p what), then @p v and the lists @p more kept parallel to it are
 * resized to it. The caller then serializes the elements.
 */
template <class Wire, class IO, class V, class... More>
void
list_length(IO &io, std::size_t bound, const char *what, V &v,
            More &...more)
{
    Wire n = static_cast<Wire>(v.size());
    field(io, n);
    require(io, n <= bound, what);
    if constexpr (kRestoring<IO>) {
        v.resize(n);
        (more.resize(n), ...);
    }
}

/**
 * Variable-length vector of at most @p bound integers or doubles: a
 * u64 length checked by list_length, then one block copy.
 */
template <class IO, class V>
void
field(IO &io, V &v, std::size_t bound, const char *what)
{
    list_length<std::uint64_t>(io, bound, what, v);
    raw_bytes(io, v.data(), v.size() * sizeof(v[0]));
}

/** @p T, or const @p T. */
template <class T, class U>
concept CvOf = std::is_same_v<std::remove_const_t<T>, U>;

/**
 * Narrow serialization friend for common/ leaf types whose private
 * state must be restored exactly (layout is behaviour: Rng lanes
 * continue the stream, FlatAddrMap probe placement depends on
 * insertion order). field() reaches these through field_of.
 */
struct SnapshotAccess
{
    template <class IO, CvOf<Rng> R>
    static void field_of(IO &io, R &rng)
    {
        field(io, rng.s_);
    }

    template <class IO, CvOf<SignedSatCounter> C>
    static void field_of(IO &io, C &c)
    {
        field_as<std::uint16_t>(io, c.value_);
        require(io, c.value_ >= c.min_ && c.value_ <= c.max_,
                "signed counter outside its rails");
    }

    template <class IO, CvOf<UnsignedSatCounter> C>
    static void field_of(IO &io, C &c)
    {
        field(io, c.value_);
        require(io, c.value_ <= c.max_, "unsigned counter above its rail");
    }

    /**
     * Capacity, size, then each occupied (slot u64, key u64, value
     * u32) in slot order: restoring every entry to its saved slot
     * reproduces the probe placement that insertion order produced.
     */
    template <class IO, CvOf<FlatAddrMap> M>
    static void field_of(IO &io, M &m)
    {
        std::uint64_t slots = m.keys_.size();
        std::uint64_t size = m.size_;
        field(io, slots);
        field(io, size);
        // Reservations differ per workload, so the saving map may have
        // reserved more than this one, but never above the cap; or it
        // doubled past its reservation, which it does only when more
        // than half full, so a grown capacity is under 4x its size.
        require(io, slots != 0 && (slots & (slots - 1)) == 0,
                "flat map capacity not a power of two");
        require(io, size <= slots / 2, "flat map over half full");
        require(io,
                size <= section_room(io, 2 * sizeof(std::uint64_t) +
                                             sizeof(FlatAddrMap::Value)) &&
                    (slots <= FlatAddrMap::slots_for(
                                  FlatAddrMap::kMaxReserveEntries) ||
                     slots / 4 < size),
                "flat map larger than its entries");
        if constexpr (kRestoring<IO>) {
            m.keys_.assign(slots, FlatAddrMap::kEmptyKey);
            m.vals_.assign(slots, 0);
            m.size_ = size;
        }
        std::uint64_t next_slot = 0;
        for (std::uint64_t n = 0; n < size; ++n) {
            std::uint64_t slot = next_slot;
            if constexpr (!kRestoring<IO>) {
                while (m.keys_[slot] == FlatAddrMap::kEmptyKey) {
                    ++slot;
                }
            }
            field(io, slot);
            require(io, slot < slots && slot >= next_slot,
                    "flat map slot out of range or order");
            field(io, m.keys_[slot]);
            require(io, m.keys_[slot] != FlatAddrMap::kEmptyKey,
                    "flat map key is the empty sentinel");
            field(io, m.vals_[slot]);
            next_slot = slot + 1;
        }
    }

    /**
     * Frame count, set-bit count, then one bit per frame: byte j holds
     * frames [8j, 8j + 8), least significant bit first. That is the
     * little-endian byte image of the bitmap's words, so the bytes are
     * copied straight out of (and back into) them.
     */
    template <class IO, CvOf<FrameBitmap> B>
    static void field_of(IO &io, B &b)
    {
        std::uint64_t frames = b.frames_;
        std::uint64_t count = b.count_;
        field(io, frames);
        require(io, frames == b.frames_, "frame bitmap size mismatch");
        field(io, count);
        if constexpr (kRestoring<IO>) {
            std::fill(b.words_.begin(), b.words_.end(), 0);
        }
        raw_bytes(io, b.words_.data(), (b.frames_ + 7) / 8);
        if constexpr (kRestoring<IO>) {
            const std::size_t tail = b.frames_ % FrameBitmap::kWordBits;
            require(io, tail == 0 || b.words_.back() >> tail == 0,
                    "frame bitmap bit past its end");
            std::uint64_t set = 0;
            for (const std::uint64_t word : b.words_) {
                set += static_cast<std::uint64_t>(std::popcount(word));
            }
            require(io, set == count, "frame bitmap count mismatch");
            b.count_ = count;
        }
    }
};

namespace snapshot_detail {

template <class T>
inline constexpr bool kIsStrong = false;
template <class Tag>
inline constexpr bool kIsStrong<StrongAddr<Tag>> = true;
template <class Tag>
inline constexpr bool kIsStrong<StrongPageNum<Tag>> = true;

template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

}  // namespace snapshot_detail

/**
 * Save or restore one field, by kind:
 *  - integers and enums at their own width, bools as one byte,
 *    doubles bit-exact;
 *  - typed addresses and page numbers as their raw u64 (a
 *    whitelisted exit from the strong types, types.h);
 *  - strings as a u64 length and the bytes;
 *  - visit_fields records (common/fields.h) leaf by leaf, in list
 *    order, and arrays element by element;
 *  - vectors of integers whose length the configuration fixes as a
 *    u64 length, which must match on restore, and one block copy;
 *  - Rng, saturating counters, FlatAddrMap and FrameBitmap through
 *    SnapshotAccess;
 *  - anything else through its own save_state / restore_state
 *    (members, polymorphic prefetchers, filters and policies).
 */
template <class IO, class T>
void
field(IO &io, T &v)
{
    using U = std::remove_const_t<T>;
    if constexpr (std::is_same_v<U, bool>) {
        std::uint8_t b = v ? 1 : 0;
        raw_bytes(io, &b, 1);
        if constexpr (kRestoring<IO>) {
            v = b != 0;
        }
    } else if constexpr (std::is_arithmetic_v<U> || std::is_enum_v<U>) {
        raw_bytes(io, &v, sizeof(U));
    } else if constexpr (snapshot_detail::kIsStrong<U>) {
        std::uint64_t raw = v.raw();
        field(io, raw);
        if constexpr (kRestoring<IO>) {
            v = U{raw};
        }
    } else if constexpr (std::is_same_v<U, std::string>) {
        std::uint64_t n = v.size();
        field(io, n);
        require(io, n <= section_room(io, 1),
                "string longer than its section");
        if constexpr (kRestoring<IO>) {
            v.resize(n);
        }
        raw_bytes(io, v.data(), n);
    } else if constexpr (Record<U>) {
        for_each_leaf([&io](const char *, auto &f) { field(io, f); }, v);
    } else if constexpr (snapshot_detail::kIsArray<U> ||
                         std::is_array_v<U>) {
        for (auto &x : v) {
            field(io, x);
        }
    } else if constexpr (snapshot_detail::kIsVector<U>) {
        static_assert(std::is_integral_v<typename U::value_type> ||
                          std::is_enum_v<typename U::value_type>,
                      "field copies vectors of integers");
        std::uint64_t n = v.size();
        field(io, n);
        require(io, n == v.size(), "vector length mismatch");
        raw_bytes(io, v.data(), n * sizeof(typename U::value_type));
    } else if constexpr (requires { SnapshotAccess::field_of(io, v); }) {
        SnapshotAccess::field_of(io, v);
    } else if constexpr (kRestoring<IO>) {
        v.restore_state(io);
    } else {
        v.save_state(io);
    }
}

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_SNAPSHOT_H
