/**
 * @file
 * Hash functions used to index perceptron weight tables, prefetcher
 * metadata tables, and set-index scrambles.
 */
#ifndef MOKASIM_COMMON_HASHING_H
#define MOKASIM_COMMON_HASHING_H

#include <cstddef>
#include <cstdint>

#include "common/bitops.h"
#include "common/types.h"

namespace moka {

//! FNV-1a 64-bit offset basis / prime (shared by the snapshot section
//! checksums and the store keys).
inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/**
 * FNV-1a over @p n bytes, continuing from @p h (pass the default to
 * start a fresh sum; feed chunks by threading the return value back
 * in).
 */
inline std::uint64_t
fnv1a_64(const void *data, std::size_t n, std::uint64_t h = kFnv1aOffset)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnv1aPrime;
    }
    return h;
}

/** 64-bit finalizer (splitmix64 mix), good avalanche, cheap. */
constexpr std::uint64_t mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Combine two values into one hash (order-sensitive). */
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2)));
}

/*
 * Hash consumption is one of the whitelisted exits from the strong
 * address types (see types.h / ARCHITECTURE.md): a hash index is
 * space-agnostic by construction, so typed addresses and page
 * numbers feed the mixer here without scattering `.raw()` through
 * callers.
 */

/** Hash a typed address (virtual or physical). */
template <class Tag>
constexpr std::uint64_t mix64(StrongAddr<Tag> a)
{
    return mix64(a.raw());
}

/** Hash a typed page number (VPN or PPN). */
template <class Tag>
constexpr std::uint64_t mix64(StrongPageNum<Tag> p)
{
    return mix64(p.raw());
}

/**
 * Index into a table of @p table_bits entries from a raw feature
 * value: mix then fold, as in hashed perceptron predictors
 * (Tarjan & Skadron).
 */
constexpr std::uint32_t table_index(std::uint64_t feature,
                                    unsigned table_bits)
{
    return static_cast<std::uint32_t>(fold_xor(mix64(feature), table_bits));
}

}  // namespace moka

#endif  // MOKASIM_COMMON_HASHING_H
