/**
 * @file
 * Hash functions used to index perceptron weight tables, prefetcher
 * metadata tables, and set-index scrambles; FNV-1a for store keys and
 * config fingerprints; and the word-at-a-time checksum that seals
 * snapshot sections.
 */
#ifndef MOKASIM_COMMON_HASHING_H
#define MOKASIM_COMMON_HASHING_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/bitops.h"
#include "common/types.h"

namespace moka {

//! FNV-1a 64-bit offset basis / prime (store keys, config
//! fingerprints, record leaves).
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

namespace checksum_detail {

//! odd 64-bit multipliers (the XXH64 primes)
inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

/** One lane absorbs one word: multiply, rotate, multiply. */
inline std::uint64_t
lane_round(std::uint64_t acc, std::uint64_t word)
{
    acc += word * kP2;
    return std::rotl(acc, 31) * kP1;
}

/** Fold @p word into the running sum @p h. */
inline std::uint64_t
fold(std::uint64_t h, std::uint64_t word)
{
    return (h ^ lane_round(0, word)) * kP1 + kP4;
}

/** The 8 bytes at @p p, in host (little-endian) order. */
inline std::uint64_t
load64(const unsigned char *p)
{
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    return w;
}

}  // namespace checksum_detail

/**
 * 64-bit checksum of @p n bytes, 8 bytes at a time. Four lanes take
 * turns absorbing the words of each 32-byte stripe (the XXH64 round),
 * so the multiplies of neighbouring words overlap; the tail words and
 * the zero-padded last partial word are folded in after the lanes,
 * the length is mixed in, and the result is avalanched. Every step is
 * a bijection in the word it absorbs and in the running state, so a
 * change confined to one 8-byte word always changes the sum. It seals
 * snapshot sections; it matches no published XXH64 output, and keys
 * and fingerprints keep using fnv1a_64.
 */
inline std::uint64_t
checksum64(const void *data, std::size_t n)
{
    namespace cd = checksum_detail;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t lane[4] = {cd::kP1 + cd::kP2, cd::kP2, 0, 0 - cd::kP1};
    std::size_t at = 0;
    for (; n - at >= 32; at += 32) {
        lane[0] = cd::lane_round(lane[0], cd::load64(p + at));
        lane[1] = cd::lane_round(lane[1], cd::load64(p + at + 8));
        lane[2] = cd::lane_round(lane[2], cd::load64(p + at + 16));
        lane[3] = cd::lane_round(lane[3], cd::load64(p + at + 24));
    }
    std::uint64_t h = cd::kP5;
    for (const std::uint64_t v : lane) {
        h = cd::fold(h, v);
    }
    for (; n - at >= 8; at += 8) {
        h = cd::fold(h, cd::load64(p + at));
    }
    if (at < n) {
        std::uint64_t last = 0;
        std::memcpy(&last, p + at, n - at);
        h = cd::fold(h, last);
    }
    h = cd::fold(h, n);
    h ^= h >> 33;
    h *= cd::kP2;
    h ^= h >> 29;
    h *= cd::kP3;
    return h ^ (h >> 32);
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
