/**
 * @file
 * Small bit-manipulation helpers used by caches, TLBs and the
 * perceptron hashing layer.
 */
#ifndef MOKASIM_COMMON_BITOPS_H
#define MOKASIM_COMMON_BITOPS_H

#include <bit>
#include <cstdint>

namespace moka {

/** True when @p v is a power of two (0 is not). */
constexpr bool is_pow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned log2_exact(std::uint64_t v)
{
    return static_cast<unsigned>(std::countr_zero(v));
}

/** Extract bits [lo, lo+width) of @p v. */
constexpr std::uint64_t bits(std::uint64_t v, unsigned lo, unsigned width)
{
    return (v >> lo) & ((width >= 64) ? ~std::uint64_t{0}
                                      : ((std::uint64_t{1} << width) - 1));
}

/**
 * Fold @p v down to @p width bits by repeated XOR of @p width-bit
 * chunks. Used to index perceptron weight tables and TLB sets from
 * full 64-bit features without throwing away high bits.
 */
constexpr std::uint64_t fold_xor(std::uint64_t v, unsigned width)
{
    if (width == 0 || width >= 64) {
        return v;
    }
    std::uint64_t r = 0;
    while (v != 0) {
        r ^= v & ((std::uint64_t{1} << width) - 1);
        v >>= width;
    }
    return r;
}

/** Sign-extend the low @p width bits of @p v. */
constexpr std::int64_t sign_extend(std::uint64_t v, unsigned width)
{
    const std::uint64_t m = std::uint64_t{1} << (width - 1);
    v &= (std::uint64_t{1} << width) - 1;
    return static_cast<std::int64_t>((v ^ m)) - static_cast<std::int64_t>(m);
}

}  // namespace moka

#endif  // MOKASIM_COMMON_BITOPS_H
