/**
 * @file
 * Saturating counters: the storage primitive behind perceptron weights
 * (signed) and confidence counters (unsigned) throughout mokasim.
 */
#ifndef MOKASIM_COMMON_SAT_COUNTER_H
#define MOKASIM_COMMON_SAT_COUNTER_H

#include <cstdint>

namespace moka {

/**
 * Signed saturating counter of a configurable bit width.
 *
 * An n-bit signed counter saturates at [-2^(n-1), 2^(n-1)-1], e.g. the
 * paper's 5-bit perceptron weights live in [-16, 15].
 */
class SignedSatCounter
{
  public:
    /** @param bit_width counter width in bits (2..16). */
    explicit constexpr SignedSatCounter(unsigned bit_width = 5,
                                        std::int16_t initial = 0)
        : min_(static_cast<std::int16_t>(-(1 << (bit_width - 1)))),
          max_(static_cast<std::int16_t>((1 << (bit_width - 1)) - 1)),
          value_(clamp(initial))
    {
    }

    /** Current value. */
    constexpr std::int16_t value() const { return value_; }

    /** Saturating increment by @p by (default 1). */
    constexpr void increment(std::int16_t by = 1)
    {
        value_ = clamp(static_cast<std::int16_t>(value_ + by));
    }

    /** Saturating decrement by @p by (default 1). */
    constexpr void decrement(std::int16_t by = 1)
    {
        value_ = clamp(static_cast<std::int16_t>(value_ - by));
    }

    /** Reset to zero. */
    constexpr void reset() { value_ = 0; }

    /** True when the counter sits at either rail. */
    constexpr bool saturated() const
    {
        return value_ == min_ || value_ == max_;
    }

    /** Lower rail. */
    constexpr std::int16_t min() const { return min_; }
    /** Upper rail. */
    constexpr std::int16_t max() const { return max_; }

  private:
    friend struct SnapshotAccess;

    constexpr std::int16_t clamp(std::int16_t v) const
    {
        if (v < min_) return min_;
        if (v > max_) return max_;
        return v;
    }

    std::int16_t min_;
    std::int16_t max_;
    std::int16_t value_;
};

/**
 * Unsigned saturating counter in [0, 2^n - 1]; used for confidence
 * and replacement bookkeeping.
 */
class UnsignedSatCounter
{
  public:
    explicit constexpr UnsignedSatCounter(unsigned bit_width = 2,
                                          std::uint16_t initial = 0)
        : max_(static_cast<std::uint16_t>((1u << bit_width) - 1)),
          value_(initial > max_ ? max_ : initial)
    {
    }

    /** Current value. */
    constexpr std::uint16_t value() const { return value_; }

    /** Saturating increment. */
    constexpr void increment()
    {
        if (value_ < max_) ++value_;
    }

    /** Saturating decrement. */
    constexpr void decrement()
    {
        if (value_ > 0) --value_;
    }

    /** Reset to zero. */
    constexpr void reset() { value_ = 0; }

    /** Upper rail. */
    constexpr std::uint16_t max() const { return max_; }

  private:
    friend struct SnapshotAccess;

    std::uint16_t max_;
    std::uint16_t value_;
};

}  // namespace moka

#endif  // MOKASIM_COMMON_SAT_COUNTER_H
