#include <cstdint>
#include <vector>

// Fixed: the pow2 table precomputes a mask at construction, the pow2
// region tag a shift, the ring advance compare-wraps, flags live in
// one byte each, a floating-point ratio divides in the FPU, and the
// genuinely non-pow2 hash reduction keeps a justified escape.
class RecentTable
{
  public:
    explicit RecentTable(std::size_t entries)
        : mask_(entries - 1), lines_(entries, 0), dirty_(entries, 0)
    {
    }

    SIM_HOT bool contains(unsigned long line)
    {
        return lines_[line & mask_] == line;
    }

    SIM_HOT void advance()
    {
        if (++cursor_ == count_) {
            cursor_ = 0;
        }
        dirty_[cursor_] = 1;
    }

    SIM_HOT unsigned long region(unsigned long line)
    {
        return line >> region_shift_;
    }

    SIM_HOT double share(unsigned long hits, unsigned long total)
    {
        return static_cast<double>(hits) / static_cast<double>(total);
    }

    SIM_HOT unsigned long scramble(unsigned long v)
    {
        // LINT_HOT_OK: semantic range reduction of a hash onto a
        // non-pow2 footprint; the modulo defines the workload.
        return (v * 0x9E3779B97F4A7C15ull) % footprint;
    }

  private:
    std::size_t mask_;
    std::vector<unsigned long> lines_;
    std::vector<std::uint8_t> dirty_;
    std::size_t cursor_ = 0;
    std::size_t count_ = 8;
    unsigned region_shift_ = 5;
    unsigned long footprint = 1000;
};

// % by a literal or a kConstant is strength-reduced by the compiler
// and stays unflagged.
class Sampler
{
  public:
    SIM_HOT bool sample(unsigned long n)
    {
        return n % 64 == 0 && n % kPeriod == 0;
    }

  private:
    static constexpr unsigned long kPeriod = 1024;
};
