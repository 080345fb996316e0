#include <cstdint>
#include <vector>

// A direct-mapped table indexed with a runtime-divisor modulo on the
// per-access path, a region tag taken by a runtime-divisor division,
// plus per-access flag reads through a vector<bool> bit proxy.
class RecentTable
{
  public:
    explicit RecentTable(std::size_t entries)
        : lines_(entries, 0), dirty_(entries, false)
    {
    }

    SIM_HOT bool contains(unsigned long line)
    {
        return lines_[line % lines_.size()] == line;
    }

    SIM_HOT void advance()
    {
        cursor_ = (cursor_ + 1) % count_;
        dirty_[cursor_] = true;
    }

    SIM_HOT unsigned long region(unsigned long line)
    {
        return line / region_lines_;
    }

  private:
    std::vector<unsigned long> lines_;
    std::vector<bool> dirty_;
    std::size_t cursor_ = 0;
    std::size_t count_ = 8;
    unsigned long region_lines_ = 32;
};
