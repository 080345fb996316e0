/**
 * @file
 * Flat open-addressing containers for hot-reachable subsystems
 * (hot-path rules L10/L11).
 *
 * std::unordered_map allocates one node per insertion, which makes
 * every first-touch insert on a per-access path a heap allocation.
 * FlatAddrMap stores keys and values in two parallel arrays sized at
 * construction; inserts never allocate until the table crosses a 50%
 * load factor, at which point it doubles.  The page table reserves
 * the pages its workload declares it can touch (Workload::page_bound,
 * at most kMaxReserveEntries), so doubling never happens in a
 * measured region (the alloc-trace ctest enforces this) and growth
 * remains a cold, amortized event for a workload that declares no
 * bound and outlives the cap.
 *
 * Iteration order is deterministic for a fixed insertion sequence
 * (rule L7): slots are probed from mix64(key) and scanned in index
 * order, with no dependence on libstdc++ hash ordering.
 */
#ifndef MOKASIM_COMMON_FLAT_MAP_H
#define MOKASIM_COMMON_FLAT_MAP_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hashing.h"
#include "common/types.h"

namespace moka {

/**
 * Open-addressing Addr -> 32-bit value map with linear probing.  The
 * page table keys it by VPN or VA prefix and stores 4KB frame
 * numbers, which its 128 GiB physical bound keeps below 2^25; a slot
 * is 12 bytes where an Addr value made it 16.  The key ~0 is reserved
 * as the empty-slot sentinel (never a valid VPN or prefix in a 48-bit
 * address space).  No erase: the page table only ever accretes
 * mappings.
 */
class FlatAddrMap
{
  public:
    using Value = std::uint32_t;

    static constexpr Addr kEmptyKey = ~Addr{0};

    /**
     * Largest construction reservation, in entries (the page table's
     * page map at its cap). A capacity above slots_for() of it holds
     * more than a quarter of its slots, because only growth makes it.
     */
    static constexpr std::size_t kMaxReserveEntries = std::size_t{1} << 16;

    /**
     * Slots a map reserving @p entries starts with: a power of two,
     * at least 64, holding the entries at 50% max load.
     */
    static constexpr std::size_t slots_for(std::size_t entries)
    {
        std::size_t slots = 64;
        while (slots < entries * 2) {
            slots *= 2;
        }
        return slots;
    }

    /**
     * @param reserve_entries entries the map holds before its first
     *        (allocating) doubling, at most kMaxReserveEntries.
     */
    explicit FlatAddrMap(std::size_t reserve_entries)
    {
        SIM_REQUIRE(reserve_entries <= kMaxReserveEntries,
                    "flat map reservation above its cap");
        keys_.assign(slots_for(reserve_entries), kEmptyKey);
        vals_.assign(keys_.size(), 0);
    }

    /**
     * Find-or-insert @p key (value-initialised to 0 on insert).
     * Returns the value slot and whether it was inserted.  The
     * pointer is invalidated by the next try_emplace (growth).
     */
    std::pair<Value *, bool> try_emplace(Addr key)
    {
        SIM_AUDIT(key != kEmptyKey, "flat map key collides with the "
                                    "empty sentinel");
        std::size_t i = probe(key);
        if (keys_[i] == key) {
            return {&vals_[i], false};
        }
        if ((size_ + 1) * 2 > keys_.size()) {
            grow();
            i = probe(key);
        }
        keys_[i] = key;
        vals_[i] = 0;
        ++size_;
        return {&vals_[i], true};
    }

    /** Stashing const iterator yielding std::pair<Addr, Value>. */
    class const_iterator
    {
      public:
        // Stashing iterator: dereference materialises the pair, so
        // this is an input iterator (enough for range-constructing a
        // vector in the audits and for range-for).
        using iterator_category = std::input_iterator_tag;
        using value_type = std::pair<Addr, Value>;
        using difference_type = std::ptrdiff_t;
        using pointer = const value_type *;
        using reference = const value_type &;

        const_iterator(const FlatAddrMap *m, std::size_t i)
            : m_(m), i_(i)
        {
            settle();
        }

        const value_type &operator*() const
        {
            cur_ = {m_->keys_[i_], m_->vals_[i_]};
            return cur_;
        }

        const value_type *operator->() const { return &**this; }

        const_iterator &operator++()
        {
            ++i_;
            settle();
            return *this;
        }

        bool operator==(const const_iterator &o) const
        {
            return i_ == o.i_;
        }

        bool operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        void settle()
        {
            while (i_ < m_->keys_.size() &&
                   m_->keys_[i_] == kEmptyKey) {
                ++i_;
            }
        }

        const FlatAddrMap *m_;
        std::size_t i_;
        mutable value_type cur_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, keys_.size()}; }

    const_iterator find(Addr key) const
    {
        const std::size_t i = probe(key);
        return keys_[i] == key ? const_iterator{this, i} : end();
    }

    std::size_t size() const { return size_; }
    std::size_t capacity_slots() const { return keys_.size(); }

  private:
    /** First slot holding @p key, or the empty slot to claim. */
    std::size_t probe(Addr key) const
    {
        const std::size_t mask = keys_.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys_[i] != kEmptyKey && keys_[i] != key) {
            i = (i + 1) & mask;
        }
        return i;
    }

    void grow()
    {
        // LINT_HOT_OK: amortized doubling, reached only when a run
        // outlives the construction-time reservation; the alloc-trace
        // ctest pins it out of measured regions (rule L10).
        std::vector<Addr> old_keys(keys_.size() * 2, kEmptyKey);
        std::vector<Value> old_vals(keys_.size() * 2, 0);
        old_keys.swap(keys_);
        old_vals.swap(vals_);
        size_ = 0;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmptyKey) {
                continue;
            }
            const std::size_t j = probe(old_keys[i]);
            keys_[j] = old_keys[i];
            vals_[j] = old_vals[i];
            ++size_;
        }
    }

    //! snapshot save/restore puts each entry back in its saved slot:
    //! probe placement depends on insertion order, so re-inserting the
    //! pairs would not reproduce the saved layout
    friend struct SnapshotAccess;

    std::vector<Addr> keys_;
    std::vector<Value> vals_;
    std::size_t size_ = 0;
};

/**
 * Dense membership set over frame ids [0, frames): one bit per frame
 * in 64-bit words, allocated once at construction, so a 16 GiB
 * partition of 4KB frames costs 512 KiB.  Mirrors the shape of the
 * std::unordered_set API the audits consume (insert/count/size).
 */
class FrameBitmap
{
  public:
    explicit FrameBitmap(std::size_t frames)
        : frames_(frames), words_((frames + kWordBits - 1) / kWordBits, 0)
    {
    }

    /** True if @p id was newly inserted. */
    bool insert(std::size_t id)
    {
        SIM_AUDIT(id < frames_, "frame id outside the partition");
        std::uint64_t &word = words_[id / kWordBits];
        const std::uint64_t bit = std::uint64_t{1} << (id % kWordBits);
        if ((word & bit) != 0) {
            return false;
        }
        word |= bit;
        ++count_;
        return true;
    }

    std::size_t count(std::size_t id) const
    {
        return id < frames_ ? (words_[id / kWordBits] >> (id % kWordBits)) & 1
                            : 0;
    }

    std::size_t size() const { return count_; }

  private:
    friend struct SnapshotAccess;

    // Plain words, not vector<bool> (rule L19): a membership probe is
    // one shift and mask, with no bit-proxy indirection.
    static constexpr std::size_t kWordBits = 64;

    std::size_t frames_;
    std::vector<std::uint64_t> words_;
    std::size_t count_ = 0;
};

}  // namespace moka

#endif  // MOKASIM_COMMON_FLAT_MAP_H
