#pragma once
#include <cstdint>
#include <vector>

class SnapshotWriter;
class SnapshotReader;

/** Seeded violations: `misses_` is missing from the inline serialize
 *  body, OutOfLineTable's `lru_` from its out-of-line serialize
 *  (predictor.cc), LegacyCounter's `total_` from its hand-written
 *  save_state, and SeededPolicy's `rng_`, whose line follows another
 *  member's trailing annotation, from its serialize. */
class InlinePredictor
{
  public:
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        field(io, self.hits_);
    }

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

class OutOfLineTable
{
  public:
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    std::vector<std::uint64_t> rows_;
    std::uint64_t lru_ = 0;
};

class LegacyCounter
{
  public:
    void save_state(SnapshotWriter &w) const
    {
        put(w, count_);
    }

  private:
    static void put(SnapshotWriter &w, std::uint64_t v);

    std::uint64_t count_ = 0;
    std::uint64_t total_ = 0;
};

class SeededPolicy
{
  public:
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
    }

    unsigned ways_;  // LINT_SNAPSHOT_OK: geometry, not state
    std::uint64_t rng_ = 0;
};
