#pragma once
#include <cstdint>
#include <vector>

class SnapshotWriter;
class SnapshotReader;

/** Clean: every member is serialized, delegated, or annotated. */
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
        field(io, self.misses_);
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
    // LINT_SNAPSHOT_OK: scratch rebuilt before every use
    std::vector<std::uint64_t> scratch_;
};

/** A hand-written save_state still counts as the field list. */
class LegacyCounter
{
  public:
    void save_state(SnapshotWriter &w) const
    {
        put(w, count_);
        put(w, total_);
    }

  private:
    static void put(SnapshotWriter &w, std::uint64_t v);

    std::uint64_t count_ = 0;
    std::uint64_t total_ = 0;
};

/** No save_state or serialize declared: L16 does not apply. */
class PlainCache
{
  private:
    std::uint64_t untracked_ = 0;
};
