/**
 * @file
 * ROB timing model of an out-of-order core. mokasim is trace-driven:
 * instead of stepping pipeline stages cycle by cycle, each
 * instruction's dispatch/complete/retire cycles are composed from its
 * predecessors' (instruction-driven interval model). The ROB bound,
 * in-order retirement with a width limit, and dependent-load
 * serialization reproduce the stall behaviour page-cross prefetching
 * interacts with.
 */
#ifndef MOKASIM_CORE_CORE_H
#define MOKASIM_CORE_CORE_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace moka {

class SnapshotReader;
class SnapshotWriter;

/** Core parameters (paper Table IV: 352-entry ROB, 6-wide). */
struct CoreConfig
{
    unsigned rob_entries = 352;
    unsigned width = 6;                //!< issue/retire width
    Cycle mispredict_penalty = 12;     //!< frontend refill bubble

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("rob_entries", s.rob_entries...);
        v("width", s.width...);
        v("mispredict_penalty", s.mispredict_penalty...);
    }
};

/** See file comment. */
class Core
{
  public:
    explicit Core(const CoreConfig &config);

    /**
     * Dispatch one instruction whose fetch completes at
     * @p fetch_ready. Blocks on ROB space: the instruction cannot
     * enter until the instruction rob_entries older has retired.
     *
     * @return the dispatch cycle
     */
    Cycle dispatch(Cycle fetch_ready);

    /**
     * Retire the dispatched instruction once it completes at
     * @p complete. Retirement is in-order and width-limited.
     *
     * @return the retire cycle
     */
    Cycle retire(Cycle complete);

    /** Retire cycle of the youngest retired instruction. */
    Cycle last_retire() const { return last_retire_; }

    /** Instructions retired. */
    InstCount retired() const { return retired_; }

    /**
     * Fraction of dispatches in the last window that were limited by
     * ROB space rather than fetch — the model's "ROB pressure" cue
     * for the adaptive thresholding scheme.
     */
    double rob_pressure() const;

    /** Reset the windowed pressure counters (per epoch interval). */
    void reset_pressure_window();

    /** Serialize the retire ring and counters. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    CoreConfig cfg_;  // LINT_SNAPSHOT_OK: config, rebuilt from MachineConfig
    std::vector<Cycle> retire_ring_;  //!< retire cycles, ROB-size deep
    std::size_t ring_head_ = 0;
    Cycle last_retire_ = 0;
    unsigned retire_slot_used_ = 0;
    InstCount retired_ = 0;
    std::uint64_t window_dispatches_ = 0;
    std::uint64_t window_rob_stalls_ = 0;
};

}  // namespace moka

#endif  // MOKASIM_CORE_CORE_H
