/**
 * @file
 * Workload abstraction: an endless, deterministic instruction stream
 * consumed by the core model. Synthetic generators implementing this
 * interface stand in for the paper's SimPoint traces (see DESIGN.md
 * substitution table).
 */
#ifndef MOKASIM_TRACE_WORKLOAD_H
#define MOKASIM_TRACE_WORKLOAD_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"
#include "snapshot/format.h"

namespace moka {

/** Instruction class as seen by the trace-driven core. */
enum class OpClass : std::uint8_t {
    kAlu,     //!< non-memory, non-branch op (1-cycle, pipelined)
    kLoad,    //!< data load
    kStore,   //!< data store
    kBranch,  //!< conditional/unconditional branch
};

/** One traced instruction. */
struct TraceInst
{
    Addr pc = 0;                 //!< virtual PC of the instruction
    OpClass op = OpClass::kAlu;  //!< instruction class
    VirtAddr mem_addr{};         //!< virtual data address (load/store)
    bool taken = false;          //!< branch outcome
    Addr target = 0;             //!< branch target PC (taken branches)
    bool dep_load = false;       //!< load address depends on the
                                 //!< previous load's data (serializes)
};

/**
 * Endless instruction stream.
 *
 * Generators must be deterministic given their construction
 * parameters: two instances built identically produce identical
 * streams, which is what makes multi-scheme comparisons and the
 * multi-core replay rule meaningful.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Produce the next instruction of the stream. */
    virtual TraceInst next() = 0;

    /**
     * Advance the stream by @p n instructions, discarding them. The
     * default decodes and drops; seekable sources (trace files)
     * override with O(1) re-positioning.
     */
    virtual void skip(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            (void)next();
        }
    }

    /**
     * Save the state next() mutates into the caller's open
     * "core.workload" snapshot section. Generators save their RNG
     * and cursors (configuration is rebuilt, never saved); the
     * default saves nothing and leaves the position to
     * restore_state's replay.
     */
    virtual void save_state(SnapshotWriter & /*w*/) const {}

    /**
     * Continue the stream on a freshly built instance of the same
     * workload from what save_state wrote; @p position is how many
     * instructions the saved stream had produced. The default
     * discards the section and replays: skip(@p position). That is
     * O(1) for trace files, and it keeps decorators that forward only
     * next, skip and name correct.
     *
     * @throws SnapshotError(kMalformed) when the saved state does not
     *         fit this workload
     */
    virtual void restore_state(SnapshotReader &r, std::uint64_t position)
    {
        r.discard_rest();
        skip(position);
    }

    /**
     * Upper bound on the distinct 4KB pages a core running this
     * stream maps: the pages of every instruction and data address,
     * and of the L1D prefetches they trigger (the page table reserves
     * its maps by it, see PageTable). The default 0 means unknown,
     * which trace files and decorators report; their tables reserve
     * the caps.
     */
    virtual std::size_t page_bound() const { return 0; }

    /** Human-readable instance name (e.g. "gap.bfs.0"). */
    virtual const std::string &name() const = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

}  // namespace moka

#endif  // MOKASIM_TRACE_WORKLOAD_H
