/**
 * @file
 * Synthetic access kernels and the generic instruction interleaver
 * that turns a kernel into a full Workload instruction stream.
 *
 * Kernels are crafted so that across the roster some workloads reward
 * page-cross prefetching (dense multi-page streams: the next virtual
 * page is about to be touched) and others punish it (page-sized rows
 * with large pitch, hash probes: the sequential-next page is never
 * touched, so a page-cross prefetch costs a speculative page walk and
 * pollutes TLB + caches for nothing). This mirrors the bimodal
 * behaviour the paper reports in Fig. 2.
 */
#ifndef MOKASIM_TRACE_GENERATORS_H
#define MOKASIM_TRACE_GENERATORS_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "trace/workload.h"

namespace moka {

/**
 * A memory-access pattern: yields the data-reference stream of a
 * kernel, one access at a time. The interleaver wraps it with ALU and
 * branch filler to produce a complete instruction stream.
 */
class AccessKernel
{
  public:
    /** One data reference. */
    struct Access
    {
        Addr addr = 0;      //!< virtual byte address
        Addr pc = 0;        //!< PC of the load/store instruction
        bool store = false; //!< true for stores
        bool dependent = false; //!< address depends on previous load
    };

    virtual ~AccessKernel() = default;

    /** Produce the next data reference. */
    virtual Access next(Rng &rng) = 0;

    /**
     * Upper bound on the distinct 4KB pages the data references and
     * the L1D prefetches they trigger can touch, derived from the
     * kernel's parameters: the pages each address range spans, plus
     * one page past each end of every contiguous range (Berti's
     * deltas and BOP's offsets reach at most a page past their
     * trigger). The interleaver adds its code pages (see
     * Workload::page_bound).
     */
    virtual std::size_t page_bound() const = 0;

    /**
     * Save the state next() mutates: a one-byte kind tag, then the
     * kernel's state record (and its cursor vector, if any).
     */
    virtual void save_state(SnapshotWriter &w) const = 0;

    /**
     * Inverse of save_state on a kernel built from the same
     * parameters.
     *
     * @throws SnapshotError(kMalformed) on a different kind tag, a
     *         vector of another length, or an index or enum value out
     *         of range, before the value is used
     */
    virtual void restore_state(SnapshotReader &r) = 0;
};

using KernelPtr = std::unique_ptr<AccessKernel>;

/** Instruction-mix knobs for the interleaver. */
struct InterleaveParams
{
    double mem_ratio = 0.35;    //!< fraction of instructions that touch memory
    double store_frac = 0.0;    //!< extra stores beyond kernel-tagged ones (0..1 of mem ops forced to store)
    double branch_ratio = 0.10; //!< fraction of instructions that are branches
    unsigned loop_period = 16;  //!< loop branch falls through once per period
    double hard_branch_frac = 0.0; //!< fraction of branches that are data-dependent (hard to predict)
};

/**
 * Wrap an access kernel into a Workload: memory ops come from the
 * kernel, ALU filler keeps the instruction mix realistic, and loop
 * branches give the branch predictor a learnable pattern (plus an
 * optional hard-to-predict fraction).
 *
 * @param name   instance name reported by Workload::name()
 * @param kernel the data-reference pattern
 * @param params instruction-mix knobs
 * @param seed   RNG seed (determinism contract: same args => same stream)
 */
WorkloadPtr make_synthetic(std::string name, KernelPtr kernel,
                           const InterleaveParams &params,
                           std::uint64_t seed);

/** Dense sequential streams: page-cross friendly. */
struct StreamParams
{
    Addr base = 0x10000000;       //!< VA of the first stream
    Addr footprint = 8u << 20;    //!< total bytes swept (all streams)
    unsigned streams = 4;         //!< concurrent sequential streams
    Addr stride = 64;             //!< per-access byte stride
    double store_frac = 0.1;      //!< fraction of accesses that are stores
};
KernelPtr make_stream_kernel(const StreamParams &p);

/**
 * Page-sized rows with a large pitch: the access pattern is
 * sequential inside each 4KB row, then jumps by @p pitch. Next-line
 * page-cross prefetches at row ends are always useless: hostile to
 * page-cross prefetching.
 */
struct TileParams
{
    Addr base = 0x20000000;
    Addr row_bytes = 4096;        //!< bytes accessed sequentially per row
    Addr pitch = 1u << 20;        //!< byte distance between row starts
    unsigned rows = 48;           //!< rows per pass (wraps)
    Addr stride = 64;             //!< in-row stride
    double store_frac = 0.0;
};
KernelPtr make_tile_kernel(const TileParams &p);

/**
 * CSR graph traversal (GAP/LIGRA flavour): sequential offset reads,
 * short sequential neighbor runs in the edge array (which crosses
 * pages usefully), and random per-neighbor value gathers (which do
 * not).
 */
struct CsrGraphParams
{
    Addr base = 0x40000000;
    std::uint64_t vertices = 1u << 17;   //!< vertex count
    unsigned avg_degree = 12;            //!< mean out-degree
    double value_gather_frac = 1.0;      //!< gathers per traversed edge
    double store_frac = 0.05;
};
KernelPtr make_csr_graph_kernel(const CsrGraphParams &p);

/**
 * Dependent *sequential* chase (astar/list-traversal flavour): a
 * pointer chain whose nodes were allocated in address order, so each
 * hop advances by a fixed small stride. Every hop depends on the
 * previous load, making miss and page-walk latency unhidable — and
 * making accurate page-cross prefetching exceptionally valuable at
 * page boundaries (the paper's Fig. 2 winner class: astar, cc.road,
 * MIS, ...). Occasional restarts scatter the chain across the
 * footprint for TLB pressure.
 */
struct SeqChaseParams
{
    Addr base = 0x68000000;
    Addr footprint = 16u << 20;
    unsigned stride_lines = 2;   //!< node spacing in cache lines
    double restart_prob = 0.001; //!< chance a hop jumps to a new region
};
KernelPtr make_seq_chase_kernel(const SeqChaseParams &p);

/** Dependent random pointer chase: hostile to all prefetching. */
struct PointerChaseParams
{
    Addr base = 0x60000000;
    Addr footprint = 16u << 20;
    unsigned chains = 2;          //!< independent chase chains
};
KernelPtr make_pointer_chase_kernel(const PointerChaseParams &p);

/**
 * Hash-table probing: random bucket page, then a short in-page
 * sequential probe. Probes that start near a page end emit page-cross
 * prefetch bait that is never useful.
 */
struct HashProbeParams
{
    Addr base = 0x80000000;
    Addr footprint = 32u << 20;
    unsigned probe_lines_min = 2; //!< min sequential lines per probe
    unsigned probe_lines_max = 6; //!< max sequential lines per probe
    double store_frac = 0.15;
};
KernelPtr make_hash_probe_kernel(const HashProbeParams &p);

/**
 * Index-driven gather (SPEC-fp flavour): a sequential index stream
 * (page-cross friendly) driving random gathers (prefetch hostile).
 */
struct GatherParams
{
    Addr index_base = 0xA0000000;
    Addr data_base = 0xB0000000;
    Addr index_bytes = 8u << 20;  //!< sequential index array footprint
    Addr data_bytes = 64u << 20;  //!< gather target footprint
    unsigned gathers_per_index = 1;
};
KernelPtr make_gather_kernel(const GatherParams &p);

/**
 * Dual-stride kernel: a single load PC alternates between bursts of
 * a dense sequential sweep (stride +1 line; page crossings are
 * useful because the sweep continues into the next page) and bursts
 * of fixed-stride runs that always terminate at the page boundary
 * (stride +k lines; page crossings are never useful). Both patterns
 * share one PC and one address region, so only a *delta*-aware
 * Page-Cross Filter can separate them — the discrimination DRIPPER's
 * Table II features provide and PPF's feature set cannot.
 */
struct DualStrideParams
{
    Addr base = 0xD0000000;
    Addr footprint = 16u << 20;
    unsigned hop_lines = 12;      //!< lines per hop in the run pattern
    unsigned stream_burst = 96;   //!< accesses per sequential burst
    unsigned runs_per_burst = 8;  //!< page runs per hop burst
};
KernelPtr make_dual_stride_kernel(const DualStrideParams &p);

/**
 * Phase mixer: runs each child kernel for @p phase_len accesses in
 * round-robin. Exercises the adaptive thresholding scheme.
 */
KernelPtr make_phase_mix_kernel(std::vector<KernelPtr> children,
                                std::uint64_t phase_len);

/**
 * Bursty short-running kernel (Qualcomm CVP-1 flavour): rapid
 * alternation of small streaming bursts and dependent chases over a
 * modest footprint.
 */
struct BurstyParams
{
    Addr base = 0xC0000000;
    Addr footprint = 4u << 20;
    std::uint64_t burst_len = 512;   //!< accesses per burst
    double stream_frac = 0.5;        //!< fraction of bursts that stream
};
KernelPtr make_bursty_kernel(const BurstyParams &p);

}  // namespace moka

#endif  // MOKASIM_TRACE_GENERATORS_H
