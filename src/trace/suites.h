/**
 * @file
 * Named workload roster mirroring the paper's evaluation set: 218
 * "seen" memory-intensive workloads (used to design DRIPPER), 178
 * "unseen" ones, and a non-intensive remainder, spread over suites
 * named after the paper's (SPEC06, SPEC17, GAP, LIGRA, PARSEC, GKB5,
 * QMM_INT, QMM_FP). Each instance is a parameterized, seeded
 * synthetic generator — see DESIGN.md for the substitution rationale.
 */
#ifndef MOKASIM_TRACE_SUITES_H
#define MOKASIM_TRACE_SUITES_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/workload.h"

namespace moka {

/** Kernel family backing a roster instance. */
enum class Family : std::uint8_t {
    kStream,    //!< dense sequential streams (PGC-friendly)
    kTile,      //!< page rows with large pitch (PGC-hostile)
    kGather,    //!< sequential index + random gather
    kCsr,       //!< CSR graph traversal
    kChase,     //!< dependent pointer chase
    kHash,      //!< random bucket probes (PGC-hostile)
    kBursty,    //!< short alternating bursts (QMM flavour)
    kPhaseMix,  //!< stream/tile phase alternation
    kDualStride, //!< same-PC dual stride (delta-separable crossings)
    kSeqChase,   //!< dependent sequential chase (astar flavour)
};

/** One roster entry; `make_workload` instantiates the generator. */
struct WorkloadSpec
{
    std::string name;            //!< e.g. "gap.csr.3"
    std::string suite;           //!< e.g. "GAP"
    Family family;               //!< backing kernel family
    std::uint32_t variant;       //!< family-local variant index
    std::uint64_t seed;          //!< generator seed
    bool memory_intensive;       //!< paper's LLC-MPKI >= 1 proxy

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("name", s.name...);
        v("suite", s.suite...);
        v("family", s.family...);
        v("variant", s.variant...);
        v("seed", s.seed...);
        v("memory_intensive", s.memory_intensive...);
    }
};

/** The 218 seen memory-intensive workloads. */
std::vector<WorkloadSpec> seen_workloads();

/** The 178 unseen memory-intensive workloads. */
std::vector<WorkloadSpec> unseen_workloads();

/** Non memory-intensive workloads (Table V's "All" completion). */
std::vector<WorkloadSpec> non_intensive_workloads();

/**
 * Evenly spaced subset of @p roster with at most @p count entries,
 * preserving suite diversity (stable order). Used by the bench
 * harnesses to trade runtime for roster size.
 */
std::vector<WorkloadSpec> sample(const std::vector<WorkloadSpec> &roster,
                                 std::size_t count);

/** Keep only entries of @p suite. */
std::vector<WorkloadSpec> filter_suite(const std::vector<WorkloadSpec> &roster,
                                       const std::string &suite);

/** Instantiate the generator for @p spec. */
WorkloadPtr make_workload(const WorkloadSpec &spec);

/** Ordered list of suite names appearing in the roster. */
std::vector<std::string> suite_names();

}  // namespace moka

#endif  // MOKASIM_TRACE_SUITES_H
