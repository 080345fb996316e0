/**
 * @file
 * Lightweight statistics: named counters, MPKI/rate helpers, running
 * windows for epoch deltas, and geometric-mean summaries used by the
 * benchmark harnesses.
 */
#ifndef MOKASIM_COMMON_STATS_H
#define MOKASIM_COMMON_STATS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/types.h"

namespace moka {

/**
 * Access/miss counter pair for a cache-like structure, convertible to
 * MPKI and miss-rate given an instruction count.
 */
struct AccessStats
{
    std::uint64_t accesses = 0;  //!< total lookups
    std::uint64_t misses = 0;    //!< lookups that missed

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("accesses", s.accesses...);
        v("misses", s.misses...);
    }

    /** Misses per kilo-instruction. */
    double mpki(InstCount instructions) const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(misses) /
                         static_cast<double>(instructions);
    }

    /** Miss ratio in [0,1]. */
    double miss_rate() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }

    AccessStats operator-(const AccessStats &o) const
    {
        return field_diff(*this, o);
    }
};

/**
 * Prefetch effectiveness counters for one cache level.
 *
 * A prefetch is "useful" when the block it filled serves at least one
 * demand access before eviction; page-cross (PGC) prefetches are
 * tracked separately because they are the object of study.
 */
struct PrefetchStats
{
    std::uint64_t issued = 0;       //!< prefetch fills requested
    std::uint64_t useful = 0;       //!< blocks that served >=1 demand hit
    std::uint64_t useless = 0;      //!< prefetched blocks evicted unused
    std::uint64_t pgc_issued = 0;   //!< page-cross prefetch fills
    std::uint64_t pgc_useful = 0;   //!< page-cross blocks with >=1 hit
    std::uint64_t pgc_useless = 0;  //!< page-cross blocks evicted unused

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("issued", s.issued...);
        v("useful", s.useful...);
        v("useless", s.useless...);
        v("pgc_issued", s.pgc_issued...);
        v("pgc_useful", s.pgc_useful...);
        v("pgc_useless", s.pgc_useless...);
    }

    /** Overall prefetch accuracy in [0,1] over resolved prefetches. */
    double accuracy() const
    {
        const std::uint64_t resolved = useful + useless;
        return resolved == 0 ? 0.0
                             : static_cast<double>(useful) /
                                   static_cast<double>(resolved);
    }

    /** Page-cross prefetch accuracy in [0,1]. */
    double pgc_accuracy() const
    {
        const std::uint64_t resolved = pgc_useful + pgc_useless;
        return resolved == 0 ? 0.0
                             : static_cast<double>(pgc_useful) /
                                   static_cast<double>(resolved);
    }

    /** Memberwise delta for measured-region snapshots. */
    PrefetchStats operator-(const PrefetchStats &o) const
    {
        return field_diff(*this, o);
    }
};

/** Geometric mean of speedup ratios; ignores non-positive entries. */
double geomean(const std::vector<double> &ratios);

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double> &values);

/** p-th percentile (0..100) by linear interpolation. */
double percentile(std::vector<double> values, double p);

/** Formats @p v as a signed percentage string like "+1.73%". */
std::string format_pct(double v);

}  // namespace moka

#endif  // MOKASIM_COMMON_STATS_H
