/**
 * @file
 * Page-cross policy schemes: the paper's comparison points (Permit
 * PGC, Discard PGC, Discard PTW, ISO Storage, PPF, PPF+Dthr) and the
 * DRIPPER prototypes built with the MOKA framework (Table II).
 */
#ifndef MOKASIM_FILTER_POLICIES_H
#define MOKASIM_FILTER_POLICIES_H

#include <functional>
#include <string>

#include "filter/moka.h"
#include "prefetch/prefetcher.h"

namespace moka {

/** What the machine does with page-cross prefetch candidates. */
enum class PgcPolicy : std::uint8_t {
    kPermit,      //!< always issue (walks allowed)
    kDiscard,     //!< never issue
    kDiscardPtw,  //!< issue only when the translation is TLB-resident
    kFilter,      //!< delegate to a PageCrossFilter
};

/** A named page-cross scheme; one instance per experiment column. */
struct SchemeConfig
{
    std::string name = "Discard PGC";
    PgcPolicy policy = PgcPolicy::kDiscard;
    bool iso_storage = false;    //!< enlarge prefetcher by DRIPPER's budget
    bool filter_at_2mb = false;  //!< Fig. 16: filter at 2MB boundaries for
                                 //!< blocks residing in 2MB pages
    //! Per-core filter factory (kFilter only).
    std::function<FilterPtr()> make_filter;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("name", s.name...);
        v("policy", s.policy...);
        v("iso_storage", s.iso_storage...);
        v("filter_at_2mb", s.filter_at_2mb...);
        v("make_filter", s.make_filter...);
    }
};

/** Always-issue scheme (paper's Permit PGC). */
SchemeConfig scheme_permit();

/** Never-issue scheme (paper's Discard PGC — the baseline). */
SchemeConfig scheme_discard();

/** TLB-resident-only scheme (paper's Discard PTW). */
SchemeConfig scheme_discard_ptw();

/** Permit PGC with the prefetcher enlarged by 1.44KB (ISO Storage). */
SchemeConfig scheme_iso_storage();

/** DRIPPER for @p kind per Table II. */
SchemeConfig scheme_dripper(L1dPrefetcherKind kind);

/** DRIPPER that filters at 2MB boundaries inside 2MB pages (Fig. 16). */
SchemeConfig scheme_dripper_filter_2mb(L1dPrefetcherKind kind);

/** DRIPPER-SF: system features only (Fig. 15). */
SchemeConfig scheme_dripper_sf(L1dPrefetcherKind kind);

/**
 * DRIPPER augmented with prefetcher-specialized features (the paper's
 * SIII-D1 extension hypothesis; bench/specialized_features tests it).
 */
SchemeConfig scheme_dripper_specialized(L1dPrefetcherKind kind);

/** Single-program-feature filter (Fig. 14 / feature selection). */
SchemeConfig scheme_single_program(ProgramFeatureId id);

/** Single-system-feature filter (Fig. 14 / feature selection). */
SchemeConfig scheme_single_system(SystemFeatureId id);

/** PPF converted to a page-cross filter; @p dynamic_threshold = +Dthr. */
SchemeConfig scheme_ppf(bool dynamic_threshold);

/** The MokaConfig used by DRIPPER for @p kind (Table II + Table III). */
MokaConfig dripper_config(L1dPrefetcherKind kind);

/** Build a DRIPPER filter instance directly (tests, storage audit). */
FilterPtr make_dripper(L1dPrefetcherKind kind);

/** Build the converted-PPF filter instance directly. */
FilterPtr make_ppf(bool dynamic_threshold);

}  // namespace moka

#endif  // MOKASIM_FILTER_POLICIES_H
