/**
 * @file
 * MOKA's bouquet of prefetcher-independent program features
 * (paper §III-D1). The framework ships 55 features over the trigger
 * access (PC, VA), short access history, the prefetcher's delta, and
 * the first access made to the trigger's page; Table I lists the 19
 * that correlate best, all of which are included here verbatim.
 */
#ifndef MOKASIM_FILTER_FEATURES_H
#define MOKASIM_FILTER_FEATURES_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace moka {

class SnapshotReader;
class SnapshotWriter;

/**
 * Raw inputs a feature is computed from, assembled by the feature
 * extractor at prediction time.
 */
struct FeatureInput
{
    Addr pc = 0;       //!< PC of the trigger load/store
    VirtAddr vaddr{};  //!< VA of the trigger access
    VirtAddr va1{};    //!< previous load VA (VA_{i-1})
    VirtAddr va2{};    //!< VA before that (VA_{i-2})
    Addr pc1 = 0;      //!< previous load PC
    Addr pc2 = 0;      //!< PC before that
    std::int64_t delta = 0;          //!< prefetcher's block delta
    std::uint64_t first_page_access = 0; //!< line offset of the first
                                         //!< access to the trigger page
    std::uint64_t meta = 0;          //!< prefetcher-specific metadata
                                     //!< (specialized features only)
};

/**
 * Whole-VA feature material. Feature hashing consumes every bit of
 * the trigger VA, which no geometry helper exposes; this is the one
 * sanctioned full-width exit, so the X-macro below stays free of
 * scattered escapes. Page-granular features use page_index()/
 * large_page_index()/block_number()/line_in_page() instead.
 */
constexpr std::uint64_t
va_bits(VirtAddr va)
{
    return va.raw();  // LINT_ADDR_OK: feature-hashing material
}

/**
 * X-macro: id, printable name, value expression over FeatureInput in.
 * Page-granular terms go through the typed geometry helpers
 * (page_index == VA>>12, large_page_index == VA>>21, block_number ==
 * VA>>6); feature-specific sub-page shifts (>>15/18/24) operate on the
 * va_bits() scalar. tests/test_feature_pinning.cc pins the evaluated
 * values so any drift from the original raw expressions is caught.
 */
#define MOKA_PROGRAM_FEATURES(X)                                             \
    /* --- Table I features --------------------------------------- */      \
    X(kVa, "VA", va_bits(in.vaddr))                                          \
    X(kVaP12, "VA>>12", page_index(in.vaddr))                                \
    X(kVaP21, "VA>>21", large_page_index(in.vaddr))                          \
    X(kLineOffset, "CacheLineOffset", line_in_page(in.vaddr))                \
    X(kPc, "PC", in.pc)                                                      \
    X(kPcPlusOffset, "PC+CacheLineOffset", in.pc + line_in_page(in.vaddr))   \
    X(kVaHist3, "VA_2^VA_1^VA",                                              \
      va_bits(in.va2) ^ va_bits(in.va1) ^ va_bits(in.vaddr))                 \
    X(kVpnHist3, "(VA_2>>12)^(VA_1>>12)^(VA>>12)",                           \
      page_index(in.va2) ^ page_index(in.va1) ^ page_index(in.vaddr))        \
    X(kPcHist3, "PC_2^PC_1^PC", in.pc2 ^ in.pc1 ^ in.pc)                     \
    X(kPcXorVa, "PC^VA", in.pc ^ va_bits(in.vaddr))                          \
    X(kPcXorVpn, "PC^(VA>>12)", in.pc ^ page_index(in.vaddr))                \
    X(kVaXorDelta, "VA^Delta", va_bits(in.vaddr) ^ d)                        \
    X(kPcXorDelta, "PC^Delta", in.pc ^ d)                                    \
    X(kVpnXorDelta, "(VA>>12)^Delta", page_index(in.vaddr) ^ d)              \
    X(kPcXorFpa, "PC^FirstPageAccess", in.pc ^ in.first_page_access)         \
    X(kVaXorFpa, "VA^FirstPageAccess",                                       \
      va_bits(in.vaddr) ^ in.first_page_access)                              \
    X(kVpnXorFpa, "(VA>>12)^FirstPageAccess",                                \
      page_index(in.vaddr) ^ in.first_page_access)                           \
    X(kOffsetPlusFpa, "CacheLineOffset+FirstPageAccess",                     \
      line_in_page(in.vaddr) + in.first_page_access)                         \
    X(kDeltaPlusFpa, "Delta+FirstPageAccess", d + in.first_page_access)      \
    /* --- Bouquet extensions -------------------------------------- */     \
    X(kVaP6, "VA>>6", block_number(in.vaddr))                                \
    X(kVaP15, "VA>>15", va_bits(in.vaddr) >> 15)                             \
    X(kVaP18, "VA>>18", va_bits(in.vaddr) >> 18)                             \
    X(kVaP24, "VA>>24", va_bits(in.vaddr) >> 24)                             \
    X(kPcP2, "PC>>2", in.pc >> 2)                                            \
    X(kPcP4, "PC>>4", in.pc >> 4)                                            \
    X(kDelta, "Delta", d)                                                    \
    X(kAbsDelta, "|Delta|", ad)                                              \
    X(kPcPlusDelta, "PC+Delta", in.pc + d)                                   \
    X(kVaPlusDelta, "VA+Delta", va_bits(in.vaddr) + d)                       \
    X(kVaP21XorDelta, "(VA>>21)^Delta", large_page_index(in.vaddr) ^ d)      \
    X(kOffsetXorDelta, "CacheLineOffset^Delta",                              \
      line_in_page(in.vaddr) ^ d)                                            \
    X(kOffsetPlusDelta, "CacheLineOffset+Delta",                             \
      line_in_page(in.vaddr) + d)                                            \
    X(kPcXorOffset, "PC^CacheLineOffset",                                    \
      in.pc ^ line_in_page(in.vaddr))                                        \
    X(kVaHist2, "VA_1^VA", va_bits(in.va1) ^ va_bits(in.vaddr))              \
    X(kVpnHist2, "(VA_1>>12)^(VA>>12)",                                      \
      page_index(in.va1) ^ page_index(in.vaddr))                             \
    X(kPcHist2, "PC_1^PC", in.pc1 ^ in.pc)                                   \
    X(kPcXorVaP21, "PC^(VA>>21)", in.pc ^ large_page_index(in.vaddr))        \
    X(kPcPlusVpn, "PC+(VA>>12)", in.pc + page_index(in.vaddr))               \
    X(kPcXorVaXorDelta, "PC^VA^Delta", in.pc ^ va_bits(in.vaddr) ^ d)        \
    X(kPcXorVpnXorDelta, "PC^(VA>>12)^Delta",                                \
      in.pc ^ page_index(in.vaddr) ^ d)                                      \
    X(kDeltaXorFpa, "Delta^FirstPageAccess", d ^ in.first_page_access)       \
    X(kPcPlusFpa, "PC+FirstPageAccess", in.pc + in.first_page_access)        \
    X(kVaHist3XorDelta, "(VA_2^VA_1^VA)^Delta",                              \
      (va_bits(in.va2) ^ va_bits(in.va1) ^ va_bits(in.vaddr)) ^ d)           \
    X(kPcHist2XorDelta, "(PC_1^PC)^Delta", (in.pc1 ^ in.pc) ^ d)             \
    X(kVpnHist2XorDelta, "((VA_1>>12)^(VA>>12))^Delta",                      \
      (page_index(in.va1) ^ page_index(in.vaddr)) ^ d)                       \
    X(kTargetVa, "TargetVA", va_bits(tva))                                   \
    X(kTargetVpn, "TargetVA>>12", page_index(tva))                           \
    X(kTargetOffset, "TargetCacheLineOffset", line_in_page(tva))             \
    X(kPcXorTargetVpn, "PC^(TargetVA>>12)", in.pc ^ page_index(tva))         \
    X(kVpnPlusDelta, "(VA>>12)+Delta", page_index(in.vaddr) + d)             \
    X(kPcP2XorVa, "(PC>>2)^VA", (in.pc >> 2) ^ va_bits(in.vaddr))            \
    X(kOffsetHist2, "Off_1^Off", line_in_page(in.va1) ^                      \
      line_in_page(in.vaddr))                                                \
    X(kVaXorPcHist2, "(PC_1^PC)^VA", (in.pc1 ^ in.pc) ^ va_bits(in.vaddr))   \
    X(kOffsetDeltaXorPc, "(CacheLineOffset+Delta)^PC",                       \
      (line_in_page(in.vaddr) + d) ^ in.pc)                                  \
    X(kFpa, "FirstPageAccess", in.first_page_access)

/** Program feature identifiers (55 features). */
enum class ProgramFeatureId : std::uint8_t {
#define MOKA_ENUM(id, name, expr) id,
    MOKA_PROGRAM_FEATURES(MOKA_ENUM)
#undef MOKA_ENUM
};

/** Number of program features in the bouquet. */
std::size_t program_feature_count();

/** Compute the raw (unhashed) value of @p id over @p in. */
std::uint64_t eval_feature(ProgramFeatureId id, const FeatureInput &in);

/** Printable name of @p id. */
const char *feature_name(ProgramFeatureId id);

/** All 55 feature ids, in declaration order. */
const std::vector<ProgramFeatureId> &all_program_features();

/** The Table I subset (best-correlating 19 features). */
const std::vector<ProgramFeatureId> &table1_program_features();

/**
 * Prefetcher-specialized features (the paper's SIII-D1 extension
 * hypothesis: "crafting specialized features that exploit metadata of
 * specific prefetchers has the potential to further improve the
 * effectiveness of a Page-Cross Filter"). They consume the `meta`
 * word each prefetcher exports with its candidates — Berti's
 * timeliness count, IPCP's class, BOP's best score.
 */
enum class SpecializedFeatureId : std::uint8_t {
    kMeta,          //!< raw metadata word
    kMetaXorDelta,  //!< metadata ^ delta
    kMetaXorPc,     //!< metadata ^ trigger PC
};

/** Compute the raw value of specialized feature @p id over @p in. */
std::uint64_t eval_specialized(SpecializedFeatureId id,
                               const FeatureInput &in);

/** Printable name of @p id. */
const char *specialized_feature_name(SpecializedFeatureId id);

/**
 * Trigger-side history tracker: feeds FeatureInput with the previous
 * load VAs/PCs and the first-access line offset of recently touched
 * pages. One instance lives in front of each Page-Cross Filter.
 */
class FeatureExtractor
{
  public:
    /** Record a demand data access (program order). */
    void on_demand_access(Addr pc, VirtAddr vaddr);

    /** Assemble the FeatureInput for a prefetch with @p delta. */
    FeatureInput make_input(Addr trigger_pc, VirtAddr trigger_vaddr,
                            std::int64_t delta,
                            std::uint64_t meta = 0) const;

    /** Serialize the VA/PC history and the first-page-access table. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    static constexpr std::size_t kFpaEntries = 64;

    struct FpaEntry
    {
        Addr page = ~Addr{0};  //!< scalar VPN (page_index) or ~0 sentinel
        std::uint64_t first_line = 0;
    };

    VirtAddr va_hist_[2]{};  //!< [0] = VA_{i-1}, [1] = VA_{i-2}
    Addr pc_hist_[2] = {0, 0};
    FpaEntry fpa_[kFpaEntries];
};

}  // namespace moka

#endif  // MOKASIM_FILTER_FEATURES_H
