/**
 * @file
 * Runtime invariant auditors: one structural checker per stateful
 * subsystem, plus the cross-structure checks (PCB bits in the L1D
 * versus pUB records, TLB contents versus the radix page table) that
 * silent metadata drift would otherwise corrupt without failing any
 * functional test.
 *
 * Auditors are plain always-compiled functions over const references;
 * they cost nothing unless called. The machine invokes them on a
 * configurable instruction cadence when the build enables auditing
 * (see common/check.h); tests invoke them directly against healthy
 * and deliberately corrupted structures.
 */
#ifndef MOKASIM_AUDIT_AUDIT_H
#define MOKASIM_AUDIT_AUDIT_H

#include <string>
#include <vector>

#include "common/check.h"

namespace moka {

class AdaptiveThreshold;
class Cache;
class Dram;
class PageCrossFilter;
class PageTable;
class PageWalker;
class StructureCache;
class Tlb;
template <class AddrT> class UpdateBuffer;

/** One invariant violation found by an auditor. */
struct AuditFinding
{
    std::string component;  //!< e.g. "L1D", "moka.pUB", "dram"
    std::string message;    //!< which invariant broke, and how
};

/** Collects the findings of one audit sweep. */
class AuditReport
{
  public:
    /**
     * @param forward when true every finding is also routed through
     *        the global failure handler (stderr log, or abort in
     *        fatal mode) — the mode used by the machine cadence.
     */
    explicit AuditReport(bool forward = false) : forward_(forward) {}

    /** Record a violation of @p component described by @p message. */
    void fail(const std::string &component, const std::string &message);

    /** True when no violation was recorded. */
    bool ok() const { return findings_.empty(); }

    /** All recorded violations. */
    const std::vector<AuditFinding> &findings() const { return findings_; }

    /** Newline-separated rendering (diagnostics). */
    std::string to_string() const;

  private:
    bool forward_;
    std::vector<AuditFinding> findings_;
};

namespace audit {

/**
 * Cache invariants: no duplicate tags per set, tags resident in the
 * set they index to, PCB only on prefetched blocks of a PCB-tracking
 * cache, MSHR occupancy within bounds, replacement-stack sanity.
 */
void audit_cache(const Cache &cache, AuditReport &report);

/**
 * TLB coherence with the radix page table: every valid entry must sit
 * in the set its VPN indexes, carry an aligned page base equal to the
 * page table's mapping, and never cache a translation the page table
 * has not established (or cache a 4KB entry inside a 2MB region).
 */
void audit_tlb(const Tlb &tlb, const PageTable &table,
               AuditReport &report);

/**
 * Page-table allocator invariants: mapped frames unique, aligned,
 * inside their physical partition, and tracked by the frame sets;
 * and no more pages mapped than the workload's declared bound.
 */
void audit_page_table(const PageTable &table, AuditReport &report);

/** Walker/PSC invariants: capacity, distinct prefixes, counters. */
void audit_walker(const PageWalker &walker, AuditReport &report);

/**
 * Update-buffer invariants: occupancy within capacity, FIFO/index
 * bookkeeping in sync, records block-aligned with legal feature
 * counts. @p name labels findings (e.g. "moka.pUB").
 */
template <class AddrT>
void audit_update_buffer(const UpdateBuffer<AddrT> &buffer,
                         const std::string &name, AuditReport &report);

/** Threshold invariants: T_a within [t_min, t_max], sane level order. */
void audit_threshold(const AdaptiveThreshold &threshold,
                     AuditReport &report);

/**
 * Full filter audit: weight tables, system-feature weights, vUB/pUB,
 * adaptive threshold, pending-decision sanity. Non-MOKA filters (none
 * today — PPF is built on MokaFilter) audit as trivially clean.
 */
void audit_filter(const PageCrossFilter &filter, AuditReport &report);

/**
 * The paper's central cross-structure invariant: pUB records and L1D
 * Page-Cross Bits must tell the same story. Every pUB record must
 * name a resident, unused, prefetched PCB block; every unused PCB
 * block lacking a pUB record must be explained by pUB overflow.
 * No-op unless @p filter is a MokaFilter.
 */
void audit_pcb_pub(const Cache &l1d, const PageCrossFilter &filter,
                   AuditReport &report);

/** DRAM bank-state legality: geometry and open-row validity. */
void audit_dram(const Dram &dram, AuditReport &report);

}  // namespace audit
}  // namespace moka

#endif  // MOKASIM_AUDIT_AUDIT_H
