/**
 * @file
 * Implementation of the invariant auditors and the global audit
 * failure handler behind common/check.h.
 *
 * Audited component registry — tools/simlint (rule L4) verifies
 * that every stateful class declared in src/{cache,dram,vmem,filter}
 * headers is named in this file:
 *
 *   Cache (with its replacement rows), Tlb, PageTable, PageWalker,
 *   StructureCache, UpdateBuffer, SignedSatCounter, SystemFeature,
 *   AdaptiveThreshold, MokaFilter, PageCrossFilter, Dram.
 *
 * LINT_AUDIT_EXEMPT: FeatureExtractor — a bounded history ring whose
 * corruption changes predictions, never legality; it has no
 * cross-structure invariants to audit.
 * LINT_AUDIT_EXEMPT: UnsignedSatCounter — clamped at both rails by
 * construction; covered indirectly wherever it is embedded.
 */
#include "audit/audit.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "audit/access.h"

namespace moka {
namespace audit {
namespace {

// Atomics: audit failures can now be reported concurrently from
// job-engine worker threads (see sim/jobs/engine.h).
std::atomic<std::uint64_t> g_failures{0};
std::atomic<bool> g_fatal{MOKASIM_AUDIT_LEVEL >= 2};

void
emit_failure(const char *where, int line, const char *what)
{
    g_failures.fetch_add(1, std::memory_order_relaxed);
    if (line > 0) {
        std::fprintf(stderr, "mokasim audit failure: %s:%d: %s\n", where,  // LINT_LOG_OK: crash diagnostic
                     line, what);
    } else {
        std::fprintf(stderr, "mokasim audit failure: %s: %s\n", where,  // LINT_LOG_OK: crash diagnostic
                     what);
    }
    if (g_fatal.load(std::memory_order_relaxed)) {
        std::abort();
    }
}

}  // namespace

void
report_failure(const char *file, int line, const char *what)
{
    emit_failure(file, line, what);
}

void
require_failure(const char *file, int line, const char *what)
{
    std::fprintf(stderr, "mokasim requirement violated: %s:%d: %s\n",  // LINT_LOG_OK: crash diagnostic
                 file, line, what);
    std::abort();
}

std::uint64_t
failure_count()
{
    return g_failures.load(std::memory_order_relaxed);
}

void
reset_failures()
{
    g_failures.store(0, std::memory_order_relaxed);
}

bool
fatal()
{
    return g_fatal.load(std::memory_order_relaxed);
}

void
set_fatal(bool value)
{
    g_fatal.store(value, std::memory_order_relaxed);
}

}  // namespace audit

// ---------------------------------------------------------------------------
// AuditReport
// ---------------------------------------------------------------------------

void
AuditReport::fail(const std::string &component, const std::string &message)
{
    findings_.push_back({component, message});
    if (forward_) {
        audit::report_failure(component.c_str(), 0, message.c_str());
    }
}

std::string
AuditReport::to_string() const
{
    std::string out;
    for (const AuditFinding &f : findings_) {
        out += f.component;
        out += ": ";
        out += f.message;
        out += '\n';
    }
    return out;
}

namespace audit {

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

void
audit_cache(const Cache &cache, AuditReport &report)
{
    const CacheConfig &cfg = cache.config();
    const std::string &name = cfg.name;

    for (std::uint32_t set = 0; set < cfg.sets; ++set) {
        std::unordered_set<Addr> tags;
        for (std::uint32_t way = 0; way < cfg.ways; ++way) {
            const AuditAccess::BlockView b =
                AuditAccess::cache_block(cache, set, way);
            if (!b.valid) {
                continue;
            }
            if (!tags.insert(b.tag).second) {
                report.fail(name, "duplicate tag " +
                                      std::to_string(b.tag) + " in set " +
                                      std::to_string(set));
            }
            if ((b.tag & (cfg.sets - 1)) != set) {
                report.fail(name, "tag " + std::to_string(b.tag) +
                                      " resident in set " +
                                      std::to_string(set) +
                                      " but indexes to set " +
                                      std::to_string(b.tag &
                                                     (cfg.sets - 1)));
            }
            if (b.pgc && !b.prefetched) {
                report.fail(name, "PCB set on a non-prefetched block in "
                                  "set " +
                                      std::to_string(set));
            }
            if (b.pgc && !cfg.track_pgc) {
                report.fail(name, "PCB set but the cache does not track "
                                  "PCB bits");
            }
        }
    }

    const std::size_t inflight = AuditAccess::cache_inflight_count(cache);
    if (inflight > cfg.mshr_entries) {
        report.fail(name, "MSHR occupancy " + std::to_string(inflight) +
                              " exceeds " +
                              std::to_string(cfg.mshr_entries) +
                              " entries");
    }

    const Cycle fill_base = AuditAccess::cache_fill_base(cache);
    const Cycle port_free = AuditAccess::cache_port_free(cache);
    if (fill_base > port_free) {
        report.fail(name, "fill base " + std::to_string(fill_base) +
                              " ahead of the port clock " +
                              std::to_string(port_free));
    }

    const std::int64_t bad = AuditAccess::cache_inconsistent_set(cache);
    if (bad >= 0) {
        report.fail(name, cfg.replacement == ReplacementKind::kLru
                              ? "replacement state: lru ranks of set " +
                                    std::to_string(bad) +
                                    " are not a permutation of its ways"
                              : "replacement state: srrip rrpv above the "
                                "2-bit rail in set " +
                                    std::to_string(bad));
    }
}

// ---------------------------------------------------------------------------
// TLB vs page table
// ---------------------------------------------------------------------------

namespace {

void
audit_tlb_array(const Tlb &tlb, const PageTable &table, bool large,
                AuditReport &report)
{
    const TlbConfig &cfg = tlb.config();
    const std::uint32_t sets = large ? cfg.large_sets : cfg.sets;
    const std::uint32_t ways = large ? cfg.large_ways : cfg.ways;
    const std::size_t slots = large ? AuditAccess::tlb_large_slots(tlb)
                                    : AuditAccess::tlb_small_slots(tlb);
    const std::uint64_t stamp = AuditAccess::tlb_lru_stamp(tlb);
    const auto &map = large ? AuditAccess::large_page_map(table)
                            : AuditAccess::page_map(table);
    const std::string name =
        cfg.name + (large ? ".large" : ".small");

    if (slots != static_cast<std::size_t>(sets) * ways) {
        report.fail(name, "array holds " + std::to_string(slots) +
                              " slots for " + std::to_string(sets) + "x" +
                              std::to_string(ways) + " geometry");
        return;
    }

    for (std::size_t slot = 0; slot < slots; ++slot) {
        const AuditAccess::TlbEntryView e =
            large ? AuditAccess::tlb_large_entry(tlb, slot)
                  : AuditAccess::tlb_small_entry(tlb, slot);
        if (!e.valid) {
            continue;
        }
        const std::uint32_t set = static_cast<std::uint32_t>(slot / ways);
        if ((e.vpn & (sets - 1)) != set) {
            report.fail(name, "VPN " + std::to_string(e.vpn) +
                                  " resident in set " +
                                  std::to_string(set) +
                                  " but indexes to set " +
                                  std::to_string(e.vpn & (sets - 1)));
        }
        if (e.lru > stamp) {
            report.fail(name, "entry LRU stamp " + std::to_string(e.lru) +
                                  " ahead of the TLB clock " +
                                  std::to_string(stamp));
        }
        const VirtAddr vaddr{large ? (e.vpn << kLargePageBits)
                                   : (e.vpn << kPageBits)};
        if (table.is_large_region(vaddr) != large) {
            report.fail(name, "VPN " + std::to_string(e.vpn) +
                                  (large ? " cached as a 2MB entry in a "
                                           "4KB region"
                                         : " cached as a 4KB entry in a "
                                           "2MB region"));
            continue;
        }
        const auto it = map.find(e.vpn);
        if (it == map.end()) {
            report.fail(name, "VPN " + std::to_string(e.vpn) +
                                  " cached but never mapped by the page "
                                  "table");
            continue;
        }
        const Addr mapped = AuditAccess::frame_base(it->second);
        if (mapped != e.page_base) {
            report.fail(name, "VPN " + std::to_string(e.vpn) +
                                  " translates to " +
                                  std::to_string(e.page_base) +
                                  " but the page table maps it to " +
                                  std::to_string(mapped));
        }
    }
}

}  // namespace

void
audit_tlb(const Tlb &tlb, const PageTable &table, AuditReport &report)
{
    audit_tlb_array(tlb, table, /*large=*/false, report);
    audit_tlb_array(tlb, table, /*large=*/true, report);
}

// ---------------------------------------------------------------------------
// Page table
// ---------------------------------------------------------------------------

namespace {

/**
 * (VPN, frame byte address) of every mapping in @p map, sorted by VPN
 * so that findings do not depend on slot order (lint rule L7).
 */
std::vector<std::pair<Addr, Addr>>
sorted_mappings(const FlatAddrMap &map)
{
    std::vector<std::pair<Addr, Addr>> out;
    out.reserve(map.size());
    for (const auto &[vpn, frame] : map) {
        out.emplace_back(vpn, AuditAccess::frame_base(frame));
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace

void
audit_page_table(const PageTable &table, AuditReport &report)
{
    const std::string name = "page_table";
    const Addr phys = AuditAccess::phys_bytes(table);
    const Addr half = phys / 2;

    // The maps were reserved by the workload's bound: mapping more
    // pages than it declared means the workload under-declared it.
    if (table.page_bound() != 0 && table.mapped_pages() > table.page_bound()) {
        report.fail(name, std::to_string(table.mapped_pages()) +
                              " pages mapped past the workload's bound of " +
                              std::to_string(table.page_bound()));
    }

    // 4KB data frames (stored as frame numbers, so always aligned):
    // inside the lower-half partition, tracked by the allocator, and
    // never shared between pages.
    std::unordered_set<Addr> seen;
    for (const auto &[vpn, frame] :
         sorted_mappings(AuditAccess::page_map(table))) {
        if (frame >= half) {
            report.fail(name, "VPN " + std::to_string(vpn) +
                                  " mapped outside the 4KB partition");
        }
        if (AuditAccess::used_frames(table).count(frame / kPageSize) ==
            0) {
            report.fail(name, "frame " + std::to_string(frame) +
                                  " mapped but not tracked by the "
                                  "allocator");
        }
        if (!seen.insert(frame).second) {
            report.fail(name, "frame " + std::to_string(frame) +
                                  " mapped by two virtual pages");
        }
    }

    // 2MB frames: upper-half partition, aligned within it.
    std::unordered_set<Addr> seen_large;
    for (const auto &[lvpn, frame] :
         sorted_mappings(AuditAccess::large_page_map(table))) {
        if (frame < half || frame >= phys ||
            (frame - half) % kLargePageSize != 0) {
            report.fail(name, "large VPN " + std::to_string(lvpn) +
                                  " mapped to illegal frame " +
                                  std::to_string(frame));
            continue;
        }
        if (AuditAccess::used_large_frames(table).count(
                (frame - half) / kLargePageSize) == 0) {
            report.fail(name, "large frame " + std::to_string(frame) +
                                  " mapped but not tracked by the "
                                  "allocator");
        }
        if (!seen_large.insert(frame).second) {
            report.fail(name, "large frame " + std::to_string(frame) +
                                  " mapped by two virtual regions");
        }
    }
}

// ---------------------------------------------------------------------------
// Walker / PSCs
// ---------------------------------------------------------------------------

namespace {

void
audit_psc(const StructureCache &psc, const std::string &name,
          AuditReport &report)
{
    const AuditAccess::PscView v = AuditAccess::psc(psc);
    if (v.entries.size() > v.capacity) {
        report.fail(name, "holds " + std::to_string(v.entries.size()) +
                              " entries with capacity " +
                              std::to_string(v.capacity));
    }
    if (v.hits > v.lookups) {
        report.fail(name, std::to_string(v.hits) + " hits out of " +
                              std::to_string(v.lookups) + " lookups");
    }
    std::unordered_set<Addr> prefixes;
    for (const auto &[prefix, lru] : v.entries) {
        if (!prefixes.insert(prefix).second) {
            report.fail(name, "duplicate prefix " +
                                  std::to_string(prefix));
        }
        if (lru > v.lru_stamp) {
            report.fail(name, "entry LRU stamp " + std::to_string(lru) +
                                  " ahead of the PSC clock " +
                                  std::to_string(v.lru_stamp));
        }
    }
}

}  // namespace

void
audit_walker(const PageWalker &walker, AuditReport &report)
{
    audit_psc(AuditAccess::walker_pml5(walker), "walker.psc_pml5",
              report);
    audit_psc(AuditAccess::walker_pml4(walker), "walker.psc_pml4",
              report);
    audit_psc(AuditAccess::walker_pdpte(walker), "walker.psc_pdpte",
              report);
    audit_psc(AuditAccess::walker_pde(walker), "walker.psc_pde", report);

    const std::size_t slots = AuditAccess::walker_slots(walker);
    const unsigned configured =
        AuditAccess::walker_configured_slots(walker);
    if (slots != std::max(1u, configured)) {
        report.fail("walker", "has " + std::to_string(slots) +
                                  " slots configured for " +
                                  std::to_string(configured) +
                                  " concurrent walks");
    }
}

// ---------------------------------------------------------------------------
// Update buffers / perceptron / thresholds
// ---------------------------------------------------------------------------

template <class AddrT>
void
audit_update_buffer(const UpdateBuffer<AddrT> &buffer,
                    const std::string &name, AuditReport &report)
{
    if (buffer.size() > buffer.capacity()) {
        report.fail(name, "occupancy " + std::to_string(buffer.size()) +
                              " exceeds capacity " +
                              std::to_string(buffer.capacity()));
    }
    const std::size_t fifo = AuditAccess::ub_fifo_size(buffer);
    const std::uint64_t stale = AuditAccess::ub_stale(buffer);
    if (fifo != buffer.size() + stale) {
        report.fail(name, "FIFO holds " + std::to_string(fifo) +
                              " slots for " +
                              std::to_string(buffer.size()) +
                              " live records and " +
                              std::to_string(stale) + " stale slots");
    }
    if (buffer.capacity() > 0 && fifo > 2 * buffer.capacity()) {
        report.fail(name, "FIFO grew to " + std::to_string(fifo) +
                              " slots, above the 2x-capacity compaction "
                              "bound");
    }
    for (const auto &[rec, seq] : AuditAccess::ub_records(buffer)) {
        (void)seq;
        if (rec.block != block_addr(rec.block)) {
            report.fail(name, "record key " +
                                  std::to_string(rec.block.raw()) +
                                  " is not block-aligned");
        }
        if (rec.num_features > DecisionRecordT<AddrT>::kMaxFeatures) {
            report.fail(name, "record claims " +
                                  std::to_string(rec.num_features) +
                                  " features (max " +
                                  std::to_string(
                                      DecisionRecordT<AddrT>::kMaxFeatures) +
                                  ")");
        }
    }
}

template void audit_update_buffer<VirtAddr>(const VirtUpdateBuffer &,
                                            const std::string &,
                                            AuditReport &);
template void audit_update_buffer<PhysAddr>(const PhysUpdateBuffer &,
                                            const std::string &,
                                            AuditReport &);

void
audit_threshold(const AdaptiveThreshold &threshold, AuditReport &report)
{
    const ThresholdConfig &cfg = threshold.config();
    const std::string name = "threshold";
    if (cfg.t_min > cfg.t_max) {
        report.fail(name, "t_min " + std::to_string(cfg.t_min) +
                              " above t_max " + std::to_string(cfg.t_max));
        return;
    }
    const int ta = threshold.threshold();
    if (cfg.adaptive) {
        if (ta < cfg.t_min || ta > cfg.t_max) {
            report.fail(name, "T_a = " + std::to_string(ta) +
                                  " escaped the clamp range [" +
                                  std::to_string(cfg.t_min) + ", " +
                                  std::to_string(cfg.t_max) + "]");
        }
    } else if (ta != cfg.t_static) {
        report.fail(name, "static threshold drifted to " +
                              std::to_string(ta) + " from " +
                              std::to_string(cfg.t_static));
    }
}

// ---------------------------------------------------------------------------
// Filter (MokaFilter) and the PCB <-> pUB cross-structure invariant
// ---------------------------------------------------------------------------

void
audit_filter(const PageCrossFilter &filter, AuditReport &report)
{
    const auto *moka = dynamic_cast<const MokaFilter *>(&filter);
    if (moka == nullptr) {
        return;  // non-perceptron policies carry no audited state
    }
    const MokaConfig &cfg = moka->config();
    const std::string &name = cfg.name;

    const std::size_t expected_tables =
        cfg.program_features.size() + cfg.specialized_features.size();
    const std::size_t ntables = AuditAccess::filter_num_tables(*moka);
    if (ntables != expected_tables) {
        report.fail(name, "holds " + std::to_string(ntables) +
                              " weight tables for " +
                              std::to_string(expected_tables) +
                              " features");
    }
    const std::size_t entries = AuditAccess::filter_table_entries(*moka);
    const auto [lo, hi] = AuditAccess::filter_weight_rails(*moka);
    for (std::size_t t = 0; t < ntables; ++t) {
        const std::string tname = name + ".wt" + std::to_string(t);
        for (std::size_t i = 0; i < entries; ++i) {
            const int w = AuditAccess::filter_weight(
                *moka, t, static_cast<std::uint32_t>(i));
            if (w < lo || w > hi) {
                report.fail(tname,
                            "weight[" + std::to_string(i) + "] = " +
                                std::to_string(w) + " outside the " +
                                std::to_string(cfg.weight_bits) +
                                "-bit rails [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
            }
        }
    }

    const auto &system = AuditAccess::filter_system(*moka);
    if (system.size() != cfg.system_features.size() || system.size() > 8) {
        report.fail(name, "holds " + std::to_string(system.size()) +
                              " system features for " +
                              std::to_string(cfg.system_features.size()) +
                              " configured (max 8)");
    }
    for (std::size_t i = 0; i < system.size(); ++i) {
        const SignedSatCounter &w = AuditAccess::system_weight(system[i]);
        if (w.value() < w.min() || w.value() > w.max()) {
            report.fail(name, "system weight " + std::to_string(i) +
                                  " = " + std::to_string(w.value()) +
                                  " outside its rails [" +
                                  std::to_string(w.min()) + ", " +
                                  std::to_string(w.max()) + "]");
        }
    }

    audit_update_buffer(AuditAccess::filter_vub(*moka), name + ".vUB",
                        report);
    audit_update_buffer(AuditAccess::filter_pub(*moka), name + ".pUB",
                        report);
    audit_threshold(AuditAccess::filter_thresholds(*moka), report);

    if (AuditAccess::filter_pending_valid(*moka)) {
        const VirtDecisionRecord &p = AuditAccess::filter_pending(*moka);
        if (p.block != block_addr(p.block)) {
            report.fail(name, "pending record key " +
                                  std::to_string(p.block.raw()) +
                                  " is not block-aligned");
        }
        if (p.num_features != ntables) {
            report.fail(name, "pending record carries " +
                                  std::to_string(p.num_features) +
                                  " feature indexes for " +
                                  std::to_string(ntables) +
                                  " weight tables");
        }
    }
}

void
audit_pcb_pub(const Cache &l1d, const PageCrossFilter &filter,
              AuditReport &report)
{
    const auto *moka = dynamic_cast<const MokaFilter *>(&filter);
    if (moka == nullptr || !l1d.config().track_pgc) {
        return;
    }
    const CacheConfig &cfg = l1d.config();
    const PhysUpdateBuffer &pub = AuditAccess::filter_pub(*moka);
    const std::string name = moka->config().name + ".pUB<->" + cfg.name;

    // Direction 1: every pUB record must describe a resident L1D block
    // that is a still-unused page-cross prefetch. The record is
    // inserted when the prefetch fills and removed on first use and on
    // eviction, so anything else is bookkeeping drift. Because the L1D
    // is physically tagged, matching a record against resident tags is
    // also the runtime cross-check that pUB keys live in the physical
    // address space (their virtual counterparts would be orphans).
    std::unordered_set<Addr> record_tags;
    for (const auto &[rec, seq] : AuditAccess::ub_records(pub)) {
        (void)seq;
        const Addr tag = block_number(rec.block);
        record_tags.insert(tag);
        const std::uint32_t set =
            static_cast<std::uint32_t>(tag & (cfg.sets - 1));
        bool matched = false;
        for (std::uint32_t way = 0; way < cfg.ways && !matched; ++way) {
            const AuditAccess::BlockView b =
                AuditAccess::cache_block(l1d, set, way);
            if (b.valid && b.tag == tag) {
                matched = true;
                if (!b.pgc || !b.prefetched || b.used) {
                    report.fail(name,
                                "pUB record for block " +
                                    std::to_string(rec.block.raw()) +
                                    " names a block that is not an "
                                    "unused page-cross prefetch");
                }
            }
        }
        if (!matched) {
            report.fail(name, "orphan pUB record for block " +
                                  std::to_string(rec.block.raw()) +
                                  " with no resident L1D block");
        }
    }

    // Direction 2: an unused PCB block with no pUB record is only
    // legal when its record was pushed out by pUB overflow; the
    // cumulative overflow count bounds how many such blocks can exist.
    std::uint64_t unmatched = 0;
    for (std::uint32_t set = 0; set < cfg.sets; ++set) {
        for (std::uint32_t way = 0; way < cfg.ways; ++way) {
            const AuditAccess::BlockView b =
                AuditAccess::cache_block(l1d, set, way);
            if (b.valid && b.pgc && b.prefetched && !b.used &&
                record_tags.count(b.tag) == 0) {
                ++unmatched;
            }
        }
    }
    if (unmatched > pub.overflow_evictions()) {
        report.fail(name,
                    std::to_string(unmatched) +
                        " unused PCB blocks lack pUB records but only " +
                        std::to_string(pub.overflow_evictions()) +
                        " records were ever lost to overflow");
    }
}

// ---------------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------------

void
audit_dram(const Dram &dram, AuditReport &report)
{
    const DramConfig &cfg = AuditAccess::dram_config(dram);
    const std::string name = "dram";

    const std::size_t banks = AuditAccess::dram_bank_count(dram);
    if (banks != static_cast<std::size_t>(cfg.channels) * cfg.banks) {
        report.fail(name, "holds " + std::to_string(banks) +
                              " banks for " + std::to_string(cfg.channels) +
                              " channels x " + std::to_string(cfg.banks) +
                              " banks");
    }
    if (AuditAccess::dram_channel_count(dram) != cfg.channels) {
        report.fail(name, "channel bookkeeping does not match " +
                              std::to_string(cfg.channels) + " channels");
    }

    const std::uint64_t rows = std::uint64_t{1} << cfg.rows_bits;
    for (std::size_t i = 0; i < banks; ++i) {
        const AuditAccess::BankView b = AuditAccess::dram_bank(dram, i);
        if (b.open_row != Dram::kNoOpenRow && b.open_row >= rows) {
            report.fail(name, "bank " + std::to_string(i) +
                                  " holds open row " +
                                  std::to_string(b.open_row) +
                                  " outside " + std::to_string(rows) +
                                  " addressable rows");
        }
    }
}

}  // namespace audit
}  // namespace moka
