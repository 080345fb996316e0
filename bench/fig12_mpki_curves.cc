/**
 * @file
 * Fig. 12 — dTLB/sTLB/L1D/LLC MPKI impact of Permit PGC and DRIPPER
 * over Discard PGC (Berti), printed as sorted per-workload delta
 * curves plus the average absolute reductions.
 *
 * Paper shape: DRIPPER reduces all four MPKIs for most workloads
 * (avg absolute reductions ~0.6 dTLB / 0.1 sTLB / 2.1 L1D / 0.2
 * LLC); Permit PGC reduces them for some workloads and inflates them
 * for others.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <algorithm>
#include <cstdio>

#include "common/stats.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const std::vector<WorkloadSpec> roster = args.select(seen_workloads());
    const EngineReport report = run_matrix(
        make_matrix(roster, {"discard", "permit", "dripper"}, {"berti"},
                    args.run),
        args);

    std::printf("== Fig. 12: MPKI deltas over Discard PGC (Berti) ==\n");

    auto curve = [](const char *label, std::vector<double> v) {
        std::sort(v.begin(), v.end());
        std::printf("  %-16s:", label);
        for (double x : v) {
            std::printf(" %+.2f", x);
        }
        std::printf("   (mean %+.3f)\n", mean(v));
    };
    // Sorted per-workload MPKI deltas of column c over Discard PGC.
    auto curves = [&](std::size_t c) {
        std::vector<double> dtlb, stlb, l1d, llc;
        const std::size_t R = roster.size();
        for (std::size_t w = 0; w < R; ++w) {
            const RunMetrics *base = cell_metrics(report, R, 0, w);
            const RunMetrics *m = cell_metrics(report, R, c, w);
            if (base != nullptr && m != nullptr) {
                dtlb.push_back(m->dtlb_mpki() - base->dtlb_mpki());
                stlb.push_back(m->stlb_mpki() - base->stlb_mpki());
                l1d.push_back(m->l1d_mpki() - base->l1d_mpki());
                llc.push_back(m->llc_mpki() - base->llc_mpki());
            }
        }
        curve("dTLB", dtlb);
        curve("sTLB", stlb);
        curve("L1D", l1d);
        curve("LLC", llc);
    };
    std::printf("\nPermit PGC (sorted per-workload MPKI delta; lower is "
                "better):\n");
    curves(1);
    std::printf("\nDRIPPER:\n");
    curves(2);
    std::printf("\npaper average DRIPPER reductions: dTLB 0.6, sTLB 0.1, "
                "L1D 2.1, LLC 0.2 (absolute MPKI)\n");
    return matrix_exit_status(report);
}
