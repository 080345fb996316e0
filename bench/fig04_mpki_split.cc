/**
 * @file
 * Fig. 4 — Impact of Permit PGC on dTLB/sTLB/L1D/LLC MPKI over
 * Discard PGC (Berti), with workloads split by which static policy
 * wins.
 *
 * Paper shape: (a) where Permit wins, dTLB and L1D MPKI drop
 * substantially (dTLB more than sTLB, L1D feeding into LLC);
 * (b) where Discard wins, all four MPKIs increase.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
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
        make_matrix(roster, {"discard", "permit"}, {"berti"}, args.run),
        args);

    std::printf("== Fig. 4: MPKI impact of Permit PGC over Discard PGC "
                "(Berti), split by winner ==\n");

    struct Row
    {
        std::string name;
        double speedup;
        double d_dtlb, d_stlb, d_l1d, d_llc;  // MPKI deltas (permit-base)
    };
    std::vector<Row> wins, losses;

    const std::size_t R = roster.size();
    for (std::size_t w = 0; w < R; ++w) {
        const RunMetrics *bp = cell_metrics(report, R, 0, w);
        const RunMetrics *pp = cell_metrics(report, R, 1, w);
        if (bp == nullptr || pp == nullptr) {
            continue;
        }
        const RunMetrics &base = *bp, &permit = *pp;
        Row r;
        r.name = roster[w].name;
        r.speedup = speedup(permit, base);
        r.d_dtlb = permit.dtlb_mpki() - base.dtlb_mpki();
        r.d_stlb = permit.stlb_mpki() - base.stlb_mpki();
        r.d_l1d = permit.l1d_mpki() - base.l1d_mpki();
        r.d_llc = permit.llc_mpki() - base.llc_mpki();
        (r.speedup >= 1.0 ? wins : losses).push_back(r);
    }

    auto print_group = [](const char *title, const std::vector<Row> &rows) {
        std::printf("\n--- %s (%zu workloads) ---\n", title, rows.size());
        TablePrinter table({"workload", "speedup", "dDTLB", "dSTLB",
                            "dL1D", "dLLC"});
        table.print_header();
        double s_dtlb = 0, s_stlb = 0, s_l1d = 0, s_llc = 0;
        for (const Row &r : rows) {
            char a[32], b[32], c[32], d[32];
            std::snprintf(a, sizeof(a), "%+.2f", r.d_dtlb);
            std::snprintf(b, sizeof(b), "%+.2f", r.d_stlb);
            std::snprintf(c, sizeof(c), "%+.2f", r.d_l1d);
            std::snprintf(d, sizeof(d), "%+.2f", r.d_llc);
            table.print_row({r.name, format_pct(r.speedup - 1.0), a, b, c, d});
            s_dtlb += r.d_dtlb;
            s_stlb += r.d_stlb;
            s_l1d += r.d_l1d;
            s_llc += r.d_llc;
        }
        const double n = rows.empty() ? 1.0 : double(rows.size());
        std::printf("mean MPKI delta: dTLB %+.2f  sTLB %+.2f  L1D %+.2f  "
                    "LLC %+.2f\n",
                    s_dtlb / n, s_stlb / n, s_l1d / n, s_llc / n);
    };

    print_group("Fig. 4a: Permit PGC wins", wins);
    print_group("Fig. 4b: Discard PGC wins", losses);
    std::printf("\nExpected: group (a) shows MPKI reductions "
                "(dTLB > sTLB, L1D -> LLC);\ngroup (b) shows MPKI "
                "increases across the board.\n");
    return matrix_exit_status(report);
}
