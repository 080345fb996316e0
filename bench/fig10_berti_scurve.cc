/**
 * @file
 * Fig. 10 — Berti case study: per-workload speedups of Permit PGC and
 * DRIPPER over Discard PGC (top, printed as sorted S-curves) and the
 * per-suite geomean breakdown (bottom).
 *
 * Paper shape: DRIPPER above both statics for the vast majority of
 * workloads; geomean +2.5% over Permit and +1.7% over Discard; GAP
 * shows the largest suite gains; a short negative tail exists for
 * QMM workloads.
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

    std::printf("== Fig. 10: Berti + {Permit PGC, DRIPPER} over "
                "Berti + Discard PGC ==\n");

    const SuiteAggregator agg_permit = column_speedups(report, roster, 1);
    const SuiteAggregator agg_dripper = column_speedups(report, roster, 2);
    auto print_curve = [](const char *label, std::vector<double> s) {
        std::sort(s.begin(), s.end());
        std::printf("%-10s S-curve:", label);
        for (double v : s) {
            std::printf(" %+.1f", (v - 1.0) * 100.0);
        }
        std::printf("\n");
    };
    std::printf("\n(top) sorted per-workload speedups [%%]:\n");
    print_curve("Permit", agg_permit.ratios());
    print_curve("DRIPPER", agg_dripper.ratios());

    std::printf("\n(bottom) per-suite geomean speedups over Discard "
                "PGC:\n");
    TablePrinter table({"suite", "Permit PGC", "DRIPPER"});
    table.print_header();
    for (const std::string &suite : agg_permit.suites()) {
        table.print_row({suite,
                         format_pct(agg_permit.suite_geomean(suite) - 1.0),
                         format_pct(agg_dripper.suite_geomean(suite) - 1.0)});
    }
    const double gp = agg_permit.overall_geomean();
    const double gd = agg_dripper.overall_geomean();
    std::printf("\nGEOMEAN  Permit %+.2f%%  DRIPPER %+.2f%%  "
                "(DRIPPER over Permit: %+.2f%%)\n",
                (gp - 1.0) * 100.0, (gd - 1.0) * 100.0,
                (gd / gp - 1.0) * 100.0);
    std::printf("paper: DRIPPER +1.7%% over Discard, +2.5%% over "
                "Permit\n");
    return matrix_exit_status(report);
}
