/**
 * @file
 * Fig. 18 — Unseen workloads: per-workload speedups of Berti +
 * {Permit PGC, DRIPPER} over Berti + Discard PGC across the roster
 * that was *not* used to design DRIPPER.
 *
 * Paper shape: same trends as the seen set — DRIPPER +1.2% over
 * Discard and +2.1% over Permit in geomean.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <algorithm>
#include <cstdio>

#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const std::vector<WorkloadSpec> roster =
        args.select(unseen_workloads());
    const EngineReport report = run_matrix(
        make_matrix(roster, {"discard", "permit", "dripper"}, {"berti"},
                    args.run),
        args);

    std::printf("== Fig. 18: unseen workloads (Berti) ==\n\n");

    const SuiteAggregator agg_permit = column_speedups(report, roster, 1);
    const SuiteAggregator agg_dripper = column_speedups(report, roster, 2);
    auto curve = [](const char *label, std::vector<double> v) {
        std::sort(v.begin(), v.end());
        std::printf("%-10s S-curve:", label);
        for (double x : v) {
            std::printf(" %+.1f", (x - 1.0) * 100.0);
        }
        std::printf("\n");
    };
    curve("Permit", agg_permit.ratios());
    curve("DRIPPER", agg_dripper.ratios());
    const double gp = agg_permit.overall_geomean();
    const double gd = agg_dripper.overall_geomean();
    std::printf("\nGEOMEAN (unseen): Permit %+.2f%%  DRIPPER %+.2f%%  "
                "DRIPPER over Permit %+.2f%%\n",
                (gp - 1.0) * 100.0, (gd - 1.0) * 100.0,
                (gd / gp - 1.0) * 100.0);
    std::printf("paper: DRIPPER +1.2%% over Discard, +2.1%% over "
                "Permit\n");
    return matrix_exit_status(report);
}
