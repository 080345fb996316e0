/**
 * @file
 * Fig. 14 — DRIPPER vs the three single-feature page-cross filters
 * built from its constituents (Delta, sTLB MPKI, sTLB Miss Rate),
 * over Discard PGC (Berti).
 *
 * Paper shape: DRIPPER above each single-feature filter for the vast
 * majority of workloads — it combines their benefits.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <algorithm>
#include <cstdio>

#include "filter/policies.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const std::vector<WorkloadSpec> roster = args.select(seen_workloads());
    const L1dPrefetcherKind k = L1dPrefetcherKind::kBerti;

    const SchemeConfig schemes[] = {
        scheme_single_program(ProgramFeatureId::kDelta),
        scheme_single_system(SystemFeatureId::kStlbMpki),
        scheme_single_system(SystemFeatureId::kStlbMissRate),
        scheme_dripper(k),
    };
    // Column 0 is the Discard baseline, column s + 1 schemes[s].
    std::vector<MatrixColumn> columns = {{"discard"}};
    for (std::size_t s = 0; s < 3; ++s) {
        columns.push_back(
            machine_column(schemes[s].name, make_config(k, schemes[s])));
    }
    columns.push_back({"dripper"});
    const EngineReport report =
        run_matrix(make_matrix(roster, columns, args.run), args, columns);

    std::printf("== Fig. 14: DRIPPER vs its constituent single-feature "
                "filters (Berti) ==\n\n");

    for (std::size_t s = 0; s < 4; ++s) {
        const SuiteAggregator agg = column_speedups(report, roster, s + 1);
        std::vector<double> v = agg.ratios();
        std::sort(v.begin(), v.end());
        std::printf("%-22s geomean %+.2f%%  S-curve:",
                    schemes[s].name.c_str(),
                    (agg.overall_geomean() - 1.0) * 100.0);
        for (double x : v) {
            std::printf(" %+.1f", (x - 1.0) * 100.0);
        }
        std::printf("\n");
    }
    std::printf("\nExpected: DRIPPER's geomean above every "
                "single-feature filter.\n");
    return matrix_exit_status(report);
}
