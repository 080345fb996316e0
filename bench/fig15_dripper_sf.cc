/**
 * @file
 * Fig. 15 — DRIPPER vs DRIPPER-SF (system features only), over
 * Discard PGC (Berti). Shows the contribution of the program
 * feature.
 *
 * Paper shape: DRIPPER above DRIPPER-SF for most workloads, +0.9%
 * geomean.
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
        make_matrix(roster, {"discard", "dripper", "dripper-sf"}, {"berti"},
                    args.run),
        args);

    std::printf("== Fig. 15: DRIPPER vs DRIPPER-SF (Berti) ==\n\n");

    SuiteAggregator agg_full, agg_sf, agg_rel;
    TablePrinter table({"workload", "DRIPPER", "DRIPPER-SF", "full/SF"});
    table.print_header();
    const std::size_t R = roster.size();
    for (std::size_t w = 0; w < R; ++w) {
        const RunMetrics *base = cell_metrics(report, R, 0, w);
        const RunMetrics *mf = cell_metrics(report, R, 1, w);
        const RunMetrics *ms = cell_metrics(report, R, 2, w);
        if (base == nullptr || mf == nullptr || ms == nullptr) {
            continue;
        }
        const WorkloadSpec &spec = roster[w];
        const double sf = speedup(*mf, *base);
        const double ss = speedup(*ms, *base);
        agg_full.add(spec.suite, sf);
        agg_sf.add(spec.suite, ss);
        agg_rel.add(spec.suite, sf / ss);
        table.print_row({spec.name, format_pct(sf - 1.0),
                         format_pct(ss - 1.0), format_pct(sf / ss - 1.0)});
    }
    std::printf("\nGEOMEAN: DRIPPER %+.2f%%  DRIPPER-SF %+.2f%%  "
                "DRIPPER over DRIPPER-SF %+.2f%% (paper: +0.9%%)\n",
                (agg_full.overall_geomean() - 1.0) * 100.0,
                (agg_sf.overall_geomean() - 1.0) * 100.0,
                (agg_rel.overall_geomean() - 1.0) * 100.0);
    return matrix_exit_status(report);
}
