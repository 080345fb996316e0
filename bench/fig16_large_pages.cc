/**
 * @file
 * Fig. 16 — Evaluation with 4KB + 2MB pages (half the 2MB VA regions
 * are backed by large pages): Permit PGC, DRIPPER(filter@2MB) and
 * DRIPPER over Discard PGC (Berti).
 *
 * Paper shape: DRIPPER best (+2.2% over Permit... +1.3% over
 * Discard); DRIPPER beats DRIPPER(filter@2MB) by ~0.5% because
 * filtering at 4KB granularity still removes cache pollution inside
 * 2MB pages while 2MB-boundary crossings are too rare to filter.
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
        make_matrix(roster, {"discard", "permit", "dripper-2mb", "dripper"},
                    {"berti"}, args.run, 0.5),
        args);

    std::printf("== Fig. 16: 4KB + 2MB pages (50%% large-page regions), "
                "Berti ==\n\n");

    SuiteAggregator agg_permit, agg_d2m, agg_dripper;
    TablePrinter table({"workload", "Permit PGC", "DRIPPER@2MB",
                        "DRIPPER"});
    table.print_header();
    const std::size_t R = roster.size();
    for (std::size_t w = 0; w < R; ++w) {
        const RunMetrics *base = cell_metrics(report, R, 0, w);
        const RunMetrics *mp = cell_metrics(report, R, 1, w);
        const RunMetrics *m2 = cell_metrics(report, R, 2, w);
        const RunMetrics *md = cell_metrics(report, R, 3, w);
        if (base == nullptr || mp == nullptr || m2 == nullptr ||
            md == nullptr) {
            continue;
        }
        const WorkloadSpec &spec = roster[w];
        const double sp = speedup(*mp, *base);
        const double s2 = speedup(*m2, *base);
        const double sd = speedup(*md, *base);
        agg_permit.add(spec.suite, sp);
        agg_d2m.add(spec.suite, s2);
        agg_dripper.add(spec.suite, sd);
        table.print_row({spec.name, format_pct(sp - 1.0),
                         format_pct(s2 - 1.0), format_pct(sd - 1.0)});
    }
    std::printf("\nGEOMEAN: Permit %+.2f%%  DRIPPER@2MB %+.2f%%  "
                "DRIPPER %+.2f%%\n",
                (agg_permit.overall_geomean() - 1.0) * 100.0,
                (agg_d2m.overall_geomean() - 1.0) * 100.0,
                (agg_dripper.overall_geomean() - 1.0) * 100.0);
    std::printf("paper: DRIPPER +1.3%% over Discard, +2.2%% over Permit, "
                "+0.5%% over DRIPPER@2MB\n");
    return matrix_exit_status(report);
}
