/**
 * @file
 * Fig. 2 — Per-workload IPC gain of always permitting page-cross
 * prefetching (Permit PGC) over always discarding it (Discard PGC)
 * for Berti, BOP and IPCP.
 *
 * Paper shape: strongly bimodal — some workloads gain a lot (astar,
 * cc.road, MIS, vips, ...), others lose a lot (sphinx3, fotonik3d_s,
 * bc.web, ...); no static policy wins everywhere.
 *
 * Flags: --full --workloads N --insts N --warmup N --seed N. Cells run
 * through run_matrix: the engine and store flags apply.
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
    // Column 2k is prefetcher k's Discard baseline, 2k+1 its Permit.
    const EngineReport report = run_matrix(
        make_matrix(roster, {"discard", "permit"}, {"berti", "bop", "ipcp"},
                    args.run),
        args);
    const std::size_t R = roster.size();

    std::printf("== Fig. 2: IPC gain of Permit PGC over Discard PGC ==\n");
    const char *names[] = {"Berti", "BOP", "IPCP"};

    for (std::size_t k = 0; k < 3; ++k) {
        std::printf("\n--- %s ---\n", names[k]);
        TablePrinter table({"workload", "IPC gain", "pgc useful",
                            "pgc useless"});
        table.print_header();
        SuiteAggregator agg;
        unsigned gainers = 0, losers = 0;
        for (std::size_t w = 0; w < R; ++w) {
            const RunMetrics *base = cell_metrics(report, R, 2 * k, w);
            const RunMetrics *permit = cell_metrics(report, R, 2 * k + 1, w);
            if (base == nullptr || permit == nullptr) {
                continue;
            }
            const double s = speedup(*permit, *base);
            agg.add(roster[w].suite, s);
            if (s > 1.005) ++gainers;
            if (s < 0.995) ++losers;
            table.print_row({roster[w].name, format_pct(s - 1.0),
                             std::to_string(permit->pgc_useful),
                             std::to_string(permit->pgc_useless)});
        }
        std::printf("%s geomean Permit/Discard: %+.2f%%  "
                    "(gainers: %u, losers: %u of %zu)\n",
                    names[k], (agg.overall_geomean() - 1.0) * 100.0,
                    gainers, losers, roster.size());
    }
    std::printf("\nTakeaway check (paper): both gainers and losers exist "
                "for every prefetcher;\nno static policy dominates.\n");
    return matrix_exit_status(report);
}
