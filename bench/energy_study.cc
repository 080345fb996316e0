/**
 * @file
 * Energy study — quantifies the paper's dynamic-energy claim: each
 * useless page-cross prefetch spends up to 4 page-walk references
 * plus one fill's worth of cache/DRAM energy for nothing. Compares
 * memory-side energy per kilo-instruction of Discard PGC, Permit PGC
 * and DRIPPER (Berti).
 *
 * Expected: Permit PGC pays an energy premium on PGC-hostile
 * workloads; DRIPPER stays near the cheaper of the two statics.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <cstdio>

#include "common/stats.h"
#include "sim/energy.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const auto roster = args.select(seen_workloads());
    const EngineReport report = run_matrix(
        make_matrix(roster, {"discard", "permit", "dripper"}, {"berti"},
                    args.run),
        args);

    std::printf("== Energy: memory-side nJ per kilo-instruction "
                "(Berti) ==\n\n");

    TablePrinter table({"workload", "Discard", "Permit", "DRIPPER",
                        "Permit ov%", "DRIPPER ov%"});
    table.print_header();
    double sum_p = 0.0, sum_d = 0.0;
    std::size_t n = 0;
    const std::size_t R = roster.size();
    for (std::size_t w = 0; w < R; ++w) {
        const RunMetrics *mb = cell_metrics(report, R, 0, w);
        const RunMetrics *mp = cell_metrics(report, R, 1, w);
        const RunMetrics *md = cell_metrics(report, R, 2, w);
        if (mb == nullptr || mp == nullptr || md == nullptr) {
            continue;
        }
        const double eb = estimate_energy(*mb).nj_per_kilo_inst;
        const double ep = estimate_energy(*mp).nj_per_kilo_inst;
        const double ed = estimate_energy(*md).nj_per_kilo_inst;
        if (eb <= 0.0) {
            continue;
        }
        sum_p += ep / eb;
        sum_d += ed / eb;
        ++n;
        char b[24], p[24], d[24];
        std::snprintf(b, sizeof(b), "%.1f", eb);
        std::snprintf(p, sizeof(p), "%.1f", ep);
        std::snprintf(d, sizeof(d), "%.1f", ed);
        table.print_row({roster[w].name, b, p, d, format_pct(ep / eb - 1.0),
                         format_pct(ed / eb - 1.0)});
    }
    if (n > 0) {
        std::printf("\nmean energy overhead vs Discard PGC: Permit "
                    "%+.2f%%  DRIPPER %+.2f%%\n",
                    (sum_p / double(n) - 1.0) * 100.0,
                    (sum_d / double(n) - 1.0) * 100.0);
    }
    std::printf("Expected: DRIPPER's overhead well below Permit PGC's "
                "(useless walks + fills filtered).\n");
    return matrix_exit_status(report);
}
