/**
 * @file
 * Fig. 13 — Distribution of useful and useless page-cross prefetches
 * per kilo-instruction for Permit PGC vs DRIPPER (Berti).
 *
 * Paper shape: the useful-PGC distributions of Permit and DRIPPER
 * nearly coincide (same hits), while DRIPPER's useless-PGC
 * distribution is concentrated at ~0 and Permit's reaches large
 * values.
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
        make_matrix(roster, {"permit", "dripper"}, {"berti"}, args.run),
        args);

    std::printf("== Fig. 13: useful/useless page-cross prefetches per "
                "kilo-instruction (Berti) ==\n");

    // Useful (or useless) page-cross prefetches per kilo-instruction
    // of column c (0: Permit PGC, 1: DRIPPER), one per workload.
    auto pki = [&](std::size_t c, bool useful) {
        std::vector<double> v;
        for (std::size_t w = 0; w < roster.size(); ++w) {
            const RunMetrics *m = cell_metrics(report, roster.size(), c, w);
            if (m != nullptr) {
                v.push_back(double(useful ? m->pgc_useful : m->pgc_useless) /
                            (double(m->instructions) / 1000.0));
            }
        }
        return v;
    };
    auto curve = [](const char *label, std::vector<double> v) {
        std::sort(v.begin(), v.end());
        std::printf("  %-22s:", label);
        for (double x : v) {
            std::printf(" %.2f", x);
        }
        std::printf("   (mean %.3f, p90 %.3f)\n", mean(v),
                    percentile(v, 90));
    };
    std::printf("\nsorted per-workload PKI values:\n");
    curve("useful PGC (Permit)", pki(0, true));
    curve("useful PGC (DRIPPER)", pki(1, true));
    curve("useless PGC (Permit)", pki(0, false));
    curve("useless PGC (DRIPPER)", pki(1, false));
    std::printf("\nExpected: useful distributions nearly identical; "
                "DRIPPER's useless PKI concentrated near zero.\n");
    return matrix_exit_status(report);
}
