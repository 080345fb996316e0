/**
 * @file
 * Fig. 11 — Miss coverage (top) and prefetch accuracy (bottom) of
 * Berti with Permit PGC vs DRIPPER, relative to Discard PGC, per
 * suite. Coverage/accuracy consider all prefetches (in-page +
 * page-cross).
 *
 * Paper shape: DRIPPER matches Permit PGC's coverage gains (avg
 * +4.1% vs +4.2%) while *increasing* accuracy (+1.2%) where Permit
 * PGC loses accuracy (-2.6%).
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <cstdio>

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

    std::printf("== Fig. 11: coverage (top) and accuracy (bottom), "
                "Berti ==\n\n");

    struct SuiteAcc
    {
        double cov_permit = 0, cov_dripper = 0;
        double acc_base = 0, acc_permit = 0, acc_dripper = 0;
        unsigned n = 0;
    };
    std::map<std::string, SuiteAcc> by_suite;
    std::vector<std::string> order;

    const std::size_t R = roster.size();
    for (std::size_t w = 0; w < R; ++w) {
        const RunMetrics *bp = cell_metrics(report, R, 0, w);
        const RunMetrics *pp = cell_metrics(report, R, 1, w);
        const RunMetrics *dp = cell_metrics(report, R, 2, w);
        if (bp == nullptr || pp == nullptr || dp == nullptr) {
            continue;
        }
        const RunMetrics &base = *bp, &permit = *pp, &dripper = *dp;
        auto [it, inserted] = by_suite.try_emplace(roster[w].suite);
        if (inserted) {
            order.push_back(roster[w].suite);
        }
        SuiteAcc &a = it->second;
        a.cov_permit += coverage_gain(permit, base);
        a.cov_dripper += coverage_gain(dripper, base);
        a.acc_base += base.pf_accuracy();
        a.acc_permit += permit.pf_accuracy();
        a.acc_dripper += dripper.pf_accuracy();
        ++a.n;
    }

    TablePrinter table({"suite", "cov Permit", "cov DRIPPER",
                        "acc Discard", "acc Permit", "acc DRIPPER"});
    table.print_header();
    SuiteAcc total;
    for (const std::string &suite : order) {
        const SuiteAcc &a = by_suite[suite];
        const double n = a.n;
        char c1[32], c2[32], a0[32], a1[32], a2[32];
        std::snprintf(c1, sizeof(c1), "%+.2f%%", 100.0 * a.cov_permit / n);
        std::snprintf(c2, sizeof(c2), "%+.2f%%", 100.0 * a.cov_dripper / n);
        std::snprintf(a0, sizeof(a0), "%.1f%%", 100.0 * a.acc_base / n);
        std::snprintf(a1, sizeof(a1), "%.1f%%", 100.0 * a.acc_permit / n);
        std::snprintf(a2, sizeof(a2), "%.1f%%", 100.0 * a.acc_dripper / n);
        table.print_row({suite, c1, c2, a0, a1, a2});
        total.cov_permit += a.cov_permit;
        total.cov_dripper += a.cov_dripper;
        total.acc_base += a.acc_base;
        total.acc_permit += a.acc_permit;
        total.acc_dripper += a.acc_dripper;
        total.n += a.n;
    }
    const double n = total.n;
    std::printf("\nAVERAGE coverage gain: Permit %+.2f%%  DRIPPER %+.2f%% "
                "(paper: +4.2%% / +4.1%%)\n",
                100.0 * total.cov_permit / n, 100.0 * total.cov_dripper / n);
    std::printf("AVERAGE accuracy delta vs Discard: Permit %+.2f%%  "
                "DRIPPER %+.2f%% (paper: -2.6%% / +1.2%%)\n",
                100.0 * (total.acc_permit - total.acc_base) / n,
                100.0 * (total.acc_dripper - total.acc_base) / n);
    return matrix_exit_status(report);
}
