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
 * Runs through the job engine (--jobs, plus --shard-dir/--lease-ttl:
 * a rerun over the same --shard-dir resumes, and processes sharing
 * one split the matrix); workloads whose jobs failed are dropped from
 * the curves and reported on stderr.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const std::vector<WorkloadSpec> roster = args.select(seen_workloads());

    const std::vector<std::string> schemes = {"discard", "permit",
                                              "dripper"};
    const std::vector<JobSpec> matrix =
        make_matrix(roster, schemes, {"berti"}, args.run);
    const EngineReport report = run_matrix(matrix, args);
    if (!report.all_completed()) {
        std::fputs(report.summary().c_str(), stderr);
    }

    std::printf("== Fig. 10: Berti + {Permit PGC, DRIPPER} over "
                "Berti + Discard PGC ==\n");

    const std::size_t S = schemes.size();
    const std::size_t R = roster.size();
    std::vector<double> permit_s, dripper_s;
    SuiteAggregator agg_permit, agg_dripper;
    for (std::size_t w = 0; w < R; ++w) {
        const double base = matrix_ipc(report, S, R, 0, 0, w);
        const double permit = matrix_ipc(report, S, R, 0, 1, w);
        const double dripper = matrix_ipc(report, S, R, 0, 2, w);
        if (std::isnan(base) || std::isnan(permit) ||
            std::isnan(dripper) || base <= 0.0) {
            continue;  // failed job: drop the workload, keep the curve
        }
        permit_s.push_back(permit / base);
        dripper_s.push_back(dripper / base);
        agg_permit.add(roster[w].suite, permit_s.back());
        agg_dripper.add(roster[w].suite, dripper_s.back());
    }

    auto print_curve = [](const char *label, std::vector<double> s) {
        std::sort(s.begin(), s.end());
        std::printf("%-10s S-curve:", label);
        for (double v : s) {
            std::printf(" %+.1f", (v - 1.0) * 100.0);
        }
        std::printf("\n");
    };
    std::printf("\n(top) sorted per-workload speedups [%%]:\n");
    print_curve("Permit", permit_s);
    print_curve("DRIPPER", dripper_s);

    std::printf("\n(bottom) per-suite geomean speedups over Discard "
                "PGC:\n");
    TablePrinter table({"suite", "Permit PGC", "DRIPPER"});
    table.print_header();
    for (const std::string &suite : agg_permit.suites()) {
        char p[32], d[32];
        std::snprintf(p, sizeof(p), "%+.2f%%",
                      (agg_permit.suite_geomean(suite) - 1.0) * 100.0);
        std::snprintf(d, sizeof(d), "%+.2f%%",
                      (agg_dripper.suite_geomean(suite) - 1.0) * 100.0);
        table.print_row({suite, p, d});
    }
    const double gp = agg_permit.overall_geomean();
    const double gd = agg_dripper.overall_geomean();
    std::printf("\nGEOMEAN  Permit %+.2f%%  DRIPPER %+.2f%%  "
                "(DRIPPER over Permit: %+.2f%%)\n",
                (gp - 1.0) * 100.0, (gd - 1.0) * 100.0,
                (gd / gp - 1.0) * 100.0);
    std::printf("paper: DRIPPER +1.7%% over Discard, +2.5%% over "
                "Permit\n");
    return report.all_completed() ? 0 : 1;
}
