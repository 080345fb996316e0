/**
 * @file
 * Fig. 9 — Geomean IPC speedup over Discard PGC of every page-cross
 * scheme (Permit PGC, Discard PTW, ISO Storage, PPF, PPF+Dthr,
 * DRIPPER) for Berti, BOP and IPCP.
 *
 * Paper shape: Discard PGC > Permit PGC in geomean; Discard PTW sits
 * between them; ISO Storage ~ Permit PGC; PPF/PPF+Dthr do not beat
 * the Discard baseline; DRIPPER is the best for every prefetcher
 * (e.g. +1.7% over Permit... see Fig. 10 for Berti detail), beating
 * PPF by 2.4%/1.4%/1.6% on Berti/BOP/IPCP.
 *
 * Runs the full (workload, scheme, prefetcher) matrix through the job
 * engine; accepts --jobs/--fail-fast and --shard-dir/--lease-ttl: a
 * rerun over the same --shard-dir resumes, and processes sharing one
 * split the matrix, each printing the whole figure. Failed jobs are
 * dropped from the aggregates and reported on stderr.
 */
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

    // Scheme 0 is the Discard PGC baseline every column normalizes to.
    const std::vector<std::string> schemes = {
        "discard", "permit", "discard-ptw", "iso",
        "ppf",     "ppf-dthr", "dripper"};
    const char *labels[] = {"Discard PGC", "Permit PGC", "Discard PTW",
                            "ISO Storage", "PPF",        "PPF+Dthr",
                            "DRIPPER"};
    const std::vector<std::string> pfs = {"berti", "bop", "ipcp"};
    const char *names[] = {"Berti", "BOP", "IPCP"};

    const std::vector<JobSpec> matrix =
        make_matrix(roster, schemes, pfs, args.run);
    const EngineReport report = run_matrix(matrix, args);
    if (!report.all_completed()) {
        std::fputs(report.summary().c_str(), stderr);
    }

    std::printf("== Fig. 9: scheme comparison, geomean speedup over "
                "Discard PGC ==\n\n");

    TablePrinter table({"scheme", "Berti", "BOP", "IPCP"});
    table.print_header();

    const std::size_t S = schemes.size();
    const std::size_t R = roster.size();
    double dripper_geo[3] = {0, 0, 0};
    double ppf_geo[3] = {0, 0, 0};
    for (std::size_t s = 1; s < S; ++s) {
        std::vector<std::string> cells = {labels[s]};
        for (std::size_t p = 0; p < pfs.size(); ++p) {
            SuiteAggregator agg;
            for (std::size_t w = 0; w < R; ++w) {
                const double base = matrix_ipc(report, S, R, p, 0, w);
                const double ipc = matrix_ipc(report, S, R, p, s, w);
                if (std::isnan(base) || std::isnan(ipc) || base <= 0.0) {
                    continue;  // failed job: degrade to partial geomean
                }
                agg.add(roster[w].suite, ipc / base);
            }
            const double g = agg.overall_geomean();
            if (schemes[s] == "dripper") {
                dripper_geo[p] = g;
            }
            if (schemes[s] == "ppf") {
                ppf_geo[p] = g;
            }
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%+.2f%%", (g - 1.0) * 100.0);
            cells.push_back(buf);
        }
        table.print_row(cells);
    }

    std::printf("\nDRIPPER over PPF: ");
    for (std::size_t p = 0; p < pfs.size(); ++p) {
        if (ppf_geo[p] > 0.0) {
            std::printf("%s %+.2f%%  ", names[p],
                        (dripper_geo[p] / ppf_geo[p] - 1.0) * 100.0);
        }
    }
    std::printf("(paper: +2.4%% / +1.4%% / +1.6%%)\n");
    return report.all_completed() ? 0 : 1;
}
