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

    // Scheme 0 is the Discard PGC baseline every column normalizes to.
    const std::vector<std::string> schemes = {
        "discard", "permit", "discard-ptw", "iso",
        "ppf",     "ppf-dthr", "dripper"};
    const char *labels[] = {"Discard PGC", "Permit PGC", "Discard PTW",
                            "ISO Storage", "PPF",        "PPF+Dthr",
                            "DRIPPER"};
    const std::vector<std::string> pfs = {"berti", "bop", "ipcp"};
    const char *names[] = {"Berti", "BOP", "IPCP"};

    const EngineReport report =
        run_matrix(make_matrix(roster, schemes, pfs, args.run), args);

    std::printf("== Fig. 9: scheme comparison, geomean speedup over "
                "Discard PGC ==\n\n");

    TablePrinter table({"scheme", "Berti", "BOP", "IPCP"});
    table.print_header();

    const std::size_t S = schemes.size();
    double dripper_geo[3] = {0, 0, 0};
    double ppf_geo[3] = {0, 0, 0};
    for (std::size_t s = 1; s < S; ++s) {
        std::vector<std::string> cells = {labels[s]};
        for (std::size_t p = 0; p < pfs.size(); ++p) {
            const double g =
                column_speedups(report, roster, p * S + s, p * S)
                    .overall_geomean();
            if (schemes[s] == "dripper") {
                dripper_geo[p] = g;
            }
            if (schemes[s] == "ppf") {
                ppf_geo[p] = g;
            }
            cells.push_back(format_pct(g - 1.0));
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
    return matrix_exit_status(report);
}
