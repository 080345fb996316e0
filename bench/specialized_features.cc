/**
 * @file
 * Extension study (paper §III-D1): DRIPPER vs DRIPPER augmented with
 * prefetcher-specialized features over the exported metadata word
 * (Berti's timeliness count / IPCP's class / BOP's best score).
 *
 * Paper hypothesis: "crafting specialized features that exploit
 * metadata of specific prefetchers has the potential to further
 * improve the effectiveness of a Page-Cross Filter."
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
    const auto roster = args.select(seen_workloads());
    // Columns 3k, 3k+1, 3k+2: prefetcher k's Discard, DRIPPER and
    // DRIPPER+Meta.
    const EngineReport report = run_matrix(
        make_matrix(roster, {"discard", "dripper", "dripper-meta"},
                    {"berti", "bop", "ipcp"}, args.run),
        args);

    std::printf("== Extension: prefetcher-specialized features ==\n\n");

    const char *names[] = {"Berti", "BOP", "IPCP"};

    TablePrinter table({"prefetcher", "DRIPPER", "DRIPPER+Meta"});
    table.print_header();
    for (std::size_t k = 0; k < 3; ++k) {
        table.print_row({names[k],
                         geomean_gain(report, roster, 3 * k + 1, 3 * k),
                         geomean_gain(report, roster, 3 * k + 2, 3 * k)});
    }
    std::printf("\nNote: the specialized variant costs two extra weight "
                "tables (~1.28KB).\n");
    return matrix_exit_status(report);
}
