/**
 * @file
 * Ablation — cache replacement policy. The paper evaluates LRU
 * (Table IV); this checks that DRIPPER's ordering over the static
 * schemes is robust to the L1D/L2/LLC replacement policy.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <cstdio>

#include "filter/policies.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    BenchArgs args = parse_bench_args(argc, argv);
    if (!args.full && args.workloads > 12) {
        args.workloads = 12;  // 3 policies x 3 schemes: keep it quick
    }
    const auto roster = args.select(seen_workloads());
    const L1dPrefetcherKind k = L1dPrefetcherKind::kBerti;

    const ReplacementKind kinds[] = {ReplacementKind::kLru,
                                     ReplacementKind::kSrrip,
                                     ReplacementKind::kRandom};
    const char *names[] = {"LRU", "SRRIP", "Random"};
    const char *schemes[] = {"discard", "permit", "dripper"};

    // Columns 3i, 3i+1, 3i+2: Discard, Permit and DRIPPER under
    // replacement policy i.
    std::vector<MatrixColumn> columns;
    for (std::size_t i = 0; i < 3; ++i) {
        for (const char *scheme : schemes) {
            if (kinds[i] == ReplacementKind::kLru) {
                columns.push_back({scheme});  // the default: registry cell
                continue;
            }
            MachineConfig cfg = make_config(k, scheme_by_name(scheme, k));
            cfg.l1d.replacement = kinds[i];
            cfg.l2.replacement = kinds[i];
            cfg.llc.replacement = kinds[i];
            columns.push_back(machine_column(
                std::string(scheme) + "+" + names[i], cfg));
        }
    }
    const EngineReport report =
        run_matrix(make_matrix(roster, columns, args.run), args, columns);

    std::printf("== Ablation: replacement policy (Berti) ==\n\n");

    TablePrinter table({"replacement", "Permit PGC", "DRIPPER"});
    table.print_header();
    for (std::size_t i = 0; i < 3; ++i) {
        table.print_row({names[i],
                         geomean_gain(report, roster, 3 * i + 1, 3 * i),
                         geomean_gain(report, roster, 3 * i + 2, 3 * i)});
    }
    std::printf("\nExpected: DRIPPER above Permit PGC in every row.\n");
    return matrix_exit_status(report);
}
