/**
 * @file
 * Fig. 17 — Impact of L2C prefetching: geomean speedups of Berti +
 * {Permit PGC, DRIPPER} over Berti + Discard PGC when the baseline
 * uses different L2C prefetchers (none, SPP, IPCP, BOP).
 *
 * Paper shape: trends unchanged — Permit PGC below the baseline,
 * DRIPPER best regardless of L2C prefetcher; DRIPPER's margin is
 * slightly larger with no L2C prefetcher.
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
    const BenchArgs args = parse_bench_args(argc, argv);
    const std::vector<WorkloadSpec> roster = args.select(seen_workloads());
    const L1dPrefetcherKind k = L1dPrefetcherKind::kBerti;

    const L2PrefetcherKind l2s[] = {L2PrefetcherKind::kNone,
                                    L2PrefetcherKind::kSpp,
                                    L2PrefetcherKind::kIpcp,
                                    L2PrefetcherKind::kBop};
    const char *l2names[] = {"NoL2Pref", "SPP", "IPCP", "BOP"};
    const char *schemes[] = {"discard", "permit", "dripper"};

    // Columns 3i, 3i+1, 3i+2: Discard, Permit and DRIPPER with L2C
    // prefetcher i.
    std::vector<MatrixColumn> columns;
    for (std::size_t i = 0; i < 4; ++i) {
        for (const char *scheme : schemes) {
            if (l2s[i] == L2PrefetcherKind::kNone) {
                columns.push_back({scheme});  // the default: registry cell
                continue;
            }
            MachineConfig cfg = make_config(k, scheme_by_name(scheme, k));
            cfg.l2_prefetcher = l2s[i];
            columns.push_back(machine_column(
                std::string(scheme) + "+L2:" + l2names[i], cfg));
        }
    }
    const EngineReport report =
        run_matrix(make_matrix(roster, columns, args.run), args, columns);

    std::printf("== Fig. 17: L2C prefetcher sweep (Berti at L1D) ==\n\n");

    TablePrinter table({"L2C prefetcher", "Permit PGC", "DRIPPER"});
    table.print_header();
    for (std::size_t i = 0; i < 4; ++i) {
        table.print_row({l2names[i],
                         geomean_gain(report, roster, 3 * i + 1, 3 * i),
                         geomean_gain(report, roster, 3 * i + 2, 3 * i)});
    }
    std::printf("\nExpected: DRIPPER positive and best in every column; "
                "Permit PGC negative.\n");
    return matrix_exit_status(report);
}
