/**
 * @file
 * Ablation — epoch length of the adaptive thresholding scheme. Short
 * epochs react faster to phase changes but estimate accuracy on
 * fewer resolved prefetches; long epochs the reverse.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <algorithm>
#include <cstdio>

#include "filter/policies.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const auto roster = args.select(seen_workloads());
    const L1dPrefetcherKind k = L1dPrefetcherKind::kBerti;

    // Column 0 is the Discard baseline, column e + 1 epochs[e].
    const std::uint64_t epochs[] = {8'192, 32'768, 65'536, 262'144};
    std::vector<MatrixColumn> columns = {{"discard"}};
    for (const std::uint64_t epoch : epochs) {
        MachineConfig cfg = make_config(k, scheme_dripper(k));
        if (epoch == cfg.epoch_insts) {
            columns.push_back({"dripper"});  // the default: registry cell
            continue;
        }
        cfg.epoch_insts = epoch;
        cfg.interval_insts =
            std::min<std::uint64_t>(cfg.interval_insts, epoch / 2);
        columns.push_back(
            machine_column("dripper+epoch:" + std::to_string(epoch), cfg));
    }
    const EngineReport report =
        run_matrix(make_matrix(roster, columns, args.run), args, columns);

    std::printf("== Ablation: adaptive-scheme epoch length "
                "(Berti+DRIPPER) ==\n\n");

    TablePrinter table({"epoch insts", "geomean"});
    table.print_header();
    for (std::size_t e = 0; e < 4; ++e) {
        table.print_row({std::to_string(epochs[e]),
                         geomean_gain(report, roster, e + 1)});
    }
    return matrix_exit_status(report);
}
