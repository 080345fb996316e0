/**
 * @file
 * Table V — Geomean speedups of Berti + {Permit PGC, DRIPPER} over
 * Berti + Discard PGC across seen, unseen, and all (seen + unseen +
 * non-intensive) workloads.
 *
 * Paper values: Permit -0.8% / -0.9% / -0.6%; DRIPPER +1.7% / +1.2%
 * / +0.4% — DRIPPER helps intensive workloads without hurting the
 * non-intensive ones.
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

    // One matrix over the three rosters. `parts` is the same roster
    // with each suite renamed after its roster, so the speedups
    // aggregate by roster. sample(..., 0) means the whole roster, so
    // the non-intensive sample asks for at least one.
    const std::pair<const char *, std::vector<WorkloadSpec>> rosters[] = {
        {"seen", args.select(seen_workloads())},
        {"unseen", args.select(unseen_workloads())},
        {"non-intensive",
         args.full ? non_intensive_workloads()
                   : sample(non_intensive_workloads(),
                            std::max<std::size_t>(1, args.workloads / 2))},
    };
    std::vector<WorkloadSpec> roster, parts;
    for (const auto &[part, specs] : rosters) {
        for (WorkloadSpec spec : specs) {
            roster.push_back(spec);
            spec.suite = part;
            parts.push_back(spec);
        }
    }
    const EngineReport report = run_matrix(
        make_matrix(roster, {"discard", "permit", "dripper"}, {"berti"},
                    args.run),
        args);
    const SuiteAggregator permit = column_speedups(report, parts, 1);
    const SuiteAggregator dripper = column_speedups(report, parts, 2);

    std::printf("== Table V: seen / unseen / all (incl. non-intensive), "
                "Berti ==\n\n");

    // "All" pools every per-workload ratio.
    TablePrinter table({"scheme", "Seen", "Unseen", "All"});
    table.print_header();
    for (const auto &[label, agg] : {std::pair{"Berti+Permit PGC", &permit},
                                     std::pair{"Berti+DRIPPER", &dripper}}) {
        table.print_row({label, format_pct(agg->suite_geomean("seen") - 1.0),
                         format_pct(agg->suite_geomean("unseen") - 1.0),
                         format_pct(geomean(agg->ratios()) - 1.0)});
    }

    std::printf("\nnon-intensive only: Permit %+.2f%%  DRIPPER %+.2f%% "
                "(expected: both ~0, DRIPPER not harmful)\n",
                (permit.suite_geomean("non-intensive") - 1.0) * 100.0,
                (dripper.suite_geomean("non-intensive") - 1.0) * 100.0);
    std::printf("paper: Permit -0.8/-0.9/-0.6%%  DRIPPER "
                "+1.7/+1.2/+0.4%%\n");
    return matrix_exit_status(report);
}
