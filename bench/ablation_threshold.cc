/**
 * @file
 * Ablation — the adaptive thresholding scheme (paper §III-C3). Runs
 * DRIPPER with several static activation thresholds against the
 * full adaptive scheme.
 *
 * Expected: no single static T_a matches the adaptive scheme across
 * the roster (the paper's argument for epoch-based adaptation).
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <algorithm>
#include <cstdio>

#include "common/stats.h"
#include "filter/policies.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

namespace {

SchemeConfig
dripper_static(int t_static)
{
    SchemeConfig s;
    s.name = "DRIPPER@T=" + std::to_string(t_static);
    s.policy = PgcPolicy::kFilter;
    s.make_filter = [t_static] {
        MokaConfig cfg = dripper_config(L1dPrefetcherKind::kBerti);
        cfg.name = "static";
        cfg.threshold.adaptive = false;
        cfg.threshold.t_static = t_static;
        return std::make_unique<MokaFilter>(cfg);
    };
    return s;
}

}  // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const auto roster = args.select(seen_workloads());
    const L1dPrefetcherKind k = L1dPrefetcherKind::kBerti;

    // Column 0 is the Discard baseline, column s + 1 the s-th row.
    std::vector<std::string> labels;
    std::vector<MatrixColumn> columns = {{"discard"}};
    for (int t : {-4, -2, 0, 3, 6, 10}) {
        const SchemeConfig scheme = dripper_static(t);
        labels.push_back(scheme.name);
        columns.push_back(
            machine_column(scheme.name, make_config(k, scheme)));
    }
    labels.push_back(scheme_dripper(k).name);
    columns.push_back({"dripper"});
    const EngineReport report =
        run_matrix(make_matrix(roster, columns, args.run), args, columns);

    std::printf("== Ablation: static T_a vs adaptive thresholding "
                "(Berti+DRIPPER) ==\n\n");

    TablePrinter table({"scheme", "geomean", "min", "max"});
    table.print_header();
    for (std::size_t s = 0; s < labels.size(); ++s) {
        const SuiteAggregator agg = column_speedups(report, roster, s + 1);
        const std::vector<double> &r = agg.ratios();
        const auto [lo, hi] = std::minmax_element(r.begin(), r.end());
        table.print_row({labels[s], format_pct(agg.overall_geomean() - 1.0),
                         r.empty() ? "-" : format_pct(*lo - 1.0),
                         r.empty() ? "-" : format_pct(*hi - 1.0)});
    }
    return matrix_exit_status(report);
}
