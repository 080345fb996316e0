/**
 * @file
 * §III-D3 — Offline feature selection methodology: evaluate every
 * program and system feature as a single-feature Page-Cross Filter,
 * rank by geomean IPC speedup, then greedily add features that
 * improve geomean by more than 0.3%.
 *
 * This regenerates the process that produced Table II. Default
 * settings use a small workload sample (the full 61-feature sweep
 * over the whole roster is expensive); pass --workloads / --full to
 * widen it.
 *
 * Cells run through run_matrix: the engine and store flags apply. The
 * ranking is one matrix and each greedy round another.
 */
#include <algorithm>
#include <cstdio>

#include "common/stats.h"
#include "filter/policies.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    BenchArgs args = parse_bench_args(argc, argv);
    if (!args.full && args.workloads > 8) {
        args.workloads = 8;  // 61-feature sweep: keep the default cheap
    }
    const std::vector<WorkloadSpec> roster = args.select(seen_workloads());
    const std::size_t R = roster.size();
    const L1dPrefetcherKind k = L1dPrefetcherKind::kBerti;

    struct Ranked
    {
        std::string name;
        bool is_system;
        ProgramFeatureId pf;
        SystemFeatureId sf;
        double geo;
    };
    std::vector<Ranked> ranked;
    // Column 0 is the Discard baseline, column i + 1 ranked[i].
    std::vector<MatrixColumn> columns = {{"discard"}};
    auto add = [&](const SchemeConfig &scheme, const Ranked &r) {
        columns.push_back(machine_column(scheme.name, make_config(k, scheme)));
        ranked.push_back(r);
    };
    for (ProgramFeatureId id : all_program_features()) {
        add(scheme_single_program(id),
            {feature_name(id), false, id, SystemFeatureId::kStlbMpki, 0.0});
    }
    for (SystemFeatureId id : all_system_features()) {
        add(scheme_single_system(id),
            {system_feature_name(id), true, ProgramFeatureId::kVa, id, 0.0});
    }
    const EngineReport ranking =
        run_matrix(make_matrix(roster, columns, args.run), args, columns);
    int status = matrix_exit_status(ranking);

    // Geomean speedup of column c of a report over the baseline.
    auto geomean_speedup = [&](const EngineReport &report, std::size_t c) {
        std::vector<double> ratios;
        for (std::size_t w = 0; w < R; ++w) {
            const RunMetrics *base = cell_metrics(ranking, R, 0, w);
            const RunMetrics *m = cell_metrics(report, R, c, w);
            if (base != nullptr && m != nullptr) {
                ratios.push_back(speedup(*m, *base));
            }
        }
        return geomean(ratios);
    };
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        ranked[i].geo = geomean_speedup(ranking, i + 1);
    }

    std::printf("== Feature selection (Berti, %zu workloads, %zu program "
                "+ %zu system features) ==\n\n",
                roster.size(), all_program_features().size(),
                all_system_features().size());

    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &a, const Ranked &b) { return a.geo > b.geo; });
    std::printf("single-feature ranking (top 15):\n");
    for (std::size_t i = 0; i < ranked.size() && i < 15; ++i) {
        std::printf("  %2zu. %-34s %+.2f%%%s\n", i + 1,
                    ranked[i].name.c_str(), (ranked[i].geo - 1.0) * 100.0,
                    ranked[i].is_system ? "  [system]" : "");
    }

    // Greedy combination: start from the best; add features improving
    // geomean by > 0.3% (paper's rule).
    MokaConfig cfg = dripper_config(k);
    cfg.program_features.clear();
    cfg.system_features.clear();
    SchemeConfig scheme;
    scheme.policy = PgcPolicy::kFilter;
    auto apply = [&](const Ranked &r) {
        if (r.is_system) {
            cfg.system_features.push_back(default_system_feature(r.sf));
        } else {
            cfg.program_features.push_back(r.pf);
        }
        // Named by its feature list, so each round is a cell of its own.
        scheme.name += (scheme.name.empty() ? "greedy:" : "+") + r.name;
    };
    auto evaluate = [&] {
        scheme.make_filter = [c = cfg] {
            return std::make_unique<MokaFilter>(c);
        };
        const std::vector<MatrixColumn> round = {
            machine_column(scheme.name, make_config(k, scheme))};
        const EngineReport report =
            run_matrix(make_matrix(roster, round, args.run), args, round);
        status |= matrix_exit_status(report);
        return geomean_speedup(report, 0);
    };
    apply(ranked[0]);
    double best = evaluate();
    std::printf("\ngreedy selection: start with %s (%+.2f%%)\n",
                ranked[0].name.c_str(), (best - 1.0) * 100.0);

    for (std::size_t i = 1; i < ranked.size(); ++i) {
        if (cfg.program_features.size() >= VirtDecisionRecord::kMaxFeatures ||
            ranked[i].geo <= 1.0) {
            continue;
        }
        const MokaConfig saved = cfg;
        const std::string saved_name = scheme.name;
        apply(ranked[i]);
        const double g = evaluate();
        if (g > best * 1.003) {
            best = g;
            std::printf("  + %-34s -> %+.2f%% (kept)\n",
                        ranked[i].name.c_str(), (g - 1.0) * 100.0);
        } else {
            cfg = saved;
            scheme.name = saved_name;
        }
    }
    std::printf("\nfinal set (%zu program + %zu system features), geomean "
                "%+.2f%%\n",
                cfg.program_features.size(), cfg.system_features.size(),
                (best - 1.0) * 100.0);
    std::printf("paper's Table II pick for Berti: Delta + sTLB MPKI + "
                "sTLB Miss Rate\n");
    return status;
}
