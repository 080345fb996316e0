/**
 * @file
 * Fig. 3 — Distribution (left) and average (right) of useful vs
 * useless page-cross prefetches under Permit PGC, for Berti, BOP and
 * IPCP.
 *
 * Paper shape: the full spectrum exists (workloads at ~100% useful,
 * ~100% useless, and mixtures); on average roughly half of the issued
 * page-cross prefetches are useful for every prefetcher.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <cstdio>

#include "common/histogram.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const std::vector<WorkloadSpec> roster = args.select(seen_workloads());

    // Column k: Permit PGC under prefetcher k.
    const EngineReport report = run_matrix(
        make_matrix(roster, {"permit"}, {"berti", "bop", "ipcp"}, args.run),
        args);
    const std::size_t R = roster.size();

    std::printf("== Fig. 3: usefulness of page-cross prefetches "
                "(Permit PGC) ==\n");
    const char *names[] = {"Berti", "BOP", "IPCP"};

    for (std::size_t k = 0; k < 3; ++k) {
        Histogram dist(0.0, 100.0, 10);  // % useful buckets
        double sum_useful_pct = 0.0;
        std::size_t counted = 0;
        std::printf("\n--- %s: %% useful page-cross prefetches per "
                    "workload ---\n", names[k]);
        for (std::size_t w = 0; w < R; ++w) {
            const RunMetrics *m = cell_metrics(report, R, k, w);
            if (m == nullptr) {
                continue;
            }
            const std::uint64_t resolved = m->pgc_useful + m->pgc_useless;
            if (resolved < 50) {
                continue;  // too few PGC prefetches to classify
            }
            const double pct = 100.0 * m->pgc_accuracy();
            dist.add(pct);
            sum_useful_pct += pct;
            ++counted;
            std::printf("  %-24s useful %6.1f%%  useless %6.1f%%  "
                        "(%llu resolved)\n",
                        roster[w].name.c_str(), pct, 100.0 - pct,
                        (unsigned long long)resolved);
        }
        std::printf("distribution (10%% bins): ");
        for (std::size_t b = 0; b < dist.bins(); ++b) {
            std::printf("%llu ", (unsigned long long)dist.count(b));
        }
        std::printf("\n%s average useful: %.1f%% (paper: ~50%%)\n",
                    names[k],
                    counted ? sum_useful_pct / double(counted) : 0.0);
    }
    return matrix_exit_status(report);
}
