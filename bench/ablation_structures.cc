/**
 * @file
 * Ablation — DRIPPER structure sizing (paper §III-E1 notes the
 * weight-table/vUB/pUB sizes were selected empirically). Sweeps each
 * structure independently around the shipped configuration.
 *
 * Cells run through run_matrix: the engine and store flags apply.
 */
#include <cstdio>

#include "filter/policies.h"
#include "sim/experiment.h"
#include "trace/suites.h"

using namespace moka;

namespace {

SchemeConfig
sized(const char *label, unsigned wt, unsigned vub, unsigned pub)
{
    SchemeConfig s;
    s.name = label;
    s.policy = PgcPolicy::kFilter;
    s.make_filter = [wt, vub, pub] {
        MokaConfig cfg = dripper_config(L1dPrefetcherKind::kBerti);
        cfg.wt_entries = wt;
        cfg.vub_entries = vub;
        cfg.pub_entries = pub;
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

    const SchemeConfig schemes[] = {
        sized("WT=128", 128, 4, 128),
        sized("WT=1024 (paper)", 1024, 4, 128),
        sized("WT=4096", 4096, 4, 128),
        sized("vUB=1", 1024, 1, 128),
        sized("vUB=16", 1024, 16, 128),
        sized("pUB=32", 1024, 4, 32),
        sized("pUB=512", 1024, 4, 512),
    };
    constexpr std::size_t kPaper = 1;  //!< dripper_config's own sizes

    // Column 0 is the Discard baseline, column s + 1 schemes[s].
    std::vector<MatrixColumn> columns = {{"discard"}};
    for (std::size_t s = 0; s < std::size(schemes); ++s) {
        columns.push_back(s == kPaper
                              ? MatrixColumn{"dripper"}
                              : machine_column(schemes[s].name,
                                               make_config(k, schemes[s])));
    }
    const EngineReport report =
        run_matrix(make_matrix(roster, columns, args.run), args, columns);

    std::printf("== Ablation: DRIPPER structure sizes (Berti) ==\n\n");

    TablePrinter table({"config", "geomean", "storage KB"});
    table.print_header();
    for (std::size_t s = 0; s < std::size(schemes); ++s) {
        const FilterPtr f = schemes[s].make_filter();
        char kb[32];
        std::snprintf(kb, sizeof(kb), "%.3f",
                      double(f->storage_bits()) / 8000.0);
        table.print_row(
            {schemes[s].name, geomean_gain(report, roster, s + 1), kb});
    }
    return matrix_exit_status(report);
}
