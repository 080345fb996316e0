/**
 * @file
 * mokasim_cli — general-purpose simulator front-end.
 *
 * Run any roster workload or recorded trace under any page-cross
 * scheme / prefetcher combination, single- or multi-core, and emit a
 * table, CSV row, or JSON document.
 *
 * Usage:
 *   mokasim_cli --workload gap.csr.0 --prefetcher berti \
 *               --scheme dripper --insts 1000000 [--json|--csv]
 *   mokasim_cli --trace my.trc --scheme permit
 *   mokasim_cli --mix gap.csr.0,parsec.stream.0 --scheme dripper
 *   mokasim_cli --scheme dripper --telemetry-dir tele \
 *               --trace-events trace.json
 *   mokasim_cli --list
 *
 * Schemes: discard | permit | discard-ptw | iso | ppf | ppf-dthr |
 *          dripper | dripper-sf | dripper-meta | dripper-2mb
 * Prefetchers: berti | ipcp | bop | stride | nl
 * L2 prefetchers: none | spp | ipcp | bop
 *
 * A --mix runs one workload per core, so it names a power-of-two
 * number of workloads (1, 2, 4, 8, ...).
 *
 * An unknown flag or name, a missing value, a malformed number or a
 * --mix of another size is a usage error: one line on stderr, exit
 * status 2.
 */
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "telemetry/telemetry.h"
#include "trace/suites.h"
#include "trace/trace_io.h"

using namespace moka;

namespace {

const WorkloadSpec *
find_spec(const std::vector<WorkloadSpec> &roster, const std::string &name)
{
    for (const WorkloadSpec &s : roster) {
        if (s.name == name) {
            return &s;
        }
    }
    return nullptr;
}

void
print_human(const ResultRow &row)
{
    const RunMetrics &m = row.metrics;
    std::printf("workload    %s (%s)\n", row.workload.c_str(),
                row.suite.c_str());
    std::printf("scheme      %s, prefetcher %s\n", row.scheme.c_str(),
                row.prefetcher.c_str());
    std::printf("IPC         %.4f  (%llu instructions, %llu cycles)\n",
                m.ipc(), (unsigned long long)m.instructions,
                (unsigned long long)m.cycles);
    std::printf("MPKI        L1I %.2f  L1D %.2f  L2 %.2f  LLC %.2f  "
                "dTLB %.2f  sTLB %.2f\n",
                m.l1i_mpki(), m.l1d_mpki(), m.l2_mpki(), m.llc_mpki(),
                m.dtlb_mpki(), m.stlb_mpki());
    std::printf("prefetch    issued %llu  useful %llu  useless %llu  "
                "accuracy %.2f\n",
                (unsigned long long)m.pf_issued,
                (unsigned long long)m.pf_useful,
                (unsigned long long)m.pf_useless, m.pf_accuracy());
    std::printf("page-cross  cand %llu  issued %llu  dropped %llu  "
                "useful %llu  useless %llu  accuracy %.2f\n",
                (unsigned long long)m.pgc_candidates,
                (unsigned long long)m.pgc_issued,
                (unsigned long long)m.pgc_dropped,
                (unsigned long long)m.pgc_useful,
                (unsigned long long)m.pgc_useless, m.pgc_accuracy());
    std::printf("walks       demand %llu  speculative %llu\n",
                (unsigned long long)m.demand_walks,
                (unsigned long long)m.spec_walks);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload_name = "parsec.stream.0";
    std::string trace_path;
    std::string mix_arg;
    std::string scheme_name = "dripper";
    std::string pf_name = "berti";
    std::string l2pf_name = "none";
    InstCount insts = 800'000;
    InstCount warmup = 200'000;
    double large_pages = 0.0;
    bool json = false, csv = false, list = false;
    std::string telemetry_dir, trace_events;

    const std::vector<std::string> l2_names = {"none", "spp", "ipcp", "bop"};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() { return require_value(a, i, argc, argv); };
        if (a == "--workload") workload_name = next();
        else if (a == "--trace") trace_path = next();
        else if (a == "--mix") mix_arg = next();
        else if (a == "--scheme")
            scheme_name = require_name(a, next(), known_scheme_names());
        else if (a == "--prefetcher")
            pf_name = require_name(a, next(), known_prefetcher_names());
        else if (a == "--l2-prefetcher")
            l2pf_name = require_name(a, next(), l2_names);
        else if (a == "--insts") insts = require_u64(a, next());
        else if (a == "--warmup") warmup = require_u64(a, next());
        else if (a == "--large-pages") large_pages = require_double(a, next());
        else if (a == "--telemetry-dir") telemetry_dir = next();
        else if (a == "--trace-events") trace_events = next();
        else if (a == "--json") json = true;
        else if (a == "--csv") csv = true;
        else if (a == "--list") list = true;
        else {
            std::fprintf(stderr, "usage: unknown flag %s (see file header)\n",
                         a.c_str());
            return 2;
        }
    }

    const std::vector<WorkloadSpec> roster = seen_workloads();
    if (list) {
        for (const WorkloadSpec &s : roster) {
            std::printf("%-28s %s\n", s.name.c_str(), s.suite.c_str());
        }
        return 0;
    }

    const L1dPrefetcherKind kind = parse_l1d_kind(pf_name);
    const unsigned cores =
        mix_arg.empty()
            ? 1
            : static_cast<unsigned>(split_list(mix_arg, ',').size());
    // The LLC has 2048 sets per core, and cache sets must be a power
    // of two.
    if (!is_pow2(cores)) {
        std::fprintf(stderr,
                     "usage: --mix needs a power-of-two number of "
                     "workloads, got %u\n",
                     cores);
        return 2;
    }

    MachineConfig cfg = default_config(cores);
    cfg.l1d_prefetcher = kind;
    cfg.scheme = scheme_by_name(scheme_name, kind);
    cfg.vmem.large_page_fraction = large_pages;
    if (l2pf_name == "spp") cfg.l2_prefetcher = L2PrefetcherKind::kSpp;
    if (l2pf_name == "ipcp") cfg.l2_prefetcher = L2PrefetcherKind::kIpcp;
    if (l2pf_name == "bop") cfg.l2_prefetcher = L2PrefetcherKind::kBop;

    // Assemble the workload list. A trace is opened up front for its
    // name; the run's one machine takes it.
    WorkloadPtr trace_workload;
    std::vector<WorkloadFactory> make;
    std::vector<std::string> names, suites;
    if (!trace_path.empty()) {
        trace_workload = open_trace(trace_path);
        if (trace_workload == nullptr) {
            std::fprintf(stderr, "cannot load trace %s\n",
                         trace_path.c_str());
            return 1;
        }
        names.push_back(trace_workload->name());
        suites.push_back("TRACE");
        make.push_back([&trace_workload]() {
            return std::move(trace_workload);
        });
    } else {
        const std::vector<std::string> wanted =
            mix_arg.empty() ? std::vector<std::string>{workload_name}
                            : split_list(mix_arg, ',');
        for (const std::string &n : wanted) {
            const WorkloadSpec *spec = find_spec(roster, n);
            if (spec == nullptr) {
                std::fprintf(stderr,
                             "usage: unknown workload %s (try --list)\n",
                             n.c_str());
                return 2;
            }
            names.push_back(spec->name);
            suites.push_back(spec->suite);
            make.push_back([spec]() { return make_workload(*spec); });
        }
    }

    std::unique_ptr<TelemetrySession> telemetry;
    if (!telemetry_dir.empty() || !trace_events.empty()) {
        telemetry = std::make_unique<TelemetrySession>(telemetry_dir,
                                                       trace_events);
    }
    std::string label = names[0];
    for (std::size_t c = 1; c < names.size(); ++c) {
        label += "+" + names[c];
    }
    label += "." + scheme_name;

    const std::vector<RunMetrics> measured =
        simulate(cfg, make, RunConfig{warmup, insts}, nullptr, nullptr, 0,
                 nullptr, telemetry.get(), label);
    if (telemetry != nullptr) {
        const std::string trace = telemetry->flush();
        if (!trace.empty()) {
            std::fprintf(stderr, "trace events written to %s\n",
                         trace.c_str());
        }
        if (!telemetry->dir().empty()) {
            std::fprintf(stderr, "epoch timeseries written to %s\n",
                         telemetry->dir().c_str());
        }
    }

    std::vector<ResultRow> rows;
    for (std::size_t c = 0; c < measured.size(); ++c) {
        ResultRow row;
        row.workload = names[c];
        row.suite = suites[c];
        row.scheme = cfg.scheme.name;
        row.prefetcher = pf_name;
        row.metrics = measured[c];
        rows.push_back(std::move(row));
    }

    if (csv) {
        write_csv(std::cout, rows);
    } else if (json) {
        for (const ResultRow &row : rows) {
            std::cout << to_json(row) << "\n";
        }
    } else {
        for (const ResultRow &row : rows) {
            print_human(row);
            if (rows.size() > 1) {
                std::printf("\n");
            }
        }
    }
    return 0;
}
