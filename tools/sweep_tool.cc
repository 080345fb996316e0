/**
 * @file
 * sweep_tool — batch experiment driver on the fault-tolerant job
 * engine. Runs the (workload, scheme) matrix for one prefetcher and
 * streams one CSV row per completed job to stdout in job-id order,
 * ready for pandas/gnuplot; failures are classified and reported to
 * stderr instead of killing the sweep.
 *
 * Usage:
 *   sweep_tool [--workloads N] [--insts N] [--warmup N]
 *              [--prefetcher berti|ipcp|bop|stride|nl]
 *              [--schemes discard,permit,dripper,...]
 *              [--unseen] [--large-pages F]
 *              [--jobs N] [--fail-fast] [--inject-faults RATE]
 *              [--fault-seed N]
 *              [--shard-dir DIR] [--lease-ttl MS] [--inject-kill RATE]
 *              [--telemetry-dir DIR] [--trace-events FILE]
 *              [--snapshot-dir DIR]
 *
 * Example:
 *   sweep_tool --workloads 32 --schemes discard,permit,dripper \
 *       --jobs 8 --shard-dir sweep.d > results.csv
 *
 * The CSV is byte-identical for any --jobs count.
 *
 * Resume and multi-process sweeps: with --shard-dir, every completed
 * job is stored in that directory under a key of everything it
 * computes (sim/jobs/store.h). Rerunning the same command after a
 * crash runs only the jobs not stored yet; N processes launched with
 * the same --shard-dir split the matrix through leases, survivors
 * take over the jobs of dead ones, and each prints the whole CSV,
 * byte-identical to a single-process run.
 *
 * Warmup reuse: with --snapshot-dir, every job that warms up the same
 * (workload, machine config, warmup budget) key shares one warmup via
 * a snapshot cache in that directory; results stay byte-identical to
 * a cold sweep (see snapshot/cache.h). Without --snapshot-dir every
 * job warms up cold.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/report.h"
#include "telemetry/telemetry.h"
#include "trace/suites.h"

using namespace moka;

int
main(int argc, char **argv)
{
    BenchArgs args;
    std::string pf_name = "berti";
    std::string schemes_arg = "discard,permit,dripper";
    bool unseen = false;
    double large_pages = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() { return require_value(a, i, argc, argv); };
        if (a == "--prefetcher") {
            pf_name = next();
        } else if (a == "--schemes") {
            schemes_arg = next();
        } else if (a == "--unseen") {
            unseen = true;
        } else if (a == "--large-pages") {
            large_pages = require_double(a, next());
        } else if (!parse_engine_flag(args, i, argc, argv)) {
            std::fprintf(stderr, "usage: unknown flag %s\n", a.c_str());
            return 2;
        }
    }

    // Validate names up front: a typo is a usage error, not a sweep
    // of uniformly failed jobs.
    const std::vector<std::string> schemes = split_list(schemes_arg, ',');
    for (const std::string &name : schemes) {
        require_name("--schemes", name, known_scheme_names());
    }
    require_name("--prefetcher", pf_name, known_prefetcher_names());
    try {
        const std::vector<WorkloadSpec> roster = sample(
            unseen ? unseen_workloads() : seen_workloads(), args.workloads);
        const std::vector<JobSpec> matrix =
            make_matrix(roster, schemes, {pf_name}, args.run, large_pages);
        const std::unique_ptr<TelemetrySession> telemetry =
            make_telemetry(args);
        const EngineReport report =
            run_matrix(matrix, args, {}, telemetry.get());

        std::printf("%s\n", csv_header().c_str());
        for (const JobResult &res : report.results) {
            if (res.status == JobStatus::kCompleted) {
                std::printf("%s\n", to_csv(res.output.row).c_str());
            }
        }
        std::fflush(stdout);
        std::fputs(report.summary().c_str(), stderr);
        if (telemetry != nullptr) {
            const std::string trace = telemetry->flush();
            if (!trace.empty()) {
                std::fprintf(stderr, "trace events written to %s\n",
                             trace.c_str());
            }
        }
        return report.all_completed() ? 0 : 1;
    } catch (const JobError &e) {
        std::fprintf(stderr, "usage: %s: %s\n", to_string(e.code()),
                     e.what());
        return 2;
    }
}
