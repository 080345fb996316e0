/**
 * @file
 * Fig. 19 — 8-core evaluation: distribution of weighted speedups of
 * Berti + {Permit PGC, DRIPPER} over Berti + Discard PGC across
 * randomly generated 8-core mixes.
 *
 * Paper shape: DRIPPER positive for the vast majority of mixes
 * (+2.0% geomean over Discard, +3.3% over Permit); Permit PGC
 * mostly negative.
 *
 * Default runs 24 mixes; --full runs the paper's 300. One engine job
 * per mix (--jobs N parallelizes across mixes); the isolation-IPC
 * cache is shared across workers. With --shard-dir, a 300-mix sweep
 * resumes after a crash and splits across processes or hosts, each
 * printing the whole distribution. Failed mixes are dropped from the
 * distribution and reported on stderr. --snapshot-dir is accepted but
 * unused: the mix job never reads the snapshot cache, so every mix
 * and isolation run warms up cold.
 */
#include <algorithm>
#include <cstdio>

#include "common/hashing.h"
#include "filter/policies.h"
#include "sim/experiment.h"
#include "sim/jobs/store.h"
#include "sim/multicore.h"
#include "telemetry/telemetry.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const std::vector<WorkloadSpec> roster = seen_workloads();
    const L1dPrefetcherKind k = L1dPrefetcherKind::kBerti;

    MulticoreConfig mc;
    mc.cores = 8;
    mc.warmup_insts = args.run.warmup_insts / 2;
    mc.measure_insts = args.run.measure_insts / 2;

    std::printf("== Fig. 19: 8-core mixes, weighted speedup over "
                "Discard PGC (%zu mixes) ==\n\n", args.mixes);

    const auto mixes = make_mixes(roster, args.mixes, mc.cores, args.seed);
    IsolationCache iso;

    // One job per mix; aux = {Permit speedup, DRIPPER speedup}. The
    // isolation cache is shared: get_or_compute is thread-safe and
    // isolation runs are deterministic, so worker count never changes
    // the numbers.
    std::vector<JobSpec> jobs;
    jobs.reserve(mixes.size());
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        JobSpec spec;
        spec.id = i;
        spec.workload.name = "mix" + std::to_string(i);
        spec.workload.suite = "mix";
        // "mix<i>" names a slot, not its content: fold every member's
        // key into the seed so the result-store key names the 8
        // workloads this job simulates, whatever roster or --seed
        // drew them.
        std::uint64_t members = kFnv1aOffset;
        for (const WorkloadSpec &w : mixes[i]) {
            JobSpec member;
            member.workload = w;
            members = hash_combine(members, job_key(member));
        }
        spec.workload.seed = members;
        spec.scheme = "permit+dripper";
        spec.prefetcher = "berti";
        spec.run.warmup_insts = mc.warmup_insts;
        spec.run.measure_insts = mc.measure_insts;
        // Per Machine::run lifetime; a mix job runs several machines
        // (3 schemes + isolation runs), each with its own step count.
        spec.watchdog_steps =
            16 * mc.cores * (mc.warmup_insts + mc.measure_insts);
        // 3 scheme runs of `cores` workloads each, plus a share of the
        // isolation runs; mixes dominate any single-core cell.
        spec.estimated_cost = 3.0 * mc.cores *
                              double(mc.warmup_insts + mc.measure_insts);
        jobs.push_back(std::move(spec));
    }

    const std::unique_ptr<TelemetrySession> telemetry =
        make_telemetry(args);
    // run_engine so --shard-dir works here too: a 300-mix --full sweep
    // is the natural candidate for a multi-host farm.
    const EngineReport report = run_engine(
        jobs, args,
        [&](const JobSpec &spec, JobContext &ctx) {
            const std::vector<WorkloadSpec> &mix = mixes[spec.id];
            const std::string mixname = spec.workload.name;
            const double wb =
                weighted_ipc(k, scheme_discard(), mix, mc, iso, ctx.hook,
                             ctx.telemetry, mixname + ".discard",
                             ctx.trace_pid);
            const double wp =
                weighted_ipc(k, scheme_permit(), mix, mc, iso, ctx.hook,
                             ctx.telemetry, mixname + ".permit",
                             ctx.trace_pid);
            const double wd =
                weighted_ipc(k, scheme_dripper(k), mix, mc, iso,
                             ctx.hook, ctx.telemetry,
                             mixname + ".dripper", ctx.trace_pid);
            JobOutput out;
            out.row.workload = spec.workload.name;
            out.row.suite = spec.workload.suite;
            out.row.scheme = spec.scheme;
            out.row.prefetcher = spec.prefetcher;
            out.aux = {wb > 0.0 ? wp / wb : 0.0,
                       wb > 0.0 ? wd / wb : 0.0};
            return out;
        },
        telemetry.get());

    std::vector<double> sp, sd;
    for (const JobResult &res : report.results) {
        if (res.status != JobStatus::kCompleted ||
            res.output.aux.size() < 2) {
            continue;
        }
        sp.push_back(res.output.aux[0]);
        sd.push_back(res.output.aux[1]);
        std::printf("mix %3zu: Permit %+6.2f%%  DRIPPER %+6.2f%%\n",
                    res.id, (sp.back() - 1.0) * 100.0,
                    (sd.back() - 1.0) * 100.0);
    }

    auto curve = [](const char *label, std::vector<double> v) {
        std::sort(v.begin(), v.end());
        std::printf("%-10s distribution:", label);
        for (double x : v) {
            std::printf(" %+.1f", (x - 1.0) * 100.0);
        }
        std::printf("\n");
    };
    std::printf("\n");
    curve("Permit", sp);
    curve("DRIPPER", sd);
    if (!sp.empty() && !sd.empty()) {
        std::printf("\nGEOMEAN: Permit %+.2f%%  DRIPPER %+.2f%%  DRIPPER "
                    "over Permit %+.2f%%\n",
                    (geomean(sp) - 1.0) * 100.0,
                    (geomean(sd) - 1.0) * 100.0,
                    (geomean(sd) / geomean(sp) - 1.0) * 100.0);
    }
    std::printf("paper: DRIPPER +2.0%% over Discard, +3.3%% over Permit "
                "across 300 mixes\n");
    if (telemetry != nullptr) {
        const std::string trace = telemetry->flush();
        if (!trace.empty()) {
            std::printf("trace events written to %s\n", trace.c_str());
        }
        if (!telemetry->dir().empty()) {
            std::printf("epoch timeseries written to %s\n",
                        telemetry->dir().c_str());
        }
    }
    return matrix_exit_status(report);
}
