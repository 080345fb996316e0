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
 * Default runs 24 mixes; --full runs the paper's 300. Two engine runs:
 * first run_matrix runs the isolation column over the mixes' distinct
 * members, one cell each; then one job per mix runs it under Discard,
 * Permit and DRIPPER and divides each core's IPC by its member's
 * isolation IPC. Both runs are cells like every other harness's, so
 * --jobs N parallelizes them, --shard-dir keeps them in the result
 * store (a 300-mix sweep resumes after a crash and splits across
 * processes or hosts, each printing the whole distribution), and
 * --snapshot-dir shares their warmups. Failed mixes are dropped from
 * the distribution and reported on stderr.
 */
#include <algorithm>
#include <cstdio>
#include <map>

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
    const RunConfig budgets{mc.warmup_insts, mc.measure_insts};
    const std::unique_ptr<TelemetrySession> telemetry =
        make_telemetry(args);

    // The isolation cells run untelemetried: both engine runs number
    // their jobs from 0, so they would share the trace's per-job pids.
    const std::vector<WorkloadSpec> members = mix_members(mixes);
    const std::vector<MatrixColumn> isolation = {isolation_column(mc, k)};
    const EngineReport iso = run_matrix(
        make_matrix(members, isolation, budgets), args, isolation);
    std::map<std::string, const JobResult *> iso_of;
    for (std::size_t m = 0; m < members.size(); ++m) {
        iso_of[members[m].name] = &iso.results[m];
    }

    // One job per mix; aux = {Permit speedup, DRIPPER speedup}.
    std::vector<JobSpec> jobs;
    jobs.reserve(mixes.size());
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        JobSpec spec;
        spec.id = i;
        spec.workload.name = "mix" + std::to_string(i);
        spec.workload.suite = "mix";
        // "mix<i>" names a slot, not its content: fold every member's
        // key into the seed so the result-store key, and the warmup
        // key of the mix's snapshots, name the 8 workloads this job
        // simulates, whatever roster or --seed drew them.
        std::uint64_t members_key = kFnv1aOffset;
        std::vector<double> iso_ipc;
        for (const WorkloadSpec &w : mixes[i]) {
            JobSpec member;
            member.workload = w;
            members_key = hash_combine(members_key, job_key(member));
            const JobResult &cell = *iso_of.at(w.name);
            iso_ipc.push_back(cell.status == JobStatus::kCompleted
                                  ? cell.output.row.metrics.ipc()
                                  : 0.0);
        }
        spec.workload.seed = members_key;
        spec.scheme = "permit+dripper";
        spec.prefetcher = "berti";
        spec.run = budgets;
        // Per Machine::run lifetime; a mix job runs 3 machines, each
        // with its own step count. job_key skips it, so no key moves.
        spec.watchdog_steps = mix_step_budget(mc, iso_ipc);
        jobs.push_back(std::move(spec));
    }

    const EngineReport report = run_engine(
        jobs, args,
        [&](const JobSpec &spec, JobContext &ctx) {
            const std::vector<WorkloadSpec> &mix = mixes[spec.id];
            std::vector<double> iso_ipc;
            std::vector<WorkloadFactory> make;
            for (const WorkloadSpec &w : mix) {
                const JobResult &cell = *iso_of.at(w.name);
                if (cell.status != JobStatus::kCompleted) {
                    throw JobError(cell.error, "isolation run of " + w.name +
                                                   ": " + cell.error_message);
                }
                iso_ipc.push_back(cell.output.row.metrics.ipc());
                make.push_back([w]() { return make_workload(w); });
            }
            // Sum of IPC_multicore / IPC_isolation over the cores.
            auto weighted = [&](const SchemeConfig &scheme,
                                const std::string &name) {
                MachineConfig cfg = default_config(mc.cores);
                cfg.l1d_prefetcher = k;
                cfg.scheme = scheme;
                std::string audit_findings;
                const std::vector<RunMetrics> cores = simulate(
                    cfg, make, spec.run, ctx.hook, ctx.snapshot,
                    spec.workload.seed, &audit_findings, ctx.telemetry,
                    spec.workload.name + "." + name, ctx.trace_pid);
                if (!audit_findings.empty()) {
                    throw JobError(JobErrorCode::kAuditFailure,
                                   audit_findings);
                }
                double sum = 0.0;
                for (std::size_t i = 0; i < cores.size(); ++i) {
                    if (iso_ipc[i] > 0.0) {
                        sum += cores[i].ipc() / iso_ipc[i];
                    }
                }
                return sum;
            };
            const double wb = weighted(scheme_discard(), "discard");
            const double wp = weighted(scheme_permit(), "permit");
            const double wd = weighted(scheme_dripper(k), "dripper");
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
    return std::max(matrix_exit_status(iso), matrix_exit_status(report));
}
