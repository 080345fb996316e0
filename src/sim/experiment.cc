#include "sim/experiment.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/hashing.h"
#include "common/stats.h"
#include "filter/policies.h"
#include "sim/jobs/store.h"
#include "snapshot/cache.h"
#include "telemetry/telemetry.h"
#include "trace/trace_io.h"

namespace moka {

double
speedup(const RunMetrics &m, const RunMetrics &base)
{
    const double b = base.ipc();
    return b > 0.0 ? m.ipc() / b : 0.0;
}

double
coverage_gain(const RunMetrics &m, const RunMetrics &base)
{
    if (base.l1d.misses == 0) {
        return 0.0;
    }
    return (static_cast<double>(base.l1d.misses) -
            static_cast<double>(m.l1d.misses)) /
           static_cast<double>(base.l1d.misses);
}

const char *
require_value(const std::string &flag, int &i, int argc, char **argv)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s requires a value\n", flag.c_str());  // LINT_LOG_OK: usage error
        std::exit(2);
    }
    return argv[++i];
}

std::uint64_t
require_u64(const std::string &flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr,  // LINT_LOG_OK: usage error
                     "usage: %s requires a non-negative integer "
                     "(got '%s')\n",
                     flag.c_str(), value);
        std::exit(2);
    }
    return parsed;
}

double
require_double(const std::string &flag, const char *value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0') {
        std::fprintf(stderr, "usage: %s requires a number (got '%s')\n",  // LINT_LOG_OK: usage error
                     flag.c_str(), value);
        std::exit(2);
    }
    return parsed;
}

std::string
require_name(const std::string &flag, const std::string &value,
             const std::vector<std::string> &known)
{
    if (std::find(known.begin(), known.end(), value) != known.end()) {
        return value;
    }
    std::string names;
    for (const std::string &k : known) {
        names += " " + k;
    }
    std::fprintf(stderr, "usage: %s: unknown name '%s' (known:%s)\n",  // LINT_LOG_OK: usage error
                 flag.c_str(), value.c_str(), names.c_str());
    std::exit(2);
}

BenchArgs
parse_bench_args(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--full") {
            args.full = true;
            args.run = args.run.scaled(4.0);
            args.mixes = 300;
        } else if (a == "--mixes") {
            args.mixes = require_u64(a, require_value(a, i, argc, argv));
        } else if (a == "--seed") {
            args.seed = require_u64(a, require_value(a, i, argc, argv));
        } else if (!parse_engine_flag(args, i, argc, argv)) {
            std::fprintf(stderr, "warning: ignoring unknown flag %s\n",  // LINT_LOG_OK: usage warning
                         a.c_str());
        }
    }
    return args;
}

bool
parse_engine_flag(BenchArgs &args, int &i, int argc, char **argv)
{
    const std::string a = argv[i];
    auto next_u64 = [&]() {
        return require_u64(a, require_value(a, i, argc, argv));
    };
    if (a == "--workloads") {
        args.workloads = next_u64();
    } else if (a == "--insts") {
        args.run.measure_insts = next_u64();
    } else if (a == "--warmup") {
        args.run.warmup_insts = next_u64();
    } else if (a == "--jobs") {
        args.jobs = next_u64();
    } else if (a == "--fail-fast") {
        args.fail_fast = true;
    } else if (a == "--inject-faults") {
        args.fault_rate = require_double(a, require_value(a, i, argc, argv));
    } else if (a == "--fault-seed") {
        args.fault_seed = next_u64();
    } else if (a == "--shard-dir") {
        args.shard_dir = require_value(a, i, argc, argv);
    } else if (a == "--lease-ttl") {
        args.lease_ttl_ms = next_u64();
    } else if (a == "--inject-kill") {
        args.kill_rate = require_double(a, require_value(a, i, argc, argv));
    } else if (a == "--telemetry-dir") {
        args.telemetry_dir = require_value(a, i, argc, argv);
    } else if (a == "--trace-events") {
        args.trace_events = require_value(a, i, argc, argv);
    } else if (a == "--snapshot-dir") {
        args.snapshot_dir = require_value(a, i, argc, argv);
    } else {
        return false;
    }
    return true;
}

std::vector<std::string>
split_list(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, sep)) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

EngineConfig
engine_config(const BenchArgs &args)
{
    EngineConfig cfg;
    cfg.workers = std::max<std::size_t>(1, args.jobs);
    cfg.fail_fast = args.fail_fast;
    if (args.fault_rate > 0.0) {
        cfg.faults.enabled = true;
        cfg.faults.seed = args.fault_seed;
        cfg.faults.throw_rate = args.fault_rate * 0.75;
        cfg.faults.stall_rate = args.fault_rate * 0.25;
        cfg.faults.stall_ms = 200;
        // Stalled workers must trip the wall deadline; generous slack
        // over the stall keeps legitimate jobs clear of it.
        cfg.watchdog_wall_ms = 60'000;
    }
    if (!args.shard_dir.empty()) {
        // Processes sharing a store decorrelate their retry backoff
        // (timing only, never a result value).
        cfg.jitter_salt = static_cast<std::uint64_t>(::getpid());
        if (args.kill_rate > 0.0) {
            cfg.proc_faults.enabled = true;
            cfg.proc_faults.seed = args.fault_seed;
            cfg.proc_faults.kill_rate = args.kill_rate;
        }
    }
    return cfg;
}

std::unique_ptr<TelemetrySession>
make_telemetry(const BenchArgs &args)
{
    if (args.telemetry_dir.empty() && args.trace_events.empty()) {
        return nullptr;
    }
    return std::make_unique<TelemetrySession>(args.telemetry_dir,
                                              args.trace_events);
}

SchemeConfig
scheme_by_name(const std::string &name, L1dPrefetcherKind kind)
{
    if (name == "discard") return scheme_discard();
    if (name == "permit") return scheme_permit();
    if (name == "discard-ptw") return scheme_discard_ptw();
    if (name == "iso") return scheme_iso_storage();
    if (name == "ppf") return scheme_ppf(false);
    if (name == "ppf-dthr") return scheme_ppf(true);
    if (name == "dripper") return scheme_dripper(kind);
    if (name == "dripper-sf") return scheme_dripper_sf(kind);
    if (name == "dripper-meta") return scheme_dripper_specialized(kind);
    if (name == "dripper-2mb") return scheme_dripper_filter_2mb(kind);
    throw JobError(JobErrorCode::kConfigInvalid,
                   "unknown scheme '" + name + "'");
}

const std::vector<std::string> &
known_scheme_names()
{
    static const std::vector<std::string> names = {
        "discard",    "permit",      "discard-ptw", "iso",
        "ppf",        "ppf-dthr",    "dripper",     "dripper-sf",
        "dripper-meta", "dripper-2mb",
    };
    return names;
}

const std::vector<std::string> &
known_prefetcher_names()
{
    static const std::vector<std::string> names = {"berti", "ipcp", "bop",
                                                   "stride", "nl"};
    return names;
}

namespace {

L1dPrefetcherKind
prefetcher_by_name(const std::string &name)
{
    const std::vector<std::string> &known = known_prefetcher_names();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
        throw JobError(JobErrorCode::kConfigInvalid,
                       "unknown prefetcher '" + name + "'");
    }
    return parse_l1d_kind(name);
}

}  // namespace

MatrixColumn
machine_column(const std::string &label, const MachineConfig &cfg)
{
    char fingerprint[17];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(config_fingerprint(cfg, 1)));
    MatrixColumn col;
    col.scheme = label + "@" + fingerprint;
    for (const std::string &name : known_prefetcher_names()) {
        if (parse_l1d_kind(name) == cfg.l1d_prefetcher) {
            col.prefetcher = name;
        }
    }
    col.large_page_fraction = cfg.vmem.large_page_fraction;
    col.machine = cfg;
    return col;
}

std::vector<JobSpec>
make_matrix(const std::vector<WorkloadSpec> &roster,
            const std::vector<MatrixColumn> &columns, const RunConfig &run)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(roster.size() * columns.size());
    for (const MatrixColumn &col : columns) {
        for (const WorkloadSpec &spec : roster) {
            JobSpec job;
            job.id = jobs.size();
            job.workload = spec;
            job.scheme = col.scheme;
            job.prefetcher = col.prefetcher;
            job.run = run;
            job.large_page_fraction = col.large_page_fraction;
            // A single-core run retires warmup+measure instructions in
            // exactly that many steps; 8x slack accommodates replay
            // variance with headroom while still catching runaway
            // loops.
            job.watchdog_steps = 8 * (run.warmup_insts + run.measure_insts);
            // Uniform single-core cells: equal cost keeps the engine's
            // cost-ordered dispatch in plain id order.
            job.estimated_cost =
                static_cast<double>(run.warmup_insts + run.measure_insts);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<JobSpec>
make_matrix(const std::vector<WorkloadSpec> &roster,
            const std::vector<std::string> &schemes,
            const std::vector<std::string> &prefetchers,
            const RunConfig &run, double large_page_fraction)
{
    std::vector<MatrixColumn> columns;
    for (const std::string &pf : prefetchers) {
        for (const std::string &scheme : schemes) {
            columns.push_back({scheme, pf, large_page_fraction});
        }
    }
    return make_matrix(roster, columns, run);
}

namespace {

/**
 * Snapshot warmup-key contribution of the workload itself. Trace
 * workloads are identified by path; synthetic ones by the full spec
 * (two specs with equal fields replay identical streams).
 */
std::uint64_t
workload_identity(const JobSpec &spec)
{
    if (!spec.trace_path.empty()) {
        return fnv1a_64(spec.trace_path.data(), spec.trace_path.size());
    }
    const WorkloadSpec &w = spec.workload;
    std::uint64_t key = fnv1a_64(w.name.data(), w.name.size());
    key = hash_combine(key, static_cast<std::uint64_t>(w.family));
    key = hash_combine(key, w.variant);
    return hash_combine(key, w.seed);
}

/**
 * Run @p spec's workload on @p cfg: everything a cell does once its
 * machine is resolved.
 */
JobOutput
simulate_cell(const MachineConfig &cfg, const JobSpec &spec,
              JobContext &ctx)
{
    const bool trace = !spec.trace_path.empty();
    WorkloadFactory factory = [w = spec.workload]() {
        return make_workload(w);
    };
    if (trace) {
        factory = [path = spec.trace_path]() {
            TraceOpenResult open = open_trace_checked(path);
            if (!open.ok()) {
                // Missing file is an operator error; damaged bytes are
                // data corruption. Both isolate to this one job.
                throw JobError(open.status == TraceIoStatus::kFileMissing
                                   ? JobErrorCode::kConfigInvalid
                                   : JobErrorCode::kTraceCorrupt,
                               open.message);
            }
            return std::move(open.workload);
        };
    }
    WorkloadPtr workload = factory();
    JobOutput out;
    out.row.workload = trace ? workload->name() : spec.workload.name;
    out.row.suite = trace ? "trace" : spec.workload.suite;
    out.row.scheme = spec.scheme;
    out.row.prefetcher = spec.prefetcher;

    std::string audit_findings;
    const std::string label = out.row.workload + "." + spec.scheme + "." +
                              spec.prefetcher;
    if (ctx.snapshot != nullptr) {
        out.row.metrics = run_single_workload_snapshot(
            cfg, factory, spec.run, ctx.hook, *ctx.snapshot,
            workload_identity(spec), &audit_findings, ctx.telemetry,
            label, ctx.trace_pid);
    } else {
        out.row.metrics = run_single_workload(
            cfg, std::move(workload), spec.run, ctx.hook, &audit_findings,
            ctx.telemetry, label, ctx.trace_pid);
    }
    if (!audit_findings.empty()) {
        throw JobError(JobErrorCode::kAuditFailure, audit_findings);
    }
    return out;
}

}  // namespace

JobOutput
run_sim_job(const JobSpec &spec, JobContext &ctx)
{
    const L1dPrefetcherKind kind = prefetcher_by_name(spec.prefetcher);
    MachineConfig cfg = make_config(kind, scheme_by_name(spec.scheme, kind));
    cfg.vmem.large_page_fraction = spec.large_page_fraction;
    return simulate_cell(cfg, spec, ctx);
}

EngineReport
run_engine(const std::vector<JobSpec> &jobs, const BenchArgs &args,
           const JobFn &fn, TelemetrySession *telemetry)
{
    EngineConfig cfg = engine_config(args);
    cfg.telemetry = telemetry;
    // Both stores are shared by every worker (and, through their
    // leases, by other processes on the same directories); they must
    // outlive the engine run below.
    std::unique_ptr<SnapshotCache> snapshots;
    if (!args.snapshot_dir.empty()) {
        snapshots = std::make_unique<SnapshotCache>(args.snapshot_dir);
        cfg.snapshot = snapshots.get();
    }
    std::unique_ptr<ResultStore> store;
    if (!args.shard_dir.empty()) {
        store = std::make_unique<ResultStore>(
            args.shard_dir, std::max<std::uint64_t>(1, args.lease_ttl_ms));
        cfg.store = store.get();
    }
    EngineReport report = JobEngine(std::move(cfg)).run(jobs, fn);
    if (snapshots != nullptr) {
        const SnapshotCache::Stats s = snapshots->stats();
        std::fprintf(stderr,  // LINT_LOG_OK: report
                     "snapshot cache: %llu hits, %llu misses, "
                     "%llu saves, %llu invalid\n",
                     static_cast<unsigned long long>(s.hits),
                     static_cast<unsigned long long>(s.misses),
                     static_cast<unsigned long long>(s.saves),
                     static_cast<unsigned long long>(s.invalid));
    }
    if (store != nullptr) {
        const ResultStore::Stats s = store->stats();
        std::fprintf(stderr,  // LINT_LOG_OK: report
                     "result store: %llu found, %llu published, "
                     "%llu invalid\n",
                     static_cast<unsigned long long>(s.found),
                     static_cast<unsigned long long>(s.published),
                     static_cast<unsigned long long>(s.invalid));
    }
    return report;
}

EngineReport
run_matrix(const std::vector<JobSpec> &jobs, const BenchArgs &args,
           const std::vector<MatrixColumn> &columns,
           TelemetrySession *telemetry)
{
    const JobFn body = [&columns](const JobSpec &spec, JobContext &ctx) {
        for (const MatrixColumn &col : columns) {
            if (col.machine.has_value() && col.scheme == spec.scheme) {
                return simulate_cell(*col.machine, spec, ctx);
            }
        }
        return run_sim_job(spec, ctx);
    };
    return run_engine(jobs, args, body, telemetry);
}

const RunMetrics *
cell_metrics(const EngineReport &report, std::size_t roster, std::size_t c,
             std::size_t w)
{
    const JobResult &res = report.results[c * roster + w];
    return res.status == JobStatus::kCompleted ? &res.output.row.metrics
                                               : nullptr;
}

void
SuiteAggregator::add(const std::string &suite, double ratio)
{
    auto [it, inserted] = by_suite_.try_emplace(suite);
    if (inserted) {
        order_.push_back(suite);
    }
    it->second.push_back(ratio);
    ratios_.push_back(ratio);
}

double
SuiteAggregator::suite_geomean(const std::string &suite) const
{
    const auto it = by_suite_.find(suite);
    if (it == by_suite_.end() || it->second.empty()) {
        return 1.0;
    }
    return geomean(it->second);
}

double
SuiteAggregator::overall_geomean() const
{
    std::vector<double> all;
    for (const auto &[suite, ratios] : by_suite_) {
        all.insert(all.end(), ratios.begin(), ratios.end());
    }
    return all.empty() ? 1.0 : geomean(all);
}

SuiteAggregator
column_speedups(const EngineReport &report,
                const std::vector<WorkloadSpec> &roster, std::size_t c,
                std::size_t base)
{
    SuiteAggregator agg;
    for (std::size_t w = 0; w < roster.size(); ++w) {
        const RunMetrics *b = cell_metrics(report, roster.size(), base, w);
        const RunMetrics *m = cell_metrics(report, roster.size(), c, w);
        if (b != nullptr && m != nullptr) {
            agg.add(roster[w].suite, speedup(*m, *b));
        }
    }
    return agg;
}

std::string
geomean_gain(const EngineReport &report,
             const std::vector<WorkloadSpec> &roster, std::size_t c,
             std::size_t base)
{
    return format_pct(
        column_speedups(report, roster, c, base).overall_geomean() - 1.0);
}

int
matrix_exit_status(const EngineReport &report)
{
    if (report.all_completed()) {
        return 0;
    }
    std::fputs(report.summary().c_str(), stderr);  // LINT_LOG_OK: report
    return 1;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    widths_.reserve(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
        widths_.push_back(std::max<std::size_t>(
            headers_[i].size() + 2, i == 0 ? 26 : 12));
    }
}

void
TablePrinter::print_header() const
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
        std::printf("%-*s", static_cast<int>(widths_[i]),  // LINT_LOG_OK: report table surface
                    headers_[i].c_str());
        total += widths_[i];
    }
    std::printf("\n");  // LINT_LOG_OK: report table surface
    for (std::size_t i = 0; i < total; ++i) {
        std::putchar('-');  // LINT_LOG_OK: report table surface
    }
    std::printf("\n");  // LINT_LOG_OK: report table surface
}

void
TablePrinter::print_row(const std::vector<std::string> &cells) const
{
    for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
        std::printf("%-*s", static_cast<int>(widths_[i]), cells[i].c_str());  // LINT_LOG_OK: report table surface
    }
    std::printf("\n");  // LINT_LOG_OK: report table surface
}

}  // namespace moka
