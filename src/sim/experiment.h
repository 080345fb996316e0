/**
 * @file
 * Shared helpers for the figure/table benchmark harnesses: derived
 * metrics (speedup, coverage), per-suite aggregation, table printing,
 * common CLI flags (--full, --workloads, --insts, --warmup, plus the
 * engine flags --jobs/--fail-fast/--inject-faults, the result-store
 * flags --shard-dir/--lease-ttl/--inject-kill and --snapshot-dir), and
 * make_matrix/run_matrix, the one execution path for the single-core
 * cells of every figure and table harness and of sweep_tool.
 */
#ifndef MOKASIM_SIM_EXPERIMENT_H
#define MOKASIM_SIM_EXPERIMENT_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hot_path.h"
#include "sim/jobs/engine.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {

/** IPC speedup of @p m over @p base. */
double speedup(const RunMetrics &m, const RunMetrics &base);

/**
 * Miss-coverage improvement of @p m over @p base: the fraction of the
 * baseline's L1D demand misses that @p m eliminates (paper Fig. 11).
 */
double coverage_gain(const RunMetrics &m, const RunMetrics &base);

/** Common bench CLI options. */
struct BenchArgs
{
    bool full = false;            //!< full roster + 4x instructions
    std::size_t workloads = 24;   //!< roster sample size (default runs)
    RunConfig run;                //!< instruction budgets
    std::size_t mixes = 24;       //!< multi-core mixes (fig19)
    std::uint64_t seed = 7;

    // Job-engine knobs (see sim/jobs/engine.h).
    std::size_t jobs = 1;         //!< worker threads
    bool fail_fast = false;       //!< abort the sweep on first failure
    double fault_rate = 0.0;      //!< injected fault rate (tests/CI)
    std::uint64_t fault_seed = 1;

    // Result store (see sim/jobs/store.h). A non-empty shard_dir keeps
    // every completed result there: a rerun resumes from it, and any
    // number of processes on one directory share the matrix.
    std::string shard_dir;        //!< result store directory
    std::uint64_t lease_ttl_ms = 10000;  //!< heartbeat-miss budget
    double kill_rate = 0.0;       //!< seeded self-SIGKILL rate (chaos)

    // Telemetry knobs (see telemetry/telemetry.h).
    std::string telemetry_dir;    //!< per-run epoch CSV/JSONL directory
    std::string trace_events;     //!< merged Chrome trace JSON path

    // Warmup-snapshot reuse (see snapshot/cache.h). A non-empty
    // snapshot_dir makes every job resolve its warmup through the
    // shared snapshot cache: warm up once per (workload, machine
    // config, warmup budget) key, fork every sweep point from the
    // restored state. Results stay byte-identical to a cold sweep.
    std::string snapshot_dir;     //!< snapshot cache directory
    bool no_snapshot_reuse = false;  //!< force cold warmups anyway

    /** Effective roster for @p roster given --full/--workloads. */
    std::vector<WorkloadSpec>
    select(const std::vector<WorkloadSpec> &roster) const
    {
        return full ? roster : sample(roster, workloads);
    }
};

/**
 * Parse argv; unknown flags are ignored with a warning, but a flag
 * with a missing or non-numeric value is a usage error: one line to
 * stderr and exit(2) instead of an uncaught-exception backtrace.
 */
BenchArgs parse_bench_args(int argc, char **argv);

/**
 * Parse argv[@p i] and its value into @p args when it is one of the
 * flags sweep_tool shares with the harnesses. @return false if not.
 */
bool parse_engine_flag(BenchArgs &args, int &i, int argc, char **argv);

/**
 * CLI parsing helpers shared with the tools: each prints a one-line
 * usage error and exits(2) on a missing or malformed value.
 */
const char *require_value(const std::string &flag, int &i, int argc,
                          char **argv);
std::uint64_t require_u64(const std::string &flag, const char *value);
double require_double(const std::string &flag, const char *value);
/** @p value when it is one of @p known, else a usage error listing them. */
std::string require_name(const std::string &flag, const std::string &value,
                         const std::vector<std::string> &known);
/** The non-empty items of the @p sep-separated list @p s. */
std::vector<std::string> split_list(const std::string &s, char sep);

/** Engine configuration implied by the common bench flags. */
EngineConfig engine_config(const BenchArgs &args);

/**
 * TelemetrySession implied by --telemetry-dir/--trace-events, or null
 * when neither was given. Constructing the session arms the runtime
 * telemetry gate; the caller owns it and calls flush() after the
 * sweep drains.
 */
std::unique_ptr<TelemetrySession> make_telemetry(const BenchArgs &args);

/**
 * Scheme registry keyed by CLI name ("discard", "permit",
 * "discard-ptw", "iso", "ppf", "ppf-dthr", "dripper", "dripper-sf",
 * "dripper-meta", "dripper-2mb"). Throws JobError(kConfigInvalid) on
 * an unknown name.
 */
SchemeConfig scheme_by_name(const std::string &name,
                            L1dPrefetcherKind kind);

/** All names scheme_by_name accepts (usage messages, validation). */
const std::vector<std::string> &known_scheme_names();

/** All L1D prefetcher names run_sim_job accepts. */
const std::vector<std::string> &known_prefetcher_names();

/**
 * One matrix column: a registry cell (scheme_by_name name, prefetcher,
 * large-page fraction; keyed as the name-based make_matrix keys it) or
 * a bench-defined machine (machine_column).
 */
struct MatrixColumn
{
    std::string scheme;                //!< registry name, or label@fingerprint
    std::string prefetcher = "berti";  //!< L1D prefetcher name
    double large_page_fraction = 0.0;
    std::optional<MachineConfig> machine = std::nullopt;  //!< bench-defined
};

/**
 * Bench-defined column @p label on @p cfg: its jobs' scheme is
 * "<label>@<16 hex digits of config_fingerprint(cfg, 1)>", so job_key
 * covers every MachineConfig leaf; cfg.scheme.name must identify the
 * filter's parameters, which the fingerprint cannot see.
 */
MatrixColumn machine_column(const std::string &label,
                            const MachineConfig &cfg);

/**
 * The dense job matrix of @p columns over @p roster: id = c * |roster|
 * + w. Every job carries @p run budgets and a watchdog step budget
 * derived from them.
 */
std::vector<JobSpec> make_matrix(const std::vector<WorkloadSpec> &roster,
                                 const std::vector<MatrixColumn> &columns,
                                 const RunConfig &run);

/**
 * The registry-cell matrix of every (prefetcher, scheme) pair:
 * column p * |schemes| + s, which is also the CSV emission order.
 */
std::vector<JobSpec>
make_matrix(const std::vector<WorkloadSpec> &roster,
            const std::vector<std::string> &schemes,
            const std::vector<std::string> &prefetchers,
            const RunConfig &run, double large_page_fraction = 0.0);

/**
 * The single-core job body for registry cells: resolves the job's
 * scheme and prefetcher names (an unknown one fails the job as
 * kConfigInvalid), loads the workload (roster generator or trace
 * file), runs it with the engine's watchdog/fault hook, surfaces audit
 * findings, and returns the labelled row.
 */
JobOutput run_sim_job(const JobSpec &spec, JobContext &ctx);

/**
 * Run @p jobs through one JobEngine configured by the common flags.
 * With --shard-dir D, results are kept in the result store at D:
 * stored ones are reported without running, the rest are claimed,
 * run and published, and the returned report covers the whole matrix
 * whichever process ran each job. With --snapshot-dir, warmups go
 * through the snapshot cache. The stores' counters go to stderr.
 *
 * @p telemetry (may be null) is handed down for trace spans and
 * per-run epoch sampling.
 *
 * @throws JobError(kConfigInvalid) when the --shard-dir directory
 *         cannot be created.
 */
EngineReport run_engine(const std::vector<JobSpec> &jobs,
                        const BenchArgs &args, const JobFn &fn,
                        TelemetrySession *telemetry = nullptr);

/**
 * run_engine with the single-core cell body: jobs of a bench-defined
 * machine in @p columns run its MachineConfig, the rest as run_sim_job.
 */
EngineReport run_matrix(const std::vector<JobSpec> &jobs,
                        const BenchArgs &args,
                        const std::vector<MatrixColumn> &columns = {},
                        TelemetrySession *telemetry = nullptr);

/**
 * Metrics of cell (column @p c, workload @p w) of a matrix over
 * @p roster workloads, or null when that job failed or was skipped.
 */
const RunMetrics *cell_metrics(const EngineReport &report,
                               std::size_t roster, std::size_t c,
                               std::size_t w);

/** Accumulates per-workload speedups and reports suite geomeans. */
class SuiteAggregator
{
  public:
    /** Record @p ratio for @p suite (job-completion cadence). */
    SIM_COLD void add(const std::string &suite, double ratio);

    /** Geomean of one suite (1.0 when empty). */
    double suite_geomean(const std::string &suite) const;

    /** Geomean across every recorded ratio. */
    double overall_geomean() const;

    /** Suites recorded, in first-seen order. */
    const std::vector<std::string> &suites() const { return order_; }

    /** Every recorded ratio, in add() order. */
    const std::vector<double> &ratios() const { return ratios_; }

  private:
    std::map<std::string, std::vector<double>> by_suite_;
    std::vector<std::string> order_;
    std::vector<double> ratios_;
};

/**
 * Speedups of column @p c over column @p base of a matrix over
 * @p roster, one per workload whose two cells both completed.
 */
SuiteAggregator column_speedups(const EngineReport &report,
                                const std::vector<WorkloadSpec> &roster,
                                std::size_t c, std::size_t base = 0);

/** column_speedups' overall geomean as a signed percent gain. */
std::string geomean_gain(const EngineReport &report,
                         const std::vector<WorkloadSpec> &roster,
                         std::size_t c, std::size_t base = 0);

/**
 * A harness's exit status for @p report: 0 when every job completed;
 * otherwise the engine summary goes to stderr and the status is 1.
 */
int matrix_exit_status(const EngineReport &report);

/** Fixed-width table printer for the bench harnesses. */
class TablePrinter
{
  public:
    /** @param headers column titles; first column is the row label. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Print the header row + rule. */
    void print_header() const;

    /** Print one row; numeric cells formatted by the caller. */
    void print_row(const std::vector<std::string> &cells) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::size_t> widths_;
};

}  // namespace moka

#endif  // MOKASIM_SIM_EXPERIMENT_H
