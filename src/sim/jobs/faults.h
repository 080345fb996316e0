/**
 * @file
 * Seeded fault injection for the job engine. A FaultPlan drives two
 * kinds of damage, both fully deterministic in (seed, job, attempt):
 *
 *  - machine faults: throw a classified error at the Nth machine tick
 *    or stall the worker mid-run until the watchdog cancels it —
 *    delivered through the engine's RunTickHook chain;
 *  - trace faults: byte-level damage to trace files (bit-flipped
 *    magic, truncated header/records, flipped body bytes) exercising
 *    the classified trace_io error paths;
 *  - process faults (ProcessFaultPlan): seeded self-SIGKILL at the
 *    claim/run/commit boundaries of a job run against a result store
 *    (sim/jobs/store.h), as one process of a multi-process farm.
 *
 * Every recovery path of the engine (isolation, retry, watchdog,
 * partial-results reporting, resume from the store, lease expiry and
 * steal) is exercised in tests and CI by running real sweeps under a
 * FaultPlan / ProcessFaultPlan.
 */
#ifndef MOKASIM_SIM_JOBS_FAULTS_H
#define MOKASIM_SIM_JOBS_FAULTS_H

#include <atomic>
#include <cstdint>
#include <string>

namespace moka {

/** Fault-injection configuration (all rates are per job attempt). */
struct FaultPlan
{
    bool enabled = false;
    std::uint64_t seed = 1;
    double throw_rate = 0.0;      //!< P(classified throw at a random tick)
    double stall_rate = 0.0;      //!< P(worker stalls until the watchdog)
    double transient_rate = 0.5;  //!< P(an injected throw is transient)
    std::uint64_t stall_ms = 50;  //!< how long a stalled worker sleeps
};

/**
 * Deterministic per-(job, attempt) fault oracle. The decision depends
 * only on the plan seed, the job id and the attempt number — never on
 * the worker thread or wall clock — so a faulted sweep produces the
 * same statuses under any --jobs N, and a transient fault usually
 * clears on retry (the attempt re-rolls the dice).
 */
class FaultInjector
{
  public:
    struct Decision
    {
        enum class Kind : std::uint8_t { kNone, kThrow, kStall };
        Kind kind = Kind::kNone;
        std::uint64_t at_tick = 0;  //!< machine step the fault fires at
        bool transient = false;     //!< injected throws: retryable?
    };

    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    /** The fault (or not) for attempt @p attempt (1-based) of job @p id. */
    Decision decide(std::size_t id, int attempt) const;

    const FaultPlan &plan() const { return plan_; }

  private:
    FaultPlan plan_;
};

/**
 * Where in the engine's store loop a process fault can fire: right
 * after a job's lease is acquired, right before the job body runs, or
 * right before the finished result is published.
 */
enum class ShardFaultPoint : std::uint8_t { kClaim, kRun, kCommit };

/** Stable trace/report name of @p point ("claim", "run", "commit"). */
const char *to_string(ShardFaultPoint point);

/** Process-level fault configuration for multi-process sweeps. */
struct ProcessFaultPlan
{
    bool enabled = false;
    std::uint64_t seed = 1;
    //! P(self-SIGKILL) per boundary crossing — evaluated at every
    //! claim/run/commit boundary the process passes, so any nonzero
    //! rate kills the process eventually (chaos drills rely on this)
    double kill_rate = 0.0;
};

/**
 * Deterministic process-fault oracle. Each boundary crossing draws
 * from a stream keyed on (seed, crossing index, point, job), so the
 * decision sequence replays exactly for a given interleaving, and
 * unit tests can pin individual decisions without racing.
 *
 * maybe_kill delivers SIGKILL to the calling process — the honest
 * crash: no destructors, no atexit, leases left behind mid-TTL —
 * which is precisely what the lease-recovery machinery must survive.
 */
class ProcessFaultInjector
{
  public:
    explicit ProcessFaultInjector(const ProcessFaultPlan &plan)
        : plan_(plan)
    {
    }

    /** Would crossing (@p point, @p job) kill? Advances the stream. */
    bool should_kill(ShardFaultPoint point, std::size_t job);

    /** raise(SIGKILL) when should_kill says so; otherwise a no-op. */
    void maybe_kill(ShardFaultPoint point, std::size_t job);

    const ProcessFaultPlan &plan() const { return plan_; }

  private:
    ProcessFaultPlan plan_;
    std::atomic<std::uint64_t> crossings_{0};
};

/** Byte-level trace damage modes (see corrupt_trace_file). */
enum class TraceFault : std::uint8_t {
    kBitFlipMagic,     //!< flip one bit inside the 8-byte magic
    kTruncateHeader,   //!< cut the file inside the 16-byte header
    kTruncateRecords,  //!< cut the last record short at EOF
    kBitFlipBody,      //!< flip one bit in a seed-chosen record byte
};

/**
 * Apply @p fault to the trace file at @p path in place (seeded, so a
 * given (fault, seed) always damages the same byte).
 * @return false when the file cannot be read/rewritten or is too
 *         short to damage in the requested mode.
 */
bool corrupt_trace_file(const std::string &path, TraceFault fault,
                        std::uint64_t seed);

}  // namespace moka

#endif  // MOKASIM_SIM_JOBS_FAULTS_H
