/**
 * @file
 * Warmup-snapshot cache: content-addressed snapshot files shared by
 * every job that warms up the same (workload, machine config,
 * warmup_insts, model version) key. The cache keeps no blob and no
 * memoized future: each fetch reads the published file (or runs the
 * warmup) into a fresh SnapshotBlob that lives as long as the job
 * restoring it holds it, so a process holds one blob per running job.
 * A key is produced under a lease and published by write-temp +
 * rename (snapshot/store_file.h). The lease elects one producer among
 * threads of this process and other processes alike: waiters poll for
 * the published file while the lease is live, and steal a lease older
 * than kClaimTtlMs, so a producer that died mid-warmup delays them by
 * at most the TTL. A directory that refuses leases or publishes
 * (read-only, missing, full) warms up cold on every fetch, like a run
 * without a snapshot directory.
 */
#ifndef MOKASIM_SNAPSHOT_CACHE_H
#define MOKASIM_SNAPSHOT_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/hot_path.h"
#include "snapshot/format.h"
#include "snapshot/store_file.h"

namespace moka {

/** Shared, validated snapshot (immutable once it is built). */
using SnapshotBlob = std::shared_ptr<const SnapshotImage>;

/** See file comment. */
class SnapshotCache
{
  public:
    /** Cumulative cache activity (thread-safe reads). */
    struct Stats
    {
        std::uint64_t hits = 0;     //!< served from a published file
        std::uint64_t misses = 0;   //!< produced by warmup
        std::uint64_t saves = 0;    //!< published to disk
        std::uint64_t invalid = 0;  //!< corrupt/rejected files dropped

        /** Delta between two polls (interval reporting). */
        Stats operator-(const Stats &o) const
        {
            return {hits - o.hits, misses - o.misses, saves - o.saves,
                    invalid - o.invalid};
        }
    };

    /** Produces snapshot bytes by running the warmup. */
    using Producer = std::function<std::string()>;

    /** What one fetch did (for per-job telemetry counters). */
    struct FetchOutcome
    {
        bool hit = false;    //!< served from a published file
        bool saved = false;  //!< this fetch published to disk
    };

    /**
     * @param dir snapshot directory (created on first publish)
     */
    explicit SnapshotCache(std::string dir);

    /**
     * Return the snapshot for @p key: load its published file, or
     * claim the key, run @p produce and publish the bytes. Bytes are
     * validated once, as they are loaded or produced; restoring the
     * blob does not re-check them. While another caller (a thread of
     * this process or another process) holds the key's lease, this
     * one polls for its publish instead of producing a duplicate. A
     * corrupt published file is classified, counted, removed and
     * treated as a miss — never restored and never fatal.
     *
     * @throws whatever @p produce throws (a failed warmup propagates),
     *         or SnapshotError when its bytes are not a valid snapshot.
     */
    SIM_COLD SnapshotBlob fetch(std::uint64_t key,
                                const Producer &produce,
                                FetchOutcome *outcome = nullptr);

    /** Snapshot directory. */
    const std::string &dir() const { return dir_; }

    /** Activity counters. */
    SIM_COLD Stats stats() const;

    /** Published snapshot path for @p key (tests/diagnostics). */
    SIM_COLD std::string path_for(std::uint64_t key) const;

    /**
     * Age at which another caller's claim on a key counts as dead and
     * is stolen. Claims are not heartbeated, so it sits far above any
     * warmup; a live producer that outlasts it costs a duplicate
     * warmup, never a wrong one.
     */
    static constexpr std::uint64_t kClaimTtlMs = 30'000;

  private:
    /** Validated read of a published file; null when absent/corrupt. */
    SIM_COLD SnapshotBlob try_load(std::uint64_t key);

    std::string dir_;
    LeaseDir leases_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> saves_{0};
    std::atomic<std::uint64_t> invalid_{0};
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_CACHE_H
