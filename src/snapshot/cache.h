/**
 * @file
 * Warmup-snapshot cache: content-addressed snapshot files shared by
 * every job that warms up the same (workload, machine config,
 * warmup_insts, model version) key. In-process callers share one
 * production via a memoized future. Across processes, a key is
 * produced under a lease and published by write-temp + rename
 * (snapshot/store_file.h): waiters poll for the published file while
 * the lease is live, and steal a lease older than kClaimTtlMs, so a
 * producer that died mid-warmup delays them by at most the TTL. A
 * directory that refuses leases (read-only, missing) gets cold,
 * unpublished warmups.
 */
#ifndef MOKASIM_SNAPSHOT_CACHE_H
#define MOKASIM_SNAPSHOT_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "common/hot_path.h"
#include "common/thread_annotations.h"
#include "snapshot/format.h"
#include "snapshot/store_file.h"

namespace moka {

/** Shared, validated snapshot (immutable once it enters the cache). */
using SnapshotBlob = std::shared_ptr<const SnapshotImage>;

/** See file comment. */
class SnapshotCache
{
  public:
    /** Cumulative cache activity (thread-safe reads). */
    struct Stats
    {
        std::uint64_t hits = 0;     //!< reused (memory or disk)
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
        bool hit = false;    //!< reused (memory or disk)
        bool saved = false;  //!< this fetch published to disk
    };

    /**
     * @param dir snapshot directory (created on first publish)
     */
    explicit SnapshotCache(std::string dir);

    /**
     * Return the snapshot for @p key, producing and publishing it on
     * a miss. Bytes are validated once, as they enter the cache (from
     * disk or from @p produce); restoring the blob does not re-check
     * them. Concurrent in-process callers with the same key share
     * one production. A corrupt cached file is classified, counted,
     * removed and treated as a miss — never restored and never fatal.
     *
     * @throws whatever @p produce throws (a failed warmup propagates),
     *         or SnapshotError when its bytes are not a valid snapshot.
     */
    SIM_COLD SnapshotBlob fetch(std::uint64_t key,
                                const Producer &produce,
                                FetchOutcome *outcome = nullptr)
        SIM_EXCLUDES(mu_);

    /** Snapshot directory. */
    const std::string &dir() const { return dir_; }

    /** Activity counters. */
    SIM_COLD Stats stats() const;

    /** Published snapshot path for @p key (tests/diagnostics). */
    SIM_COLD std::string path_for(std::uint64_t key) const;

    /**
     * Age at which another process's claim on a key counts as dead
     * and is stolen. Claims are not heartbeated, so it sits far above
     * any warmup; a live producer that outlasts it costs a duplicate
     * warmup, never a wrong one.
     */
    static constexpr std::uint64_t kClaimTtlMs = 30'000;

  private:
    SIM_COLD SnapshotBlob load_or_produce(std::uint64_t key,
                                          const Producer &produce,
                                          FetchOutcome &outcome);
    /** Validated read of a published file; null when absent/corrupt. */
    SIM_COLD SnapshotBlob try_load(std::uint64_t key);

    std::string dir_;
    LeaseDir leases_;
    SimMutex mu_;
    std::map<std::uint64_t, std::shared_future<SnapshotBlob>> inflight_
        SIM_GUARDED_BY(mu_);
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> saves_{0};
    std::atomic<std::uint64_t> invalid_{0};
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_CACHE_H
