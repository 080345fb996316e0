/**
 * @file
 * Content-addressed job result store: the one on-disk form of a
 * sweep's progress (`--shard-dir`). A completed job is one file,
 * `<dir>/job-<key>.res`, named by job_key(spec). The engine
 * (engine.h) reports the keys it finds, claims the rest through the
 * shared lease (snapshot/store_file.h), runs them and publishes each
 * result. So a rerun over the same directory resumes, N processes on
 * one directory form a farm, and each of them returns the whole
 * matrix.
 *
 * A record is a snapshot container (snapshot/format.h): the key sits
 * in the header's fingerprint slot and is checked on read, and one
 * checksummed section holds the attempts, the ResultRow and aux. Only
 * completed results are stored; a failed or skipped job leaves no
 * file and the next run retries it. A corrupt, key-mismatched or
 * old-version record is counted, removed and re-run, never fatal.
 */
#ifndef MOKASIM_SIM_JOBS_STORE_H
#define MOKASIM_SIM_JOBS_STORE_H

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/jobs/job.h"
#include "snapshot/store_file.h"

namespace moka {

/**
 * Store key of @p spec: every JobSpec field except `id` and
 * `watchdog_steps`, plus kModelVersion. A field added to JobSpec
 * lands in the key, or its visit_fields fails the member-count check.
 */
std::uint64_t job_key(const JobSpec &spec);

/** See file comment. Thread-safe for distinct keys. */
class ResultStore
{
  public:
    struct Stats
    {
        std::uint64_t found = 0;      //!< results read back
        std::uint64_t published = 0;  //!< results written
        std::uint64_t invalid = 0;    //!< bad records removed
    };

    /**
     * @param dir          store directory (created if missing)
     * @param lease_ttl_ms a claim whose heartbeat is older is stolen
     * @throws JobError(kConfigInvalid) when @p dir cannot be created
     */
    ResultStore(std::string dir, std::uint64_t lease_ttl_ms);

    /**
     * Read the result stored under @p key into @p res (status,
     * attempts and output; id and label are kept). @return false when
     * there is none, or the record was bad and has been removed.
     */
    bool load(std::uint64_t key, JobResult &res);

    /**
     * Store completed @p res under @p key. @return false when the
     * publish failed; no file is left then and the job reruns later.
     */
    bool publish(std::uint64_t key, const JobResult &res);

    /** Job claims: one process runs a key at a time. */
    const LeaseDir &leases() const { return leases_; }

    /** Record path of @p key. */
    std::string path_for(std::uint64_t key) const;

    Stats stats() const;

  private:
    std::string dir_;
    LeaseDir leases_;
    std::atomic<std::uint64_t> found_{0};
    std::atomic<std::uint64_t> published_{0};
    std::atomic<std::uint64_t> invalid_{0};
};

}  // namespace moka

#endif  // MOKASIM_SIM_JOBS_STORE_H
