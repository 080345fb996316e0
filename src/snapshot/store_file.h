/**
 * @file
 * The file layer under mokasim's two content-addressed stores, the
 * warmup-snapshot cache (snapshot/cache.h) and the job result store
 * (sim/jobs/store.h). Each store names an entry by a 64-bit key and
 * needs three things from the filesystem:
 *
 *  - read: one whole file into one pre-sized buffer;
 *  - publish: write a temp file, check every write and the close,
 *    then rename it over the entry, so a reader sees either no file
 *    or the complete one, never a torn write;
 *  - lease: at most one process produces a key at a time. A lease is
 *    a file created exclusively (`fopen "wbx"`: the filesystem picks
 *    exactly one winner) whose mtime doubles as a heartbeat the owner
 *    refreshes. A lease older than its TTL belongs to a dead or
 *    wedged owner; a thief renames it aside (rename is atomic, so
 *    concurrent thieves get one winner) and claims the key afresh.
 *
 * Leases are crash-safe but deliberately not race-free: a wedged
 * owner can wake after its lease was stolen and produce the key a
 * second time. Entries are deterministic functions of their key, so
 * that duplicate publish renames identical bytes over identical bytes.
 */
#ifndef MOKASIM_SNAPSHOT_STORE_FILE_H
#define MOKASIM_SNAPSHOT_STORE_FILE_H

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hot_path.h"

namespace moka {

/** @p key as 16 lower-case hex digits (store file names). */
std::string hex_key(std::uint64_t key);

/**
 * Read all of @p path into @p out through one pre-sized buffer.
 * @return false when the file is absent or unreadable.
 */
bool read_file(const std::string &path, std::string &out);

/**
 * Publish @p bytes as @p path: write a temp file next to it, then
 * rename it into place. @return false, leaving neither @p path nor
 * the temp file behind, when a write, the close or the rename fails
 * (disk full, RLIMIT_FSIZE, a vanished directory).
 */
bool publish_file(const std::string &path, std::string_view bytes);

/** What LeaseDir::try_claim found. */
enum class ClaimOutcome : std::uint8_t {
    kAcquired,  //!< fresh lease created; the key is ours
    kStolen,    //!< expired lease reaped, then acquired
    kBusy,      //!< live lease held by another owner (or a lost race)
    /**
     * The directory refuses lease files (read-only, full, not a
     * directory). Nobody can claim the key, so waiting for an owner
     * would never end: callers produce the key unleased.
     */
    kUnavailable,
};

/**
 * One owner's view of the leases in a store directory, named
 * `<dir>/<prefix>-<hex key>.lease`. Each instance carries a nonce, so
 * it can tell its own lease from one a thief re-created under the
 * same name. Distinct keys may be claimed and refreshed from distinct
 * threads at once; one key's lease is driven by one thread.
 */
class LeaseDir
{
  public:
    /**
     * @param dir    store directory (must exist)
     * @param prefix file-name prefix of this store's entries
     * @param ttl_ms a lease whose mtime is older than this is stolen
     */
    LeaseDir(std::string dir, std::string prefix, std::uint64_t ttl_ms);

    /**
     * Try to become the owner of @p key. Never blocks: a live lease
     * yields kBusy at once (callers poll); an expired one is stolen.
     * kBusy means a lease file exists; any other failure to create or
     * reap one is kUnavailable.
     */
    ClaimOutcome try_claim(std::uint64_t key) const;

    /**
     * Heartbeat: push @p key's expiry out by touching its mtime.
     * @return false when the lease is no longer ours (stolen, or the
     * file vanished); the caller must then abandon the key and not
     * publish it. SIM_COLD: called from a machine tick hook, but only
     * at the heartbeat cadence, never per access.
     */
    SIM_COLD bool refresh(std::uint64_t key) const;

    /** Drop @p key's lease if it is still ours (crash = just don't). */
    void release(std::uint64_t key) const;

    /** Lease file of @p key. */
    std::string path(std::uint64_t key) const;

    std::uint64_t ttl_ms() const { return ttl_ms_; }

  private:
    //! Does the lease file at @p path carry our nonce?
    bool owns(const std::string &path) const;

    std::string dir_;
    std::string prefix_;
    std::uint64_t ttl_ms_;
    std::string nonce_;  //!< our lease file's contents
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_STORE_FILE_H
