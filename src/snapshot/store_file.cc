#include "snapshot/store_file.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/hashing.h"

namespace moka {
namespace {

namespace fs = std::filesystem;

/**
 * Write @p payload to a new file @p path, created exclusively (the
 * atomic claim: exactly one concurrent caller succeeds). @return
 * kAcquired, kBusy when @p path already exists, or kUnavailable on
 * any other error. A file we created but could not fill is removed,
 * so a half-written lease never lingers.
 */
ClaimOutcome
create_exclusive(const std::string &path, const std::string &payload)
{
    std::FILE *f = std::fopen(path.c_str(), "wbx");
    if (f == nullptr) {
        return errno == EEXIST ? ClaimOutcome::kBusy
                               : ClaimOutcome::kUnavailable;
    }
    bool ok =
        std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        // LINT_IO_OK: cleanup of a lease we report as not created.
        std::remove(path.c_str());
        return ClaimOutcome::kUnavailable;
    }
    return ClaimOutcome::kAcquired;
}

/**
 * Age of @p path's mtime in milliseconds, or -1 when the file is gone
 * (released or reaped under us). A future mtime (clock skew between
 * hosts on a shared filesystem) clamps to age 0: skew can delay a
 * steal by its magnitude, never cause a premature one.
 */
std::int64_t
age_ms(const std::string &path)
{
    std::error_code ec;
    const fs::file_time_type mtime = fs::last_write_time(path, ec);
    if (ec) {
        return -1;
    }
    // LINT_NONDET_OK: lease expiry is wall-clock by design; it gates
    // only *which process* produces a key, never any result value.
    const auto age = fs::file_time_type::clock::now() - mtime;
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(age).count();
    return ms < 0 ? 0 : ms;
}

}  // namespace

std::string
hex_key(std::uint64_t key)
{
    std::ostringstream os;
    os << std::hex;
    os.width(16);
    os.fill('0');
    os << key;
    return os.str();
}

bool
read_file(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        return false;
    }
    const std::streamoff size = is.tellg();
    if (size < 0) {
        return false;
    }
    out.resize(static_cast<std::size_t>(size));
    is.seekg(0);
    is.read(out.data(), size);
    return is.gcount() == size;
}

bool
publish_file(const std::string &path, std::string_view bytes)
{
    // Unique per process and call, so concurrent publishers of one
    // key (a stolen lease's wedged owner) never share a temp file.
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        return false;
    }
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = std::fflush(f) == 0 && ok;
    // A failed close loses buffered bytes: it must not publish.
    ok = std::fclose(f) == 0 && ok;
    ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        // LINT_IO_OK: cleanup of the temp file we failed to publish.
        std::remove(tmp.c_str());
    }
    return ok;
}

LeaseDir::LeaseDir(std::string dir, std::string prefix,
                   std::uint64_t ttl_ms)
    : dir_(std::move(dir)), prefix_(std::move(prefix)), ttl_ms_(ttl_ms)
{
    // The nonce only has to differ between owners racing for one
    // directory: pid, a clock draw and a per-process instance count.
    static std::atomic<std::uint64_t> instances{0};
    // LINT_NONDET_OK: owner-identity nonce, never a result value.
    const auto wall = std::chrono::steady_clock::now().time_since_epoch();
    const std::uint64_t nonce = hash_combine(
        hash_combine(static_cast<std::uint64_t>(::getpid()),
                     static_cast<std::uint64_t>(wall.count())),
        instances.fetch_add(1, std::memory_order_relaxed));
    nonce_ = std::to_string(nonce);
}

std::string
LeaseDir::path(std::uint64_t key) const
{
    return dir_ + "/" + prefix_ + "-" + hex_key(key) + ".lease";
}

bool
LeaseDir::owns(const std::string &path) const
{
    std::string text;
    return read_file(path, text) && text == nonce_;
}

ClaimOutcome
LeaseDir::try_claim(std::uint64_t key) const
{
    const std::string lease = path(key);
    const ClaimOutcome created = create_exclusive(lease, nonce_);
    if (created != ClaimOutcome::kBusy) {
        return created;
    }
    const std::int64_t age = age_ms(lease);
    if (age < 0) {
        // Released between our create and our stat: one retry.
        return create_exclusive(lease, nonce_);
    }
    if (static_cast<std::uint64_t>(age) <= ttl_ms_) {
        return ClaimOutcome::kBusy;  // live owner heartbeat
    }
    // Expired: reap by rename. However many thieves race, exactly one
    // sees it succeed; the losers see ENOENT. A thief that dies here
    // leaves an inert .reap file, and the lease name is free again.
    const std::string reap = lease + ".reap." + nonce_;
    if (std::rename(lease.c_str(), reap.c_str()) != 0) {
        return errno == ENOENT ? ClaimOutcome::kBusy
                               : ClaimOutcome::kUnavailable;
    }
    // LINT_IO_OK: reap-file cleanup; a leftover file is inert.
    std::remove(reap.c_str());
    const ClaimOutcome reclaimed = create_exclusive(lease, nonce_);
    return reclaimed == ClaimOutcome::kAcquired ? ClaimOutcome::kStolen
                                                : reclaimed;
}

bool
LeaseDir::refresh(std::uint64_t key) const
{
    const std::string lease = path(key);
    if (!owns(lease)) {
        return false;  // stolen or vanished: the key is lost
    }
    std::error_code ec;
    fs::last_write_time(lease, fs::file_time_type::clock::now(), ec);
    if (ec) {
        return false;  // reaped between the read and the touch
    }
    // Narrow the touch-vs-steal race: if a thief renamed our lease
    // away and re-created it in the window above, the touch refreshed
    // *its* lease. Re-reading the nonce detects that; the residual
    // window is benign (entries are deterministic).
    return owns(lease);
}

void
LeaseDir::release(std::uint64_t key) const
{
    const std::string lease = path(key);
    if (owns(lease)) {
        // LINT_IO_OK: failing to unlink only delays a peer by one TTL.
        std::remove(lease.c_str());
    }
}

}  // namespace moka
