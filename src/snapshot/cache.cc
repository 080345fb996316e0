#include "snapshot/cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/check.h"

namespace moka {
namespace {

namespace fs = std::filesystem;

/** Bounded wait for a concurrent shard's publish before duplicating. */
constexpr int kClaimPollMs = 100;
constexpr int kClaimPollRounds = 300;  // 30s, far above any warmup

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

/** Whole-file read into one pre-sized buffer; false when unreadable. */
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

}  // namespace

SnapshotCache::SnapshotCache(std::string dir) : dir_(std::move(dir))
{
    SIM_REQUIRE(!dir_.empty(), "snapshot cache needs a directory");
    // Best effort: a failure here surfaces as cold warmups (claim
    // files and publishes fail individually), never as a crash.
    std::error_code ec;
    fs::create_directories(dir_, ec);
}

std::string
SnapshotCache::path_for(std::uint64_t key) const
{
    return dir_ + "/snap-" + hex_key(key) + ".bin";
}

SnapshotCache::Stats
SnapshotCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.saves = saves_.load(std::memory_order_relaxed);
    s.invalid = invalid_.load(std::memory_order_relaxed);
    return s;
}

SnapshotBlob
SnapshotCache::try_load(std::uint64_t key)
{
    const std::string path = path_for(key);
    std::string bytes;
    if (!read_file(path, bytes)) {
        return nullptr;
    }
    try {
        // Full structural validation: magic, version, bounds and
        // every section checksum. The config fingerprint is checked
        // later by Machine::restore_snapshot.
        return std::make_shared<const SnapshotImage>(std::move(bytes));
    } catch (const SnapshotError &) {
        // Corrupt published file (torn copy, disk fault): drop it and
        // fall back to a cold warmup. Never crash, never restore.
        invalid_.fetch_add(1, std::memory_order_relaxed);
        std::remove(path.c_str());
        return nullptr;
    }
}

SnapshotBlob
SnapshotCache::load_or_produce(std::uint64_t key, const Producer &produce,
                               FetchOutcome &outcome)
{
    if (SnapshotBlob found = try_load(key)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        outcome.hit = true;
        return found;
    }

    // Lease-style claim so concurrent shards warming the same key
    // don't all do the work: the claimant produces and publishes,
    // everyone else polls for the published file (bounded), then
    // falls back to a local produce — a duplicate warmup is benign.
    const std::string claim = path_for(key) + ".claim";
    const int fd = ::open(claim.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
        for (int round = 0; round < kClaimPollRounds; ++round) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kClaimPollMs));
            if (SnapshotBlob found = try_load(key)) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                outcome.hit = true;
                return found;
            }
            std::error_code ec;
            if (!fs::exists(claim, ec)) {
                break;  // claimant gone without publishing: produce
            }
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::make_shared<const SnapshotImage>(produce());
    }
    ::close(fd);

    misses_.fetch_add(1, std::memory_order_relaxed);
    try {
        auto blob = std::make_shared<const SnapshotImage>(produce());
        // Write-temp + rename: readers only ever see complete files.
        // close() flushes; a failed flush must not publish a torn file.
        const std::string tmp =
            path_for(key) + ".tmp." + std::to_string(::getpid());
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os.write(blob->bytes().data(),
                 static_cast<std::streamsize>(blob->size()));
        os.close();
        if (os.fail()) {
            std::remove(tmp.c_str());
            std::remove(claim.c_str());
            return blob;  // reuse in-process even if unpublished
        }
        if (std::rename(tmp.c_str(), path_for(key).c_str()) == 0) {
            saves_.fetch_add(1, std::memory_order_relaxed);
            outcome.saved = true;
        } else {
            std::remove(tmp.c_str());
        }
        std::remove(claim.c_str());
        return blob;
    } catch (...) {  // LINT_CATCH_OK: claim cleanup only; rethrown
        std::remove(claim.c_str());
        throw;
    }
}

SnapshotBlob
SnapshotCache::fetch(std::uint64_t key, const Producer &produce,
                     FetchOutcome *outcome)
{
    FetchOutcome local;
    if (outcome == nullptr) {
        outcome = &local;
    }
    std::shared_future<SnapshotBlob> fut;
    bool owner = false;
    std::promise<SnapshotBlob> mine;
    {
        SimMutexLock lock(&mu_);
        auto it = inflight_.find(key);
        if (it == inflight_.end()) {
            owner = true;
            fut = mine.get_future().share();
            inflight_.emplace(key, fut);
        } else {
            fut = it->second;
        }
    }
    if (!owner) {
        // Memoized: the first caller's production (or load) is shared.
        SnapshotBlob blob = fut.get();
        hits_.fetch_add(1, std::memory_order_relaxed);
        outcome->hit = true;
        return blob;
    }
    try {
        SnapshotBlob blob = load_or_produce(key, produce, *outcome);
        mine.set_value(blob);
        return blob;
    } catch (...) {  // LINT_CATCH_OK: propagated to waiters + rethrown
        mine.set_exception(std::current_exception());
        // Drop the poisoned entry so a later attempt can retry cold.
        SimMutexLock lock(&mu_);
        inflight_.erase(key);
        throw;
    }
}

}  // namespace moka
