#include "snapshot/cache.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/check.h"

namespace moka {
namespace {

//! how often a waiter looks for a live producer's publish
constexpr int kPollMs = 100;

}  // namespace

SnapshotCache::SnapshotCache(std::string dir)
    : dir_(std::move(dir)), leases_(dir_, "snap", kClaimTtlMs)
{
    SIM_REQUIRE(!dir_.empty(), "snapshot cache needs a directory");
    // Best effort: a failure here surfaces as cold warmups (claims
    // and publishes fail individually), never as a crash.
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
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
    // Look, then claim, then look again: the previous owner may have
    // published between our first look and our claim. While another
    // process holds a live claim, poll for its publish.
    ClaimOutcome claim = ClaimOutcome::kBusy;
    while (true) {
        if (SnapshotBlob found = try_load(key)) {
            if (claim != ClaimOutcome::kBusy) {
                leases_.release(key);
            }
            hits_.fetch_add(1, std::memory_order_relaxed);
            outcome.hit = true;
            return found;
        }
        if (claim != ClaimOutcome::kBusy) {
            break;
        }
        claim = leases_.try_claim(key);
        if (claim == ClaimOutcome::kBusy) {
            std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
        }
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    SnapshotBlob blob;
    try {
        blob = std::make_shared<const SnapshotImage>(produce());
    } catch (...) {  // LINT_CATCH_OK: claim cleanup only; rethrown
        leases_.release(key);
        throw;
    }
    // An unclaimable directory (read-only, missing) gets a cold
    // warmup and no publish. A failed publish keeps the file private.
    // Either way the blob is still reused in-process.
    if (claim != ClaimOutcome::kUnavailable &&
        publish_file(path_for(key), blob->bytes())) {
        saves_.fetch_add(1, std::memory_order_relaxed);
        outcome.saved = true;
    }
    leases_.release(key);
    return blob;
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
