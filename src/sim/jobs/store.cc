#include "sim/jobs/store.h"

#include <cstdio>
#include <filesystem>
#include <string_view>

#include "common/check.h"
#include "common/fields.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"

namespace moka {
namespace {

/** The one field list of a stored result record (encode, decode). */
template <class IO, class Result>
void
serialize_result(IO &io, Result &res)
{
    io.begin_section("result");
    field_as<std::uint32_t>(io, res.attempts);
    auto &row = res.output.row;
    field(io, row.workload);
    field(io, row.suite);
    field(io, row.scheme);
    field(io, row.prefetcher);
    field(io, row.metrics);
    field(io, res.output.aux, section_room(io, sizeof(double)),
          "aux longer than its section");
}

std::string
encode(std::uint64_t key, const JobResult &res)
{
    SnapshotWriter w(key);
    serialize_result(w, res);
    return w.finish();
}

/** Decode a record into @p res; throws SnapshotError when it is bad. */
void
decode(std::uint64_t key, std::string bytes, JobResult &res)
{
    const SnapshotImage image(std::move(bytes));
    if (image.fingerprint() != key) {
        throw SnapshotError(SnapshotErrorKind::kConfigMismatch,
                            "record key differs from its file name");
    }
    SnapshotReader r(image);
    serialize_result(r, res);
    r.finish();
}

}  // namespace

std::uint64_t
job_key(const JobSpec &spec)
{
    std::uint64_t h = hash_combine(kFnv1aOffset, kModelVersion);
    for_each_leaf(
        [&h](const char *name, const auto &f) {
            const std::string_view field(name);
            // Scheduling fields, not what the job computes.
            if (field != "id" && field != "watchdog_steps") {
                h = hash_leaf(h, f);
            }
        },
        spec);
    return h;
}

ResultStore::ResultStore(std::string dir, std::uint64_t lease_ttl_ms)
    : dir_(std::move(dir)), leases_(dir_, "job", lease_ttl_ms)
{
    SIM_REQUIRE(!dir_.empty(), "result store needs a directory");
    SIM_REQUIRE(lease_ttl_ms > 0, "lease TTL must be positive");
    // A directory we cannot create (a path under a regular file, a
    // missing parent we may not write) is a bad --shard-dir. One that
    // exists but refuses writes still serves its stored results; its
    // jobs run unleased and their publishes fail (see engine.cc).
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        throw JobError(JobErrorCode::kConfigInvalid,
                       "result store: cannot create " + dir_ + ": " +
                           ec.message());
    }
}

std::string
ResultStore::path_for(std::uint64_t key) const
{
    return dir_ + "/job-" + hex_key(key) + ".res";
}

bool
ResultStore::load(std::uint64_t key, JobResult &res)
{
    const std::string path = path_for(key);
    std::string bytes;
    if (!read_file(path, bytes)) {
        return false;
    }
    JobResult stored;
    stored.id = res.id;
    stored.label = res.label;
    stored.status = JobStatus::kCompleted;
    stored.stored = true;
    try {
        decode(key, std::move(bytes), stored);
    } catch (const SnapshotError &) {
        // Torn copy, disk fault, key collision or an older format:
        // drop it and run the job again. Never fatal.
        invalid_.fetch_add(1, std::memory_order_relaxed);
        std::remove(path.c_str());
        return false;
    }
    res = std::move(stored);
    found_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ResultStore::publish(std::uint64_t key, const JobResult &res)
{
    SIM_REQUIRE(res.status == JobStatus::kCompleted,
                "only completed results are stored");
    if (!publish_file(path_for(key), encode(key, res))) {
        return false;
    }
    published_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

ResultStore::Stats
ResultStore::stats() const
{
    Stats s;
    s.found = found_.load(std::memory_order_relaxed);
    s.published = published_.load(std::memory_order_relaxed);
    s.invalid = invalid_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace moka
