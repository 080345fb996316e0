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

void
put_string(SnapshotWriter &w, const std::string &s)
{
    w.put_u64(s.size());
    w.put_bytes(s.data(), s.size());
}

std::string
get_string(SnapshotReader &r)
{
    const std::uint64_t n = r.get_u64();
    if (n > r.remaining()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "string longer than its section");
    }
    std::string s(n, '\0');
    r.get_bytes(s.data(), n);
    return s;
}

std::string
encode(std::uint64_t key, const JobResult &res)
{
    SnapshotWriter w(key);
    w.begin_section("result");
    w.put_u32(static_cast<std::uint32_t>(res.attempts));
    const ResultRow &row = res.output.row;
    put_string(w, row.workload);
    put_string(w, row.suite);
    put_string(w, row.scheme);
    put_string(w, row.prefetcher);
    put_fields(w, row.metrics);
    w.put_u64(res.output.aux.size());
    for (const double v : res.output.aux) {
        w.put_f64(v);
    }
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
    r.begin_section("result");
    res.attempts = static_cast<int>(r.get_u32());
    ResultRow &row = res.output.row;
    row.workload = get_string(r);
    row.suite = get_string(r);
    row.scheme = get_string(r);
    row.prefetcher = get_string(r);
    get_fields(r, row.metrics);
    const std::uint64_t n = r.get_u64();
    if (n > r.remaining() / sizeof(double)) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "aux longer than its section");
    }
    res.output.aux.resize(n);
    for (double &v : res.output.aux) {
        v = r.get_f64();
    }
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
            if (field != "id" && field != "watchdog_steps" &&
                field != "estimated_cost") {
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
