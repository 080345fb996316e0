/**
 * @file
 * Simulator-throughput harness behind BENCH_throughput.json: wall-
 * clocks a fixed matrix of (scheme x workload) single-core cells plus
 * one fig19-class 4-core mix cell and emits the JSON trajectory
 * record. Per cell it reports the instructions the machine really
 * executed (Machine::steps()) and their rate, steps/s, next to the
 * budget rate, inst/s (cores x (warmup + measure) / wall), and their
 * ratio, the replay factor. A multicore cell's fast cores keep
 * running until the slowest core reaches its budget, so its budget
 * rate understates the work several-fold; single-core cells replay
 * nothing (factor 1).
 *
 * Two numbers matter downstream:
 *   - fig19_class_steps_per_sec: the rate on the 4-core mix that
 *     bottlenecks real sweeps;
 *   - geomean_steps_per_sec: geometric mean over every cell, the gate
 *     value tools/ci_perf_throughput.sh compares against the
 *     committed baseline.
 *
 * With --baseline <BENCH_throughput.json>, the run exits non-zero
 * when its geomean falls more than the baseline's max_regression_pct
 * below the baseline geomean. Absolute rates are machine-specific,
 * so the gate is meant to compare runs on the same machine class
 * (CI runner vs CI runner, laptop vs laptop) — the committed numbers
 * double as the reference-machine trajectory.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "filter/policies.h"
#include "sim/machine.h"
#include "sim/runner.h"
#include "trace/suites.h"

using namespace moka;

namespace {

struct Cell
{
    const char *scheme;
    std::vector<const char *> workloads;  //!< one per core
    InstCount warmup;
    InstCount measure;
};

// The matrix: every PGC scheme over a streaming and an irregular
// single-core workload, plus the fig19-class 4-core mix the sweeps
// are bottlenecked on. Budgets are sized so a full default run stays
// in tens of seconds on a laptop while each cell simulates enough
// instructions that process startup is noise.
const Cell kCells[] = {
    {"discard", {"parsec.stream.0"}, 100'000, 1'000'000},
    {"permit", {"parsec.stream.0"}, 100'000, 1'000'000},
    {"ppf", {"parsec.stream.0"}, 100'000, 1'000'000},
    {"dripper", {"parsec.stream.0"}, 100'000, 1'000'000},
    {"discard", {"spec06.gather.1"}, 100'000, 1'000'000},
    {"permit", {"spec06.gather.1"}, 100'000, 1'000'000},
    {"ppf", {"spec06.gather.1"}, 100'000, 1'000'000},
    {"dripper", {"spec06.gather.1"}, 100'000, 1'000'000},
    {"dripper",
     {"spec06.gather.1", "spec06.stream.3", "spec06.hash.4",
      "spec06.chase.7"},
     200'000, 2'000'000},
};
constexpr std::size_t kFig19Cell = 8;  //!< index of the 4-core mix

const WorkloadSpec &
spec_of(const std::string &name)
{
    static const std::vector<WorkloadSpec> roster = seen_workloads();
    for (const WorkloadSpec &s : roster) {
        if (s.name == name) {
            return s;
        }
    }
    std::fprintf(stderr, "throughput: unknown workload %s\n",
                 name.c_str());
    std::exit(2);
}

SchemeConfig
scheme_of(const std::string &name)
{
    if (name == "dripper") {
        return scheme_dripper(L1dPrefetcherKind::kBerti);
    }
    if (name == "permit") {
        return scheme_permit();
    }
    if (name == "ppf") {
        return scheme_ppf(false);
    }
    return scheme_discard();
}

/** What one timed simulation of a cell did. */
struct Timing
{
    double secs = 0.0;        //!< wall clock, construction included
    std::uint64_t steps = 0;  //!< Machine::steps() at the end
};

/** One timed simulation of @p cell. */
Timing
run_cell(const Cell &cell)
{
    const unsigned cores = static_cast<unsigned>(cell.workloads.size());
    MachineConfig cfg = default_config(cores);
    cfg.scheme = scheme_of(cell.scheme);
    cfg.l1d_prefetcher = L1dPrefetcherKind::kBerti;
    std::vector<WorkloadPtr> wl;
    for (const char *name : cell.workloads) {
        wl.push_back(make_workload(spec_of(name)));
    }
    const auto begin = std::chrono::steady_clock::now();
    Machine m(cfg, std::move(wl));
    m.run(cell.warmup);
    m.start_measurement();
    m.run(cell.measure);
    const auto end = std::chrono::steady_clock::now();
    return {std::chrono::duration<double>(end - begin).count(), m.steps()};
}

/** Extract `"key": <number>` from a JSON baseline (flat schema). */
bool
json_number(const std::string &text, const std::string &key, double &out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) {
        return false;
    }
    out = std::strtod(text.c_str() + at + needle.size(), nullptr);
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    int reps = 3;
    std::string out_path = "BENCH_throughput.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--reps" && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: throughput [--reps N] [--out FILE] "
                         "[--baseline BENCH_throughput.json]\n");
            return 2;
        }
    }
    if (reps < 1) {
        reps = 1;
    }

#if defined(MOKASIM_FAST_BUILD)
    const char *build = "fast";
#else
    const char *build = "default";
#endif

    std::printf("== throughput: %zu cells, best of %d, %s build ==\n",
                std::size(kCells), reps, build);

    std::ostringstream cells_json;
    double log_ips = 0.0;
    double log_sps = 0.0;
    double fig19_ips = 0.0;
    double fig19_sps = 0.0;
    for (std::size_t c = 0; c < std::size(kCells); ++c) {
        const Cell &cell = kCells[c];
        const unsigned cores =
            static_cast<unsigned>(cell.workloads.size());
        const double insts = static_cast<double>(cores) *
                             static_cast<double>(cell.warmup +
                                                 cell.measure);
        // Steps are deterministic; only the wall varies between reps.
        Timing best;
        for (int r = 0; r < reps; ++r) {
            const Timing t = run_cell(cell);
            if (best.secs == 0.0 || t.secs < best.secs) {
                best = t;
            }
        }
        const double steps = static_cast<double>(best.steps);
        const double ips = insts / best.secs;
        const double sps = steps / best.secs;
        const double replay = steps / insts;
        log_ips += std::log(ips);
        log_sps += std::log(sps);
        if (c == kFig19Cell) {
            fig19_ips = ips;
            fig19_sps = sps;
        }
        std::string label = std::string(cell.scheme) + "/";
        label += cores == 1 ? cell.workloads[0] : "mix4";
        std::printf("%-28s %2u core(s)  %7.1f ms  %9.0f steps/s  "
                    "replay %.2fx  %9.0f inst/s\n",
                    label.c_str(), cores, best.secs * 1e3, sps, replay,
                    ips);
        if (c != 0) {
            cells_json << ",\n";
        }
        cells_json << "    {\"scheme\": \"" << cell.scheme
                   << "\", \"workload\": \""
                   << (cores == 1 ? cell.workloads[0] : "mix4")
                   << "\", \"cores\": " << cores << ", \"insts\": "
                   << static_cast<long long>(insts)
                   << ", \"steps\": " << best.steps
                   << ", \"wall_ms\": " << best.secs * 1e3
                   << ", \"steps_per_sec\": "
                   << static_cast<long long>(sps)
                   << ", \"replay_factor\": " << replay
                   << ", \"inst_per_sec\": "
                   << static_cast<long long>(ips) << "}";
    }
    const double n = static_cast<double>(std::size(kCells));
    const double geomean_ips = std::exp(log_ips / n);
    const double geomean = std::exp(log_sps / n);
    std::printf("geomean: %.0f steps/s (%.0f inst/s)   fig19-class: "
                "%.0f steps/s (%.0f inst/s)\n",
                geomean, geomean_ips, fig19_sps, fig19_ips);

    std::ofstream out(out_path);
    out << "{\n"
        << "  \"build\": \"" << build << "\",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"cells\": [\n"
        << cells_json.str() << "\n  ],\n"
        << "  \"fig19_class_steps_per_sec\": "
        << static_cast<long long>(fig19_sps) << ",\n"
        << "  \"geomean_steps_per_sec\": "
        << static_cast<long long>(geomean) << ",\n"
        << "  \"fig19_class_inst_per_sec\": "
        << static_cast<long long>(fig19_ips) << ",\n"
        << "  \"geomean_inst_per_sec\": "
        << static_cast<long long>(geomean_ips) << ",\n"
        // Single cells wobble up to ~15% run-to-run on a shared box
        // and runner hardware varies more, so the floor is sized to
        // catch step-function regressions (a reintroduced per-access
        // allocation, a de-flattened table), not single-digit drift.
        << "  \"max_regression_pct\": 25\n"
        << "}\n";
    out.close();
    std::printf("wrote %s\n", out_path.c_str());

    if (baseline_path.empty()) {
        return 0;
    }
    std::ifstream in(baseline_path);
    if (!in) {
        std::fprintf(stderr, "throughput: cannot read baseline %s\n",
                     baseline_path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    double base_geomean = 0.0;
    double max_pct = 0.0;
    if (!json_number(text, "geomean_steps_per_sec", base_geomean) ||
        !json_number(text, "max_regression_pct", max_pct)) {
        std::fprintf(stderr,
                     "throughput: baseline %s lacks "
                     "geomean_steps_per_sec / max_regression_pct\n",
                     baseline_path.c_str());
        return 2;
    }
    const double floor = base_geomean * (1.0 - max_pct / 100.0);
    std::printf("baseline geomean: %.0f steps/s, floor at -%.0f%%: %.0f\n",
                base_geomean, max_pct, floor);
    if (geomean < floor) {
        std::fprintf(stderr,
                     "throughput: geomean %.0f steps/s regressed more "
                     "than %.0f%% below the baseline %.0f\n",
                     geomean, max_pct, base_geomean);
        return 1;
    }
    std::printf("throughput gate: PASS\n");
    return 0;
}
