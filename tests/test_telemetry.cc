/**
 * @file
 * Tests for the telemetry subsystem: the timeseries buffer,
 * epoch-hook cadence, the golden Chrome trace_event JSON (parse +
 * span nesting), the pinned machine-sampler columns and the
 * end-to-end run-scoped files.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "filter/policies.h"
#include "sim/runner.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeseries.h"

namespace moka {
namespace {

/** Restore the global telemetry gate when a test flips it. */
class GateGuard
{
  public:
    GateGuard() : prev_(telemetry_enabled()) {}
    ~GateGuard() { set_telemetry_enabled(prev_); }

  private:
    bool prev_;
};

std::string
temp_file(const char *tag)
{
    return std::string(::testing::TempDir()) + "moka_tele_" + tag;
}

// ---------------------------------------------------------------------------
// Timeseries + samplers
// ---------------------------------------------------------------------------

TEST(Timeseries, ColumnsFreezeAndRoundTripThroughCsv)
{
    Timeseries ts;
    ts.append({{"a", 1.0}, {"b", 2.5}});
    ts.append({{"a", 3.0}, {"b", -1.0}});
    ASSERT_EQ(ts.columns().size(), 2u);
    EXPECT_EQ(ts.rows(), 2u);
    EXPECT_EQ(ts.at(1, 0), 3.0);
    EXPECT_EQ(ts.at(1, 1), -1.0);

    const std::string path = temp_file("series.csv");
    ASSERT_TRUE(ts.write_csv(path));
    std::ifstream is(path);
    std::string header, row0, row1;
    ASSERT_TRUE(std::getline(is, header));
    ASSERT_TRUE(std::getline(is, row0));
    ASSERT_TRUE(std::getline(is, row1));
    EXPECT_EQ(header, "a,b");
    EXPECT_EQ(row0, "1,2.5");
    EXPECT_EQ(row1, "3,-1");
    std::remove(path.c_str());
}

TEST(EpochSampler, FiresOncePerCadenceWindow)
{
    std::vector<std::uint64_t> fired;
    EpochSampler hook(100, [&fired](std::uint64_t s) { fired.push_back(s); });
    for (std::uint64_t s = 1; s <= 1000; ++s) {
        hook.on_tick(s);
    }
    // Arms at `cadence` and re-arms at fire-step + cadence.
    const std::vector<std::uint64_t> expected = {100, 200, 300, 400, 500,
                                                 600, 700, 800, 900, 1000};
    EXPECT_EQ(fired, expected);
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

TEST(Trace, GoldenJsonMatchesByteForByte)
{
    Tracer tracer(16);
    tracer.register_process(1, "job-engine");
    tracer.register_thread(1, 0, "worker-0");
    tracer.complete(1, 0, "job 0", 100, 400, "{\"status\":\"completed\"}");
    tracer.counter(2, 0, "c0.T_a", 120, "T_a", 3.0);
    tracer.complete(1, 0, "measure", 150, 200);
    tracer.instant(1, 0, "retry", 300, "{\"attempt\":2}");

    std::ostringstream os;
    tracer.write_json(os);
    const std::string golden =
        "{\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"ts\":0,\"args\":{\"name\":\"job-engine\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"ts\":0,\"args\":{\"name\":\"worker-0\"}},\n"
        "{\"name\":\"job 0\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":100,"
        "\"dur\":400,\"args\":{\"status\":\"completed\"}},\n"
        "{\"name\":\"c0.T_a\",\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":120,"
        "\"args\":{\"T_a\":3}},\n"
        "{\"name\":\"measure\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":150,"
        "\"dur\":200},\n"
        "{\"name\":\"retry\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":300,"
        "\"s\":\"t\",\"args\":{\"attempt\":2}}\n"
        "]}\n";
    EXPECT_EQ(os.str(), golden);
}

/** Minimal line-wise event for the structural checks. */
struct ParsedEvent
{
    char ph = '?';
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
};

std::uint64_t
json_u64(const std::string &line, const char *key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = line.find(needle);
    return at == std::string::npos
               ? 0
               : std::strtoull(line.c_str() + at + needle.size(), nullptr,
                               10);
}

std::vector<ParsedEvent>
parse_trace(const std::string &json)
{
    std::istringstream is(json);
    std::string line;
    std::vector<ParsedEvent> events;
    EXPECT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "{\"traceEvents\":[");
    while (std::getline(is, line) && line != "]}") {
        EXPECT_EQ(line.front(), '{');
        const std::size_t ph = line.find("\"ph\":\"");
        EXPECT_NE(ph, std::string::npos) << line;
        ParsedEvent e;
        e.ph = line[ph + 6];
        e.ts = json_u64(line, "ts");
        e.dur = json_u64(line, "dur");
        e.pid = static_cast<std::uint32_t>(json_u64(line, "pid"));
        e.tid = static_cast<std::uint32_t>(json_u64(line, "tid"));
        events.push_back(e);
    }
    EXPECT_EQ(line, "]}");
    return events;
}

TEST(Trace, SpansParseAndNestProperly)
{
    Tracer tracer(64);
    tracer.register_process(1, "engine");
    // Parent span with two children, plus a sibling span after it.
    tracer.complete(1, 0, "job", 100, 900);
    tracer.complete(1, 0, "warmup", 110, 300);
    tracer.complete(1, 0, "measure", 450, 500);
    tracer.complete(1, 0, "next job", 1200, 100);
    std::ostringstream os;
    tracer.write_json(os);

    const auto events = parse_trace(os.str());
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0].ph, 'M');

    std::vector<ParsedEvent> spans;
    for (const ParsedEvent &e : events) {
        if (e.ph == 'X') {
            spans.push_back(e);
        }
    }
    ASSERT_EQ(spans.size(), 4u);
    // Emitted sorted by begin timestamp.
    for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i].ts, spans[i - 1].ts);
    }
    // On one (pid, tid) track, spans must be properly nested: any two
    // either disjoint or one inside the other (Perfetto rejects
    // partial overlap).
    for (std::size_t i = 0; i < spans.size(); ++i) {
        for (std::size_t j = i + 1; j < spans.size(); ++j) {
            const auto &a = spans[i];
            const auto &b = spans[j];
            const bool disjoint =
                a.ts + a.dur <= b.ts || b.ts + b.dur <= a.ts;
            const bool a_in_b =
                b.ts <= a.ts && a.ts + a.dur <= b.ts + b.dur;
            const bool b_in_a =
                a.ts <= b.ts && b.ts + b.dur <= a.ts + a.dur;
            EXPECT_TRUE(disjoint || a_in_b || b_in_a)
                << "spans " << i << " and " << j << " partially overlap";
        }
    }
}

TEST(Trace, RingDropsOldestAndCountsLosses)
{
    Tracer tracer(4);
    for (int i = 0; i < 6; ++i) {
        tracer.complete(0, 0, "e" + std::to_string(i),
                        static_cast<std::uint64_t>(i), 1);
    }
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 2u);
    std::ostringstream os;
    tracer.write_json(os);
    // Oldest two were overwritten; the rest survive in order.
    EXPECT_EQ(os.str().find("\"e0\""), std::string::npos);
    EXPECT_EQ(os.str().find("\"e1\""), std::string::npos);
    EXPECT_NE(os.str().find("\"e2\""), std::string::npos);
    EXPECT_NE(os.str().find("\"e5\""), std::string::npos);
}

TEST(Trace, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(Tracer::escape("a\"b\\c\nd\te\rf"),
              "a\\\"b\\\\c\\nd\\te\\rf");
    EXPECT_EQ(Tracer::escape(std::string(1, '\x01')), "\\u0001");
}

// ---------------------------------------------------------------------------
// Filter telemetry plumbing
// ---------------------------------------------------------------------------

TEST(FilterTelemetry, SumBucketsMatchBounds)
{
    // kSumBounds = {-12, -8, -4, 0, 4, 8, 12}: bucket i holds
    // w_final <= bound[i] (first match), bucket 7 is overflow.
    EXPECT_EQ(FilterTelemetry::sum_bucket(-100), 0u);
    EXPECT_EQ(FilterTelemetry::sum_bucket(-12), 0u);
    EXPECT_EQ(FilterTelemetry::sum_bucket(-11), 1u);
    EXPECT_EQ(FilterTelemetry::sum_bucket(0), 3u);
    EXPECT_EQ(FilterTelemetry::sum_bucket(1), 4u);
    EXPECT_EQ(FilterTelemetry::sum_bucket(12), 6u);
    EXPECT_EQ(FilterTelemetry::sum_bucket(13), 7u);
}

TEST(FilterTelemetry, GateTogglesRuntimeCollection)
{
#if MOKASIM_TELEMETRY_BUILD
    GateGuard guard;
    set_telemetry_enabled(true);
    EXPECT_TRUE(telemetry_enabled());
    set_telemetry_enabled(false);
    EXPECT_FALSE(telemetry_enabled());
#else
    set_telemetry_enabled(true);
    EXPECT_FALSE(telemetry_enabled());  // compiled out: always off
#endif
}

// ---------------------------------------------------------------------------
// End-to-end: run-scoped telemetry files
// ---------------------------------------------------------------------------

TEST(RunTelemetry, InertWithoutSession)
{
    ScopedRunTelemetry scoped(nullptr, nullptr, "x");
    EXPECT_FALSE(scoped.active());
    EXPECT_EQ(scoped.hook(nullptr), nullptr);
    bool ran = false;
    scoped.span("warmup", [&ran] { ran = true; });
    EXPECT_TRUE(ran);  // spans still execute their body
}

TEST(RunTelemetry, WritesEpochFilesAndTrace)
{
#if !MOKASIM_TELEMETRY_BUILD
    GTEST_SKIP() << "telemetry compiled out";
#endif
    GateGuard guard;
    const std::string dir = temp_file("run_dir");
    const std::string trace = dir + "/run.trace.json";
    const RunConfig run{20'000, 80'000};
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti,
                    scheme_dripper(L1dPrefetcherKind::kBerti));
    {
        TelemetrySession session(dir, trace);
        EXPECT_TRUE(session.active());
        EXPECT_TRUE(telemetry_enabled());
        const RunMetrics m =
            simulate(cfg,
                     {[]() { return make_workload(seen_workloads().front()); }},
                     run, nullptr, nullptr, 0, nullptr, &session,
                     "wl.dripper", 3)[0];
        EXPECT_EQ(m.instructions, run.measure_insts);
        EXPECT_FALSE(session.flush().empty());
    }

    std::ifstream csv(dir + "/wl.dripper.epochs.csv");
    ASSERT_TRUE(csv.good());
    std::string header, row;
    ASSERT_TRUE(std::getline(csv, header));
    EXPECT_NE(header.find("c0.ipc"), std::string::npos);
    EXPECT_NE(header.find("c0.t_a"), std::string::npos);
    EXPECT_NE(header.find("c0.pgc_accuracy"), std::string::npos);
    EXPECT_TRUE(std::getline(csv, row));  // at least the final sample

    std::ifstream tr(trace);
    ASSERT_TRUE(tr.good());
    std::stringstream buf;
    buf << tr.rdbuf();
    EXPECT_NE(buf.str().find("\"warmup\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"measure\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"c0.T_a\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"pid\":3"), std::string::npos);
}

TEST(MachineSampler, DripperColumnsArePinned)
{
    // The th_* columns come from ThresholdTelemetry::visit_fields; the
    // pin keeps that list from renaming or reordering them.
    std::vector<WorkloadPtr> wl;
    wl.push_back(make_workload(seen_workloads().front()));
    Machine m(make_config(L1dPrefetcherKind::kBerti,
                          scheme_dripper(L1dPrefetcherKind::kBerti)),
              std::move(wl));
    Timeseries ts;
    MachineSampler sampler(&m, &ts);
    sampler.sample_now();
    const std::vector<std::string> want = {
        "epoch", "steps", "c0.insts", "c0.ipc", "c0.l1d_mpki",
        "c0.llc_mpki", "c0.stlb_mpki", "c0.walk_mpki", "c0.l1d_writebacks",
        "c0.l1d_pf_lookups", "c0.pgc_candidates", "c0.pgc_issued",
        "c0.pgc_useful", "c0.pgc_useless", "c0.pgc_dropped",
        "c0.pgc_accuracy", "c0.t_a", "c0.ta_level", "c0.pgc_disabled",
        "c0.decisions", "c0.permits", "c0.vub_rewards", "c0.pub_rewards",
        "c0.pub_punishes", "c0.sum_mean", "c0.sum_le_-12", "c0.sum_le_-8",
        "c0.sum_le_-4", "c0.sum_le_0", "c0.sum_le_4", "c0.sum_le_8",
        "c0.sum_le_12", "c0.sum_le_inf", "c0.f0_mean_abs_w",
        "c0.th_rob_clamps", "c0.th_acc_clamps", "c0.th_l1i_clamps",
        "c0.th_disable_intervals", "c0.th_epoch_acc_clamps",
        "c0.th_nudges_up", "c0.th_nudges_down", "c0.th_ipc_drop_clamps"};
    EXPECT_EQ(ts.columns(), want);
}

TEST(RunTelemetry, LabelSanitizerKeepsFileNamesSafe)
{
    EXPECT_EQ(TelemetrySession::sanitize_label("mix0/dis card:*?"),
              "mix0_dis_card___");
    EXPECT_EQ(TelemetrySession::sanitize_label("gap.csr.0-x_1"),
              "gap.csr.0-x_1");
}

}  // namespace
}  // namespace moka
