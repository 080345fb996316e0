/** @file Integration tests: whole-machine simulation. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/access.h"
#include "filter/policies.h"
#include "sim/multicore.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {
namespace {

WorkloadSpec
pick(Family family)
{
    for (const WorkloadSpec &s : seen_workloads()) {
        if (s.family == family) {
            return s;
        }
    }
    ADD_FAILURE() << "family missing from roster";
    return seen_workloads().front();
}

RunConfig
quick_run()
{
    RunConfig run;
    run.warmup_insts = 20'000;
    run.measure_insts = 80'000;
    return run;
}

TEST(Machine, RunsRequestedInstructions)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_EQ(m.instructions, 80'000u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.ipc(), 0.0);
    EXPECT_LT(m.ipc(), 6.0);  // cannot beat the core width
}

TEST(Machine, DeterministicAcrossRuns)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti,
                    scheme_dripper(L1dPrefetcherKind::kBerti));
    const WorkloadSpec spec = pick(Family::kCsr);
    const RunMetrics a = run_single(cfg, spec, quick_run());
    const RunMetrics b = run_single(cfg, spec, quick_run());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1d.misses, b.l1d.misses);
    EXPECT_EQ(a.pgc_issued, b.pgc_issued);
    EXPECT_EQ(a.pgc_dropped, b.pgc_dropped);
}

TEST(Machine, DiscardNeverWalksSpeculatively)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_EQ(m.spec_walks, 0u);
    EXPECT_EQ(m.pgc_issued, 0u);
    EXPECT_GT(m.pgc_dropped, 0u);  // candidates existed and were dropped
}

TEST(Machine, PermitIssuesAndWalks)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_permit());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_GT(m.pgc_issued, 0u);
    EXPECT_GT(m.spec_walks, 0u);
    EXPECT_EQ(m.pgc_dropped, 0u);
}

TEST(Machine, DiscardPtwNeverWalksButMayIssue)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard_ptw());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_EQ(m.spec_walks, 0u);
    // TLB-resident crossings still issue.
    EXPECT_GT(m.pgc_issued + m.pgc_dropped, 0u);
}

TEST(Machine, TileIsHostileStreamIsFriendly)
{
    const RunConfig run = quick_run();
    const WorkloadSpec tile = pick(Family::kTile);
    const RunMetrics tile_permit = run_single(
        make_config(L1dPrefetcherKind::kBerti, scheme_permit()), tile,
        run);
    // Page-cross prefetches on the tile pattern are useless.
    EXPECT_GT(tile_permit.pgc_useless, tile_permit.pgc_useful);

    const WorkloadSpec stream = pick(Family::kStream);
    const RunMetrics stream_permit = run_single(
        make_config(L1dPrefetcherKind::kBerti, scheme_permit()), stream,
        run);
    EXPECT_GT(stream_permit.pgc_useful, stream_permit.pgc_useless);
}

TEST(Machine, MeasuredRegionExcludesWarmup)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(pick(Family::kStream)));
    Machine machine(cfg, std::move(w));
    machine.run(50'000);
    machine.start_measurement();
    machine.run(50'000);
    const RunMetrics m = machine.measured(0);
    EXPECT_EQ(m.instructions, 50'000u);
    // Cumulative metrics cover both regions.
    EXPECT_EQ(machine.metrics(0).instructions, 100'000u);
}

/** Records the steps it sees; asks for every 1000th. */
class EveryThousandthStep final : public RunTickHook
{
  public:
    void on_tick(std::uint64_t steps) override { seen.push_back(steps); }

    std::uint64_t next_tick(std::uint64_t steps) override
    {
        return (steps / 1000 + 1) * 1000;
    }

    std::vector<std::uint64_t> seen;
};

TEST(Machine, HookSeesExactlyTheStepsItAskedFor)
{
    // Two runs on one machine: steps count across run() calls, and
    // each run asks the hook afresh where it stands.
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(pick(Family::kStream)));
    Machine machine(cfg, std::move(w));
    EveryThousandthStep hook;
    machine.run(2'500, &hook);
    machine.run(2'500, &hook);
    ASSERT_GE(machine.steps(), 5'000u);
    std::vector<std::uint64_t> expected;
    for (std::uint64_t s = 1000; s <= machine.steps(); s += 1000) {
        expected.push_back(s);
    }
    EXPECT_EQ(hook.seen, expected);
}

/** ALU instructions round a 64-instruction loop: no memory traffic. */
class AluLoop final : public Workload
{
  public:
    TraceInst next() override
    {
        TraceInst inst;
        inst.pc = 0x1000 + (pos_++ % 64) * 4;
        return inst;
    }

    const std::string &name() const override { return name_; }

  private:
    std::uint64_t pos_ = 0;
    std::string name_ = "alu.loop";
};

/** Appends its core's index to a log on every next() it forwards. */
class LoggedWorkload final : public Workload
{
  public:
    LoggedWorkload(WorkloadPtr inner, std::uint8_t core,
                   std::vector<std::uint8_t> &log)
        : inner_(std::move(inner)), core_(core), log_(log)
    {
    }

    TraceInst next() override
    {
        log_.push_back(core_);
        return inner_->next();
    }

    const std::string &name() const override { return inner_->name(); }

  private:
    WorkloadPtr inner_;
    std::uint8_t core_;
    std::vector<std::uint8_t> &log_;
};

/** Two ALU loops, whose clocks tie, and a stream, logging into @p log. */
std::unique_ptr<Machine>
logged_machine(std::vector<std::uint8_t> &log)
{
    std::vector<WorkloadPtr> w;
    w.push_back(std::make_unique<LoggedWorkload>(
        std::make_unique<AluLoop>(), 0, log));
    w.push_back(std::make_unique<LoggedWorkload>(
        make_workload(pick(Family::kStream)), 1, log));
    w.push_back(std::make_unique<LoggedWorkload>(
        std::make_unique<AluLoop>(), 2, log));
    return std::make_unique<Machine>(
        make_config(L1dPrefetcherKind::kBerti, scheme_discard()),
        std::move(w));
}

/**
 * Machine::run's core order by a full scan before every step: the
 * core with the lowest clock, the lower index on a tie, until every
 * core has retired @p insts more. Returns the picks that broke a tie.
 */
std::uint64_t
run_by_full_scan(Machine &m, InstCount insts)
{
    const std::size_t n = m.num_cores();
    std::vector<InstCount> target(n);
    std::vector<std::uint8_t> crossed(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        target[i] = m.core(i).retired() + insts;
    }
    std::size_t remaining = n;
    std::uint64_t ties = 0;
    while (remaining > 0) {
        std::size_t pick = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (m.core(i).now() < m.core(pick).now()) {
                pick = i;
            }
        }
        for (std::size_t i = pick + 1; i < n; ++i) {
            ties += m.core(i).now() == m.core(pick).now();
        }
        m.core(pick).step();
        if (crossed[pick] == 0 && m.core(pick).retired() >= target[pick]) {
            crossed[pick] = 1;
            --remaining;
        }
    }
    return ties;
}

TEST(Machine, RunStepsCoresInFullScanOrder)
{
    std::vector<std::uint8_t> ran;
    std::vector<std::uint8_t> scanned;
    const std::unique_ptr<Machine> machine = logged_machine(ran);
    const std::unique_ptr<Machine> reference = logged_machine(scanned);
    std::uint64_t ties = 0;
    for (const InstCount insts : {InstCount{3'000}, InstCount{2'000}}) {
        machine->run(insts);
        ties += run_by_full_scan(*reference, insts);
        ASSERT_EQ(ran, scanned);
    }
    EXPECT_EQ(ran.size(), machine->steps());
    EXPECT_GT(ties, 1'000u);
    for (std::uint8_t core = 0; core < 3; ++core) {
        EXPECT_GE(std::count(ran.begin(), ran.end(), core), 5'000);
    }
}

TEST(Machine, LargePagesReduceWalkLevels)
{
    MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    const WorkloadSpec spec = pick(Family::kGather);
    const RunMetrics small = run_single(cfg, spec, quick_run());
    cfg.vmem.large_page_fraction = 1.0;
    const RunMetrics large = run_single(cfg, spec, quick_run());
    // 2MB pages collapse TLB pressure for the same access pattern.
    EXPECT_LT(large.stlb_mpki(), small.stlb_mpki() * 0.7 + 0.1);
}

TEST(Machine, IsoStorageEnlargesPrefetcher)
{
    // Smoke: ISO Storage must run and permit page crossing.
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kIpcp, scheme_iso_storage());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_GT(m.pf_issued, 0u);
}

TEST(Machine, DripperStaysCloseToBestStatic)
{
    // Functional sanity on one friendly and one hostile workload:
    // DRIPPER must not sit below both statics on either.
    const RunConfig run{50'000, 200'000};
    for (Family fam : {Family::kStream, Family::kTile}) {
        const WorkloadSpec spec = pick(fam);
        const double base =
            run_single(make_config(L1dPrefetcherKind::kBerti,
                                   scheme_discard()),
                       spec, run)
                .ipc();
        const double permit =
            run_single(make_config(L1dPrefetcherKind::kBerti,
                                   scheme_permit()),
                       spec, run)
                .ipc();
        const double dripper =
            run_single(make_config(L1dPrefetcherKind::kBerti,
                                   scheme_dripper(
                                       L1dPrefetcherKind::kBerti)),
                       spec, run)
                .ipc();
        EXPECT_GT(dripper, std::min(base, permit) * 0.995)
            << "family " << static_cast<int>(fam);
    }
}

/** Slots of every map of @p pt: page map, large-page map, tables. */
std::vector<std::size_t>
map_slots(const PageTable &pt)
{
    std::vector<std::size_t> out = {
        AuditAccess::page_map(pt).capacity_slots(),
        AuditAccess::large_page_map(pt).capacity_slots()};
    for (const FlatAddrMap &table : AuditAccess::tables(pt)) {
        out.push_back(table.capacity_slots());
    }
    return out;
}

/**
 * Run @p m for @p insts per core: every core's page table must map no
 * more pages than its workload declared, and no map may grow.
 */
void
expect_inside_page_bounds(Machine &m, InstCount insts)
{
    std::vector<std::vector<std::size_t>> reserved;
    for (std::size_t i = 0; i < m.num_cores(); ++i) {
        reserved.push_back(map_slots(m.core(i).page_table()));
    }
    m.run(insts);
    for (std::size_t i = 0; i < m.num_cores(); ++i) {
        SCOPED_TRACE("core " + std::to_string(i));
        const PageTable &pt = m.core(i).page_table();
        EXPECT_GT(pt.page_bound(), 0u);
        EXPECT_LE(pt.mapped_pages(), pt.page_bound());
        EXPECT_EQ(map_slots(pt), reserved[i]);
    }
}

TEST(Machine, PageTablesStayInsideTheirWorkloadsBound)
{
    // Every seen and unseen workload under Permit, which walks for
    // every page-cross prefetch. Each runs one of six configurations,
    // taken in turn within its family, so every family meets every
    // L1D prefetcher and Berti over half 2MB pages.
    std::vector<MachineConfig> configs;
    for (const L1dPrefetcherKind kind :
         {L1dPrefetcherKind::kBerti, L1dPrefetcherKind::kIpcp,
          L1dPrefetcherKind::kBop, L1dPrefetcherKind::kStride,
          L1dPrefetcherKind::kNextLine}) {
        configs.push_back(make_config(kind, scheme_permit()));
    }
    configs.push_back(configs.front());
    configs.back().vmem.large_page_fraction = 0.5;

    std::vector<WorkloadSpec> roster = seen_workloads();
    for (WorkloadSpec &spec : unseen_workloads()) {
        roster.push_back(std::move(spec));
    }
    std::map<Family, std::size_t> turn;
    for (const WorkloadSpec &spec : roster) {
        const std::size_t c = turn[spec.family]++ % configs.size();
        SCOPED_TRACE(spec.name + " / configuration " + std::to_string(c));
        std::vector<WorkloadPtr> w;
        w.push_back(make_workload(spec));
        Machine m(configs[c], std::move(w));
        expect_inside_page_bounds(m, 50'000);
    }

    // One 8-core mix, every core on its own bounded table.
    MachineConfig cfg = default_config(8);
    cfg.scheme = scheme_permit();
    const std::vector<std::vector<WorkloadSpec>> mixes =
        make_mixes(seen_workloads(), 1, 8, /*seed=*/7);
    std::vector<WorkloadPtr> w;
    for (const WorkloadSpec &spec : mixes.front()) {
        w.push_back(make_workload(spec));
    }
    Machine mix(cfg, std::move(w));
    expect_inside_page_bounds(mix, 50'000);
}

TEST(Machine, L2PrefetcherFillsL2)
{
    MachineConfig cfg =
        make_config(L1dPrefetcherKind::kNextLine, scheme_discard());
    cfg.l2_prefetcher = L2PrefetcherKind::kSpp;
    const RunMetrics with = run_single(cfg, pick(Family::kStream),
                                       quick_run());
    EXPECT_GT(with.instructions, 0u);  // smoke: SPP path executes
}

}  // namespace
}  // namespace moka
