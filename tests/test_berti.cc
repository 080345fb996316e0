/** @file Unit tests for the Berti prefetcher. */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <utility>

#include "common/hashing.h"
#include "common/rng.h"
#include "prefetch/berti.h"

namespace moka {
namespace {

BertiConfig
quick_config()
{
    BertiConfig cfg;
    cfg.window_accesses = 32;
    cfg.timely_latency = 50;
    return cfg;
}

/** Feed a constant-stride stream, return candidates of the last access. */
std::vector<PrefetchRequest>
drive_stream(Berti &berti, Addr pc, Addr base, std::int64_t stride_blocks,
             unsigned count, Cycle gap)
{
    std::vector<PrefetchRequest> out;
    Cycle now = 0;
    for (unsigned i = 0; i < count; ++i) {
        out.clear();
        PrefetchContext ctx;
        ctx.pc = pc;
        ctx.vaddr = VirtAddr{base + Addr(i) * Addr(stride_blocks) * kBlockSize};
        ctx.now = now;
        ctx.hit = false;
        berti.on_access(ctx, out);
        now += gap;
    }
    return out;
}

TEST(Berti, LearnsTimelyStride)
{
    Berti berti(quick_config());
    const auto out =
        drive_stream(berti, 0x400100, 0x100000, 1, 200, /*gap=*/100);
    ASSERT_FALSE(out.empty());
    // All candidates carry positive deltas along the stream direction.
    for (const PrefetchRequest &r : out) {
        EXPECT_GT(r.delta, 0);
        EXPECT_EQ(r.trigger_pc, 0x400100u);
    }
}

TEST(Berti, PrefersLargerTimelyDeltas)
{
    Berti berti(quick_config());
    const auto out =
        drive_stream(berti, 0x400100, 0x100000, 1, 200, /*gap=*/100);
    ASSERT_FALSE(out.empty());
    // Tie-break favours larger deltas (lead time).
    std::int64_t max_delta = 0;
    for (const PrefetchRequest &r : out) {
        max_delta = std::max(max_delta, r.delta);
    }
    EXPECT_GE(max_delta, 8);
}

TEST(Berti, UntimelyDeltasNotSelected)
{
    // Back-to-back accesses (gap 1 cycle << timely_latency): no delta
    // is ever timely, so nothing should be selected.
    Berti berti(quick_config());
    const auto out =
        drive_stream(berti, 0x400100, 0x100000, 1, 200, /*gap=*/1);
    EXPECT_TRUE(out.empty());
}

TEST(Berti, RandomPatternStaysQuiet)
{
    Berti berti(quick_config());
    std::vector<PrefetchRequest> out;
    Cycle now = 0;
    std::uint64_t x = 12345;
    for (int i = 0; i < 500; ++i) {
        out.clear();
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        PrefetchContext ctx;
        ctx.pc = 0x400200;
        ctx.vaddr = VirtAddr{(x % (1u << 30)) & ~(kBlockSize - 1)};
        ctx.now = now;
        berti.on_access(ctx, out);
        now += 100;
    }
    // Random deltas never accumulate timely coverage.
    EXPECT_TRUE(out.empty());
}

TEST(Berti, EmitsPageCrossCandidatesNearBoundary)
{
    Berti berti(quick_config());
    // Warm up a +1 stride; then make the last access near a page end
    // and check that candidates cross into the next page.
    drive_stream(berti, 0x400100, 0x100000, 1, 199, 100);
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    ctx.pc = 0x400100;
    ctx.vaddr = VirtAddr{0x200000 + kPageSize - kBlockSize};  // last line of page
    ctx.now = 1000000;
    berti.on_access(ctx, out);
    bool crossing = false;
    for (const PrefetchRequest &r : out) {
        if (crosses_page(ctx.vaddr, r.vaddr)) {
            crossing = true;
        }
    }
    EXPECT_TRUE(crossing);
}

TEST(Berti, PerIpIsolation)
{
    Berti berti(quick_config());
    // IP A streams; IP B is random-ish. B must not inherit A's deltas.
    drive_stream(berti, 0xA, 0x100000, 1, 200, 100);
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    ctx.pc = 0xB;
    ctx.vaddr = VirtAddr{0x900000};
    ctx.now = 500000;
    berti.on_access(ctx, out);
    EXPECT_TRUE(out.empty());
}

/**
 * Berti trained by a linear scan of each IP's candidate deltas, as it
 * was before the slot index: the reference the indexed lookup must
 * match, request for request. It also counts the paths a stream took.
 */
class ScanBerti
{
  public:
    explicit ScanBerti(const BertiConfig &cfg)
        : cfg_(cfg), ips_(cfg.ip_entries)
    {
    }

    void on_access(const PrefetchContext &ctx,
                   std::vector<PrefetchRequest> &out)
    {
        Entry &e = lookup(ctx.pc);
        const Addr line = block_number(ctx.vaddr);
        train(e, line, ctx.now);
        if (++e.window >= cfg_.window_accesses) {
            e.window = 0;
            select(e);
        }
        for (const Candidate &c : e.selected) {
            const std::int64_t target =
                static_cast<std::int64_t>(line) + c.delta;
            if (target <= 0) {
                continue;
            }
            PrefetchRequest req;
            req.vaddr = VirtAddr{static_cast<Addr>(target) << kBlockBits};
            req.delta = c.delta;
            req.trigger_pc = ctx.pc;
            req.trigger_vaddr = ctx.vaddr;
            req.meta = c.timely;
            out.push_back(req);
        }
    }

    unsigned evictions = 0;     //!< live IP entries reallocated
    unsigned replacements = 0;  //!< weak candidates replaced
    unsigned mirror_ties = 0;   //!< selections ranking d beside -d

  private:
    struct Candidate
    {
        std::int64_t delta = 0;
        std::uint16_t occurrences = 0;
        std::uint16_t timely = 0;
    };

    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
        std::vector<std::pair<Addr, Cycle>> history;
        unsigned head = 0;
        std::vector<Candidate> deltas;
        std::vector<Candidate> selected;
        unsigned window = 0;
    };

    Entry &lookup(Addr pc)
    {
        const Addr tag = mix64(pc);
        for (Entry &e : ips_) {
            if (e.valid && e.tag == tag) {
                e.lru = ++stamp_;
                return e;
            }
        }
        std::size_t victim = 0;
        for (std::size_t i = 0; i < ips_.size(); ++i) {
            if (!ips_[i].valid) {
                victim = i;
                break;
            }
            if (ips_[i].lru < ips_[victim].lru) {
                victim = i;
            }
        }
        Entry &e = ips_[victim];
        evictions += e.valid ? 1 : 0;
        e = Entry{};
        e.valid = true;
        e.tag = tag;
        e.lru = ++stamp_;
        e.history.assign(cfg_.history_per_ip, {0, 0});
        return e;
    }

    void train(Entry &e, Addr line, Cycle now)
    {
        for (const auto &[h_line, h_cycle] : e.history) {
            if (h_cycle == 0 || h_line == line) {
                continue;
            }
            const std::int64_t delta = static_cast<std::int64_t>(line) -
                                       static_cast<std::int64_t>(h_line);
            if (std::llabs(delta) > cfg_.max_delta) {
                continue;
            }
            Candidate *slot = nullptr;
            for (Candidate &c : e.deltas) {
                if (c.delta == delta) {
                    slot = &c;
                    break;
                }
            }
            if (slot == nullptr && e.deltas.size() < cfg_.deltas_per_ip) {
                e.deltas.push_back({delta, 0, 0});
                slot = &e.deltas.back();
            } else if (slot == nullptr) {
                Candidate *weakest = &e.deltas[0];
                for (Candidate &c : e.deltas) {
                    if (c.timely < weakest->timely) {
                        weakest = &c;
                    }
                }
                if (weakest->timely <= 2) {
                    ++replacements;
                    *weakest = {delta, 0, 0};
                    slot = weakest;
                }
            }
            if (slot != nullptr) {
                ++slot->occurrences;
                if (h_cycle + cfg_.timely_latency <= now) {
                    ++slot->timely;
                }
            }
        }
        e.history[e.head] = {line, now};
        e.head = (e.head + 1) % cfg_.history_per_ip;
    }

    void select(Entry &e)
    {
        std::vector<Candidate> sorted = e.deltas;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Candidate &a, const Candidate &b) {
                      if (a.timely != b.timely) {
                          return a.timely > b.timely;
                      }
                      return std::llabs(a.delta) > std::llabs(b.delta);
                  });
        for (std::size_t i = 1; i < sorted.size(); ++i) {
            mirror_ties += sorted[i].timely == sorted[i - 1].timely &&
                           sorted[i].delta == -sorted[i - 1].delta;
        }
        e.selected.clear();
        const double window = static_cast<double>(cfg_.window_accesses);
        for (const Candidate &c : sorted) {
            if (e.selected.size() < cfg_.max_degree &&
                static_cast<double>(c.timely) >=
                    cfg_.coverage_threshold * window) {
                e.selected.push_back(c);
            }
        }
        for (Candidate &c : e.deltas) {
            c.occurrences = 0;
            c.timely = 0;
        }
    }

    BertiConfig cfg_;
    std::vector<Entry> ips_;
    std::uint64_t stamp_ = 0;
};

bool
same_requests(const std::vector<PrefetchRequest> &a,
              const std::vector<PrefetchRequest> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const PrefetchRequest &x, const PrefetchRequest &y) {
                          return x.vaddr == y.vaddr && x.delta == y.delta &&
                                 x.trigger_pc == y.trigger_pc &&
                                 x.trigger_vaddr == y.trigger_vaddr &&
                                 x.meta == y.meta;
                      });
}

TEST(Berti, SlotIndexMatchesTheLinearScan)
{
    // 96 PCs share 64 IP entries: a hot set of 48 takes 85% of the
    // accesses, so the cold ones keep evicting entries and reusing
    // them. Each PC walks lines by its own four deltas in +-63, mixed
    // with mirrored (-d) and random jumps, which fills all 16
    // candidates, replaces weak ones and ranks d beside -d.
    const BertiConfig cfg = quick_config();
    Berti berti(cfg);
    ScanBerti reference(cfg);
    constexpr unsigned kPcs = 96;
    Rng rng(0xB3271);
    std::vector<Addr> lines(kPcs);
    std::vector<std::array<std::int64_t, 4>> steps(kPcs);
    for (unsigned p = 0; p < kPcs; ++p) {
        lines[p] = 1'000'000 + Addr{p} * 100'000;
        for (std::int64_t &d : steps[p]) {
            d = static_cast<std::int64_t>(rng.range(1, 63));
        }
    }
    std::vector<PrefetchRequest> got;
    std::vector<PrefetchRequest> want;
    std::uint64_t requests = 0;
    Cycle now = 1;
    for (unsigned i = 0; i < 200'000; ++i) {
        const unsigned p = rng.chance(0.85)
                               ? static_cast<unsigned>(rng.below(48))
                               : 48 + static_cast<unsigned>(rng.below(48));
        std::int64_t delta = steps[p][rng.below(4)];
        if (rng.chance(0.25)) {
            delta = -delta;
        } else if (rng.chance(0.1)) {
            delta = static_cast<std::int64_t>(rng.range(0, 126)) - 63;
        }
        lines[p] =
            static_cast<Addr>(static_cast<std::int64_t>(lines[p]) + delta);
        now += 1 + rng.below(12);
        PrefetchContext ctx;
        ctx.pc = 0x400000 + Addr{p} * 4;
        ctx.vaddr = VirtAddr{lines[p] << kBlockBits};
        ctx.now = now;
        got.clear();
        want.clear();
        berti.on_access(ctx, got);
        reference.on_access(ctx, want);
        ASSERT_TRUE(same_requests(got, want)) << "access " << i;
        requests += got.size();
    }
    EXPECT_GT(requests, 10'000u);
    EXPECT_GT(reference.evictions, 1'000u);
    EXPECT_GT(reference.replacements, 1'000u);
    EXPECT_GT(reference.mirror_ties, 0u);
}

TEST(Berti, DeltaBound)
{
    BertiConfig cfg = quick_config();
    cfg.max_delta = 16;
    Berti berti(cfg);
    const auto out = drive_stream(berti, 0x1, 0x100000, 1, 200, 100);
    for (const PrefetchRequest &r : out) {
        EXPECT_LE(std::abs(r.delta), 16);
    }
}

}  // namespace
}  // namespace moka
