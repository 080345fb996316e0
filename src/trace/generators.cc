#include "trace/generators.h"

#include <algorithm>
#include <utility>

#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {
namespace {

/**
 * Tag each kernel writes ahead of its state. The values are part of
 * the snapshot format: change them only with kSnapshotVersion.
 */
enum class KernelKind : std::uint8_t {
    kStream,
    kTile,
    kCsrGraph,
    kSeqChase,
    kPointerChase,
    kHashProbe,
    kGather,
    kDualStride,
    kPhaseMix,
    kBursty,
};

/**
 * A kernel's kind tag and state record @p st. On restore the tag must
 * be @p kind's, and the record is read into the copy returned, which
 * the caller range-checks before it adopt()s it.
 */
template <class IO, Record S>
S
kernel_state(IO &io, KernelKind kind, const S &st)
{
    KernelKind saved = kind;
    field(io, saved);
    require(io, saved == kind,
            "workload kernel kind differs from the built kernel");
    S copy = st;
    field(io, copy);
    return copy;
}

/**
 * Page bound of the contiguous range of @p bytes (at least one) from
 * @p lo: the pages it spans, plus one page past each end, where a
 * prefetch triggered inside the range lands when its delta is shorter
 * than a page.
 */
std::size_t
range_pages(Addr lo, Addr bytes)
{
    const Addr last = lo + std::max<Addr>(bytes, 1) - 1;
    const Addr spanned = page_number(last) - page_number(lo) + 1;
    return static_cast<std::size_t>(spanned + 2);
}

/** On restore, replace @p st with the checked record @p from. */
template <class S>
void
adopt(S &st, const std::remove_const_t<S> &from)
{
    if constexpr (!std::is_const_v<S>) {
        st = from;
    }
}

/** Sequential multi-stream sweep (see make_stream_kernel). */
class StreamKernel : public AccessKernel
{
  public:
    explicit StreamKernel(const StreamParams &p)
        : p_(p), per_stream_(p.footprint / p.streams)
    {
        for (unsigned s = 0; s < p_.streams; ++s) {
            cursors_.push_back(p_.base + s * per_stream_);
        }
    }

    Access
    next(Rng &rng) override
    {
        const unsigned s = st_.next_stream;
        // Compare-wrap, not %: runs on every generated access
        // (rule L19).
        if (++st_.next_stream == p_.streams) {
            st_.next_stream = 0;
        }
        const Addr lo = p_.base + s * per_stream_;
        Addr a = cursors_[s];
        cursors_[s] += p_.stride;
        if (cursors_[s] >= lo + per_stream_) {
            cursors_[s] = lo;
        }
        return {a, 0x4000 + s * 16, rng.chance(p_.store_frac)};
    }

    /** The streams split one footprint: one range. */
    std::size_t
    page_bound() const override
    {
        return range_pages(p_.base, p_.footprint);
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        const State st = kernel_state(io, KernelKind::kStream, self.st_);
        require(io, st.next_stream < self.p_.streams,
                "stream index past the configured streams");
        field(io, self.cursors_);
        adopt(self.st_, st);
    }

    struct State
    {
        unsigned next_stream = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("next_stream", s.next_stream...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    StreamParams p_;
    Addr per_stream_;  // LINT_SNAPSHOT_OK: config, each stream's bytes
    std::vector<Addr> cursors_;
    State st_;
};

/** Page-sized rows with large pitch (see make_tile_kernel). */
class TileKernel : public AccessKernel
{
  public:
    explicit TileKernel(const TileParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        const Addr a = p_.base + st_.row * p_.pitch + st_.col;
        st_.col += p_.stride;
        if (st_.col >= p_.row_bytes) {
            st_.col = 0;
            if (++st_.row == p_.rows) {  // compare-wrap (rule L19)
                st_.row = 0;
            }
        }
        return {a, 0x5000, rng.chance(p_.store_frac)};
    }

    /** Rows that touch or overlap form one range, others one each. */
    std::size_t
    page_bound() const override
    {
        if (p_.pitch <= p_.row_bytes) {
            return range_pages(p_.base,
                               (p_.rows - 1) * p_.pitch + p_.row_bytes);
        }
        std::size_t pages = 0;
        for (unsigned r = 0; r < p_.rows; ++r) {
            pages += range_pages(p_.base + r * p_.pitch, p_.row_bytes);
        }
        return pages;
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        adopt(self.st_, kernel_state(io, KernelKind::kTile, self.st_));
    }

    struct State
    {
        Addr row = 0;
        Addr col = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("row", s.row...);
            v("col", s.col...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    TileParams p_;
    State st_;
};

/** CSR traversal (see make_csr_graph_kernel). */
class CsrGraphKernel : public AccessKernel
{
  public:
    explicit CsrGraphKernel(const CsrGraphParams &p) : p_(p)
    {
        offsets_base_ = p_.base;
        edges_base_ = p_.base + p_.vertices * 8 + kPageSize;
        edges_base_ = page_addr(edges_base_ + kPageSize - 1);
        values_base_ =
            edges_base_ + p_.vertices * Addr{p_.avg_degree} * 8 + kPageSize;
        values_base_ = page_addr(values_base_ + kPageSize - 1);
    }

    Access
    next(Rng &rng) override
    {
        switch (st_.stage) {
          case Stage::kOffset: {
            const Addr a = offsets_base_ + st_.vertex * 8;
            // Deterministic degree derived from the vertex id so the
            // stream replays identically across schemes.
            st_.degree_left = 1 + static_cast<unsigned>(
                mix64(st_.vertex * 0x9E3779B97F4A7C15ull) %
                (2 * p_.avg_degree));
            // LINT_HOT_OK: semantic range reduction of a hash onto
            // the edge array, not table indexing -- the footprint is
            // not pow2 and the modulo defines the workload.
            st_.edge_cursor = edges_base_ +
                (mix64(st_.vertex) % (p_.vertices * p_.avg_degree)) * 8;
            st_.stage = Stage::kEdges;
            return {a, 0x6000, false};
          }
          case Stage::kEdges: {
            const Addr a = st_.edge_cursor;
            st_.edge_cursor += 8;
            st_.pending_gather = rng.chance(p_.value_gather_frac);
            if (--st_.degree_left == 0) {
                // compare-wrap (rule L19)
                if (++st_.vertex == p_.vertices) {
                    st_.vertex = 0;
                }
                st_.stage =
                    st_.pending_gather ? Stage::kGather : Stage::kOffset;
            } else if (st_.pending_gather) {
                st_.stage = Stage::kGather;
            }
            return {a, 0x6010, false, true};
          }
          case Stage::kGather:
          default: {
            // LINT_HOT_OK: semantic range reduction of the random
            // gather target; vertices is not pow2 in general.
            const Addr a = values_base_ +
                (rng.next() % p_.vertices) * kBlockSize;
            st_.stage =
                (st_.degree_left == 0) ? Stage::kOffset : Stage::kEdges;
            return {a, 0x6020, rng.chance(p_.store_frac), true};
          }
        }
    }

    /**
     * Offsets, edges and values. A vertex's edge run starts at most
     * at the last edge and reads up to 2 * avg_degree edges, so it
     * can run that far past the edge array.
     */
    std::size_t
    page_bound() const override
    {
        const Addr edges = p_.vertices * p_.avg_degree;
        return range_pages(offsets_base_, p_.vertices * 8) +
               range_pages(edges_base_, (edges + 2 * p_.avg_degree - 1) * 8) +
               range_pages(values_base_, p_.vertices * kBlockSize);
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        const State st = kernel_state(io, KernelKind::kCsrGraph, self.st_);
        require(io,
                st.stage == Stage::kOffset || st.stage == Stage::kEdges ||
                    st.stage == Stage::kGather,
                "CSR kernel stage outside its enum");
        adopt(self.st_, st);
    }

    enum class Stage : std::uint8_t { kOffset, kEdges, kGather };

    struct State
    {
        std::uint64_t vertex = 0;
        unsigned degree_left = 0;
        Addr edge_cursor = 0;
        bool pending_gather = false;
        Stage stage = Stage::kOffset;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("vertex", s.vertex...);
            v("degree_left", s.degree_left...);
            v("edge_cursor", s.edge_cursor...);
            v("pending_gather", s.pending_gather...);
            v("stage", s.stage...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    CsrGraphParams p_;
    // LINT_SNAPSHOT_OK: derived from the config
    Addr offsets_base_ = 0;
    // LINT_SNAPSHOT_OK: derived from the config
    Addr edges_base_ = 0;
    // LINT_SNAPSHOT_OK: derived from the config
    Addr values_base_ = 0;
    State st_;
};

/** Dependent sequential chase (see make_seq_chase_kernel). */
class SeqChaseKernel : public AccessKernel
{
  public:
    explicit SeqChaseKernel(const SeqChaseParams &p) : p_(p)
    {
        blocks_ = p_.footprint / kBlockSize;
    }

    Access
    next(Rng &rng) override
    {
        const Addr a = p_.base + st_.cursor * kBlockSize;
        st_.cursor += p_.stride_lines;
        if (st_.cursor >= blocks_ || rng.chance(p_.restart_prob)) {
            st_.cursor = rng.below(blocks_);
        }
        return {a, 0x7800, false, /*dependent=*/true};
    }

    std::size_t
    page_bound() const override
    {
        return range_pages(p_.base, p_.footprint);
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        adopt(self.st_, kernel_state(io, KernelKind::kSeqChase, self.st_));
    }

    struct State
    {
        Addr cursor = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("cursor", s.cursor...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    SeqChaseParams p_;
    // LINT_SNAPSHOT_OK: derived from the config
    Addr blocks_ = 0;
    State st_;
};

/** Dependent random chase (see make_pointer_chase_kernel). */
class PointerChaseKernel : public AccessKernel
{
  public:
    explicit PointerChaseKernel(const PointerChaseParams &p) : p_(p)
    {
        for (unsigned c = 0; c < p_.chains; ++c) {
            cursors_.push_back(mix64(c * 77 + 1));
        }
    }

    Access
    next(Rng & /*rng*/) override
    {
        const unsigned c = st_.next_chain;
        if (++st_.next_chain == p_.chains) {  // compare-wrap (rule L19)
            st_.next_chain = 0;
        }
        const Addr blocks = p_.footprint / kBlockSize;
        // LINT_HOT_OK: semantic range reduction of the chase hash
        // onto the footprint, which is not pow2 in general.
        const Addr a = p_.base + (cursors_[c] % blocks) * kBlockSize;
        // Next hop depends on the current one: a data-dependent chain.
        cursors_[c] = mix64(cursors_[c]);
        return {a, 0x7000 + c * 16, false, true};
    }

    std::size_t
    page_bound() const override
    {
        return range_pages(p_.base, p_.footprint);
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        const State st =
            kernel_state(io, KernelKind::kPointerChase, self.st_);
        require(io, st.next_chain < self.p_.chains,
                "chase index past the configured chains");
        field(io, self.cursors_);
        adopt(self.st_, st);
    }

    struct State
    {
        unsigned next_chain = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("next_chain", s.next_chain...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    PointerChaseParams p_;
    std::vector<std::uint64_t> cursors_;
    State st_;
};

/** Random bucket + short in-page probe (see make_hash_probe_kernel). */
class HashProbeKernel : public AccessKernel
{
  public:
    explicit HashProbeKernel(const HashProbeParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        if (st_.lines_left == 0) {
            const Addr pages = p_.footprint / kPageSize;
            st_.cursor = p_.base + rng.below(pages) * kPageSize +
                         rng.below(kBlocksPerPage) * kBlockSize;
            st_.lines_left = static_cast<unsigned>(
                rng.range(p_.probe_lines_min, p_.probe_lines_max));
        }
        const Addr a = st_.cursor;
        st_.cursor += kBlockSize;
        --st_.lines_left;
        return {a, 0x8000, rng.chance(p_.store_frac)};
    }

    /** A probe from the last bucket line runs past the footprint. */
    std::size_t
    page_bound() const override
    {
        return range_pages(p_.base,
                           p_.footprint +
                               (p_.probe_lines_max - 1) * kBlockSize);
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        adopt(self.st_, kernel_state(io, KernelKind::kHashProbe, self.st_));
    }

    struct State
    {
        Addr cursor = 0;
        unsigned lines_left = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("cursor", s.cursor...);
            v("lines_left", s.lines_left...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    HashProbeParams p_;
    State st_;
};

/** Sequential index stream + random gathers (see make_gather_kernel). */
class GatherKernel : public AccessKernel
{
  public:
    explicit GatherKernel(const GatherParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        if (st_.gathers_left > 0) {
            --st_.gathers_left;
            const Addr blocks = p_.data_bytes / kBlockSize;
            return {p_.data_base + rng.below(blocks) * kBlockSize, 0x9010,
                    false, true};
        }
        const Addr a = p_.index_base + st_.index_cursor;
        st_.index_cursor += 8;
        if (st_.index_cursor >= p_.index_bytes) {
            st_.index_cursor = 0;
        }
        st_.gathers_left = p_.gathers_per_index;
        return {a, 0x9000, false};
    }

    std::size_t
    page_bound() const override
    {
        return range_pages(p_.index_base, p_.index_bytes) +
               range_pages(p_.data_base, p_.data_bytes);
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        adopt(self.st_, kernel_state(io, KernelKind::kGather, self.st_));
    }

    struct State
    {
        Addr index_cursor = 0;
        unsigned gathers_left = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("index_cursor", s.index_cursor...);
            v("gathers_left", s.gathers_left...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    GatherParams p_;
    State st_;
};

/** Same-PC dual-stride kernel (see make_dual_stride_kernel). */
class DualStrideKernel : public AccessKernel
{
  public:
    explicit DualStrideKernel(const DualStrideParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        if (st_.streaming) {
            const Addr a = p_.base + st_.stream_cursor;
            // cursor < footprint, so one compare-subtract wraps
            // exactly like the modulo (rule L19).
            st_.stream_cursor += kBlockSize;
            if (st_.stream_cursor >= p_.footprint) {
                st_.stream_cursor -= p_.footprint;
            }
            if (++st_.burst_count >= p_.stream_burst) {
                st_.burst_count = 0;
                st_.streaming = false;
                st_.runs_left = p_.runs_per_burst;
                start_run(rng);
            }
            return {a, 0xB000, false};
        }
        const Addr a = p_.base + st_.run_page * kPageSize +
                       st_.run_line * kBlockSize;
        st_.run_line += p_.hop_lines;
        if (st_.run_line >= kBlocksPerPage) {
            // The run always dies at the page boundary: a +hop_lines
            // page-cross prefetch issued from the last hop is useless.
            if (--st_.runs_left == 0) {
                st_.streaming = true;
            } else {
                start_run(rng);
            }
        }
        return {a, 0xB000, false};
    }

    std::size_t
    page_bound() const override
    {
        return range_pages(p_.base, p_.footprint);
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        adopt(self.st_, kernel_state(io, KernelKind::kDualStride, self.st_));
    }

    void
    start_run(Rng &rng)
    {
        st_.run_page = rng.below(p_.footprint / kPageSize);
        st_.run_line = 0;
    }

    struct State
    {
        bool streaming = true;
        Addr stream_cursor = 0;
        unsigned burst_count = 0;
        unsigned runs_left = 0;
        Addr run_page = 0;
        Addr run_line = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("streaming", s.streaming...);
            v("stream_cursor", s.stream_cursor...);
            v("burst_count", s.burst_count...);
            v("runs_left", s.runs_left...);
            v("run_page", s.run_page...);
            v("run_line", s.run_line...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    DualStrideParams p_;
    State st_;
};

/** Round-robin phase mixer (see make_phase_mix_kernel). */
class PhaseMixKernel : public AccessKernel
{
  public:
    PhaseMixKernel(std::vector<KernelPtr> children, std::uint64_t phase_len)
        : children_(std::move(children)), phase_len_(phase_len)
    {
    }

    Access
    next(Rng &rng) override
    {
        if (++st_.count >= phase_len_) {
            st_.count = 0;
            // compare-wrap (rule L19)
            if (++st_.active == children_.size()) {
                st_.active = 0;
            }
        }
        return children_[st_.active]->next(rng);
    }

    std::size_t
    page_bound() const override
    {
        std::size_t pages = 0;
        for (const KernelPtr &child : children_) {
            pages += child->page_bound();
        }
        return pages;
    }

    /** The mixer's record, then every child in order. */
    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        const State st = kernel_state(io, KernelKind::kPhaseMix, self.st_);
        require(io, st.active < self.children_.size(),
                "phase index past the configured children");
        for (const KernelPtr &child : self.children_) {
            field(io, *child);
        }
        adopt(self.st_, st);
    }

    struct State
    {
        std::uint64_t count = 0;
        std::uint64_t active = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("count", s.count...);
            v("active", s.active...);
        }
    };

    std::vector<KernelPtr> children_;
    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    std::uint64_t phase_len_;
    State st_;
};

/** Bursty stream/chase alternation (see make_bursty_kernel). */
class BurstyKernel : public AccessKernel
{
  public:
    explicit BurstyKernel(const BurstyParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        if (st_.left == 0) {
            st_.left = p_.burst_len;
            st_.streaming = rng.chance(p_.stream_frac);
            if (st_.streaming) {
                st_.cursor = p_.base +
                             rng.below(p_.footprint / kPageSize) * kPageSize;
            }
        }
        --st_.left;
        if (st_.streaming) {
            const Addr a = st_.cursor;
            st_.cursor += kBlockSize;
            if (st_.cursor >= p_.base + p_.footprint) {
                st_.cursor = p_.base;
            }
            return {a, 0xA000, false};
        }
        st_.chase = mix64(st_.chase + 1);
        const Addr blocks = p_.footprint / kBlockSize;
        // LINT_HOT_OK: semantic range reduction of the chase hash;
        // the footprint is not pow2 in general.
        return {p_.base + (st_.chase % blocks) * kBlockSize, 0xA010, false,
                true};
    }

    std::size_t
    page_bound() const override
    {
        return range_pages(p_.base, p_.footprint);
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        adopt(self.st_, kernel_state(io, KernelKind::kBursty, self.st_));
    }

    struct State
    {
        std::uint64_t left = 0;
        bool streaming = false;
        Addr cursor = 0;
        std::uint64_t chase = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("left", s.left...);
            v("streaming", s.streaming...);
            v("cursor", s.cursor...);
            v("chase", s.chase...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    BurstyParams p_;
    State st_;
};

/**
 * The interleaver: wraps a kernel with ALU filler and loop branches
 * to form a complete instruction stream (see make_synthetic).
 */
class SyntheticWorkload : public Workload
{
  public:
    SyntheticWorkload(std::string name, KernelPtr kernel,
                      const InterleaveParams &params, std::uint64_t seed)
        : name_(std::move(name)), kernel_(std::move(kernel)), p_(params),
          rng_(seed)
    {
    }

    TraceInst
    next() override
    {
        TraceInst inst;
        const double draw = rng_.uniform();
        if (draw < p_.branch_ratio) {
            inst.op = OpClass::kBranch;
            if (rng_.chance(p_.hard_branch_frac)) {
                // Data-dependent branch: outcome is a coin flip.
                inst.pc = kBranchBase + 0x40;
                inst.taken = rng_.chance(0.5);
            } else {
                // Loop branch: taken (period-1)/period of the time.
                inst.pc = kBranchBase;
                // LINT_HOT_OK: loop_iter is a monotonic counter in
                // the snapshot format; wrapping it would change the
                // serialized state.
                inst.taken = (++st_.loop_iter % p_.loop_period) != 0;
            }
            inst.target = inst.taken ? kLoopTop : inst.pc + 4;
        } else if (draw < p_.branch_ratio + p_.mem_ratio) {
            // LINT_HOT_OK: the kernel is the synthetic workload's
            // configuration seam (chosen per run, genuinely
            // polymorphic); trace generation is not the simulated
            // pipeline the inst/sec budget measures (rule L12).
            const AccessKernel::Access a = kernel_->next(rng_);
            inst.op = (a.store || rng_.chance(p_.store_frac))
                          ? OpClass::kStore
                          : OpClass::kLoad;
            inst.pc = kCodeBase + a.pc;
            // Trace synthesis: the one place raw generated addresses
            // become typed virtual addresses.
            inst.mem_addr = VirtAddr{a.addr};
            inst.dep_load = a.dependent;
        } else {
            inst.op = OpClass::kAlu;
            inst.pc = kCodeBase + 0x100 + (st_.alu_pc++ % 16) * 4;
        }
        return inst;
    }

    /**
     * RNG lanes, the interleaver's counters, then the kernel. The
     * saved state is the position, so @p position is not replayed:
     * restoring costs the state's size, not the warmup's length.
     */
    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void
    restore_state(SnapshotReader &r, std::uint64_t /*position*/) override
    {
        serialize(*this, r);
    }

    /** The kernel's data pages and every code page. */
    std::size_t
    page_bound() const override
    {
        return kernel_->page_bound() + kCodeBytes / kPageSize;
    }

    const std::string &name() const override { return name_; }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        field(io, self.rng_);
        field(io, self.st_);
        field(io, *self.kernel_);
    }

    static constexpr Addr kCodeBase = 0x400000;
    static constexpr Addr kBranchBase = kCodeBase + 0x2000;
    static constexpr Addr kLoopTop = kCodeBase + 0x1000;
    //! every PC lies in [kCodeBase, kCodeBase + kCodeBytes): the ALU
    //! filler's and the branches', and the kernels' load/store PCs at
    //! offsets 0x4000 to 0xB000 (plus 16 per stream or chase chain)
    static constexpr Addr kCodeBytes = 0xC000;

    struct State
    {
        std::uint64_t loop_iter = 0;
        std::uint64_t alu_pc = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("loop_iter", s.loop_iter...);
            v("alu_pc", s.alu_pc...);
        }
    };

    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    std::string name_;
    KernelPtr kernel_;
    // LINT_SNAPSHOT_OK: config, rebuilt by the constructor
    InterleaveParams p_;
    Rng rng_;
    State st_;
};

}  // namespace

WorkloadPtr
make_synthetic(std::string name, KernelPtr kernel,
               const InterleaveParams &params, std::uint64_t seed)
{
    return std::make_unique<SyntheticWorkload>(std::move(name),
                                               std::move(kernel), params,
                                               seed);
}

KernelPtr
make_stream_kernel(const StreamParams &p)
{
    return std::make_unique<StreamKernel>(p);
}

KernelPtr
make_tile_kernel(const TileParams &p)
{
    return std::make_unique<TileKernel>(p);
}

KernelPtr
make_csr_graph_kernel(const CsrGraphParams &p)
{
    return std::make_unique<CsrGraphKernel>(p);
}

KernelPtr
make_seq_chase_kernel(const SeqChaseParams &p)
{
    return std::make_unique<SeqChaseKernel>(p);
}

KernelPtr
make_pointer_chase_kernel(const PointerChaseParams &p)
{
    return std::make_unique<PointerChaseKernel>(p);
}

KernelPtr
make_hash_probe_kernel(const HashProbeParams &p)
{
    return std::make_unique<HashProbeKernel>(p);
}

KernelPtr
make_gather_kernel(const GatherParams &p)
{
    return std::make_unique<GatherKernel>(p);
}

KernelPtr
make_dual_stride_kernel(const DualStrideParams &p)
{
    return std::make_unique<DualStrideKernel>(p);
}

KernelPtr
make_phase_mix_kernel(std::vector<KernelPtr> children,
                      std::uint64_t phase_len)
{
    return std::make_unique<PhaseMixKernel>(std::move(children), phase_len);
}

KernelPtr
make_bursty_kernel(const BurstyParams &p)
{
    return std::make_unique<BurstyKernel>(p);
}

}  // namespace moka
