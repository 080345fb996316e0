/**
 * @file
 * Binary snapshot container: a versioned, checksummed TLV format for
 * serialized architectural state.
 *
 * Layout (all integers little-endian):
 *
 *   magic            8 bytes  "MOKASNAP"
 *   format version   u32      kSnapshotVersion
 *   config sum       u64      config_fingerprint of the saving machine
 *   section count    u32
 *   sections         repeated {
 *       name length  u32
 *       name         bytes
 *       payload len  u64
 *       payload sum  u64      checksum64 over the payload bytes
 *                             (common/hashing.h)
 *       payload      bytes
 *   }
 *
 * Sections are named after machine components ("dram", "llc",
 * "core0", ...) and read back in the exact order they were written;
 * SnapshotReader::begin_section verifies both the name and that the
 * previous section was consumed to its last byte, so a section whose
 * layout changed without a kSnapshotVersion bump desyncs loudly
 * instead of silently shifting every later read.
 *
 * This header depends only on common/ and the standard library (the
 * job layer maps SnapshotError onto its own JobError taxonomy; no
 * include cycle back into sim/).
 */
#ifndef MOKASIM_SNAPSHOT_FORMAT_H
#define MOKASIM_SNAPSHOT_FORMAT_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace moka {

//! bump when the container layout or any component's section layout
//! changes; readers reject other versions outright (2: caches no
//! longer carry PrefetchStats::pgc_dropped; 3: flat maps store only
//! occupied slots, frame bitmaps one bit per frame, caches and TLBs
//! their arrays whole, and the core no longer stores its audit cadence;
//! 4: each core saves its workload's generator state in a
//! "core.workload" section, and section sums are checksum64, not FNV-1a;
//! 5: cache tags are u32, LRU state is one u8 rank per way with no
//! clock, and page-map values are u32 frame numbers; 6: caches save a
//! u64 fill base and u32 fill offsets above it, not u64 fill cycles)
inline constexpr std::uint32_t kSnapshotVersion = 6;

// Primitives and arrays are copied in host byte order.
static_assert(std::endian::native == std::endian::little,
              "the snapshot format is little-endian");

//! container magic, first 8 bytes of every snapshot
inline constexpr char kSnapshotMagic[8] = {'M', 'O', 'K', 'A',
                                           'S', 'N', 'A', 'P'};

/** Why a snapshot was rejected. */
enum class SnapshotErrorKind : std::uint8_t {
    kBadMagic,        //!< not a snapshot file at all
    kBadVersion,      //!< produced by an incompatible format version
    kTruncated,       //!< shorter than its own headers claim
    kChecksum,        //!< a section's checksum64 sum does not match
    kConfigMismatch,  //!< saved under a different machine config
    kMalformed,       //!< section desync or over/under-consumed payload
};

/** Stable report name of @p kind. */
const char *to_string(SnapshotErrorKind kind);

/**
 * Classified snapshot rejection. Every failure mode is recoverable by
 * design: the caller falls back to a cold warmup.
 */
class SnapshotError : public std::runtime_error
{
  public:
    SnapshotError(SnapshotErrorKind kind, const std::string &message);

    SnapshotErrorKind kind() const { return kind_; }

  private:
    SnapshotErrorKind kind_;
};

/**
 * Serializes bytes into named sections and assembles the final
 * container. Usage: begin_section(), put the component's state
 * (field() in snapshot/snapshot.h), repeat, then finish() exactly
 * once. The container is built in one
 * buffer; each section's length and checksum are filled in when the
 * next section opens or the writer finishes.
 */
class SnapshotWriter
{
  public:
    /** @param fingerprint config_fingerprint of the saving machine */
    explicit SnapshotWriter(std::uint64_t fingerprint);

    /** Close the current section (if any) and open a new one. */
    void begin_section(std::string_view name);

    /** Append @p n raw bytes (array elements in little-endian order). */
    void put_bytes(const void *data, std::size_t n)
    {
        SIM_REQUIRE(open_, "snapshot write outside a section");
        out_.append(static_cast<const char *>(data), n);
    }

    /** Seal the last section and hand over the container bytes. */
    std::string finish();

  private:
    /** Fill in the open section's payload length and checksum. */
    void close_section();

    std::string out_;             //!< the container being assembled
    std::size_t payload_at_ = 0;  //!< open section's payload offset
    std::uint32_t sections_ = 0;
    bool open_ = false;
};

/**
 * A snapshot container whose structure has been verified: magic,
 * version, bounds and every section checksum are checked once, when
 * the image is built. An image is immutable; any number of
 * SnapshotReaders may read it without re-validating.
 */
class SnapshotImage
{
  public:
    /** @throws SnapshotError on any structural or checksum defect */
    explicit SnapshotImage(std::string bytes);

    /** Config fingerprint recorded by the saving machine. */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /** Container size in bytes. */
    std::size_t size() const { return bytes_.size(); }

    /** The validated container bytes. */
    const std::string &bytes() const { return bytes_; }

  private:
    friend class SnapshotReader;

    struct Section
    {
        std::string name;
        std::size_t begin = 0;  //!< payload offset into bytes_
        std::size_t size = 0;
    };

    std::string bytes_;
    std::uint64_t fingerprint_ = 0;
    std::vector<Section> sections_;
};

/**
 * Cursor over a validated SnapshotImage: no copy, no checksum pass.
 * begin_section / get_bytes enforce positional section order and
 * exact consumption; every read is bounds-checked against the open
 * section.
 */
class SnapshotReader
{
  public:
    /** @param image must outlive the reader */
    explicit SnapshotReader(const SnapshotImage &image) : image_(&image) {}
    SnapshotReader(SnapshotImage &&) = delete;  // would dangle

    /** Config fingerprint recorded by the saving machine. */
    std::uint64_t fingerprint() const { return image_->fingerprint(); }

    /**
     * Enter the next section, which must be named @p name and must
     * follow a fully-consumed predecessor.
     */
    void begin_section(std::string_view name);

    /**
     * Drop the unread rest of the open section, for a reader that
     * rebuilds the state another way (a workload that replays to its
     * position instead of restoring a saved generator state). Every
     * other reader consumes its section exactly.
     */
    void discard_rest() { cur_ = end_; }

    /** Unread bytes left in the open section (0 outside any). */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - cur_);
    }

    /** Copy the next @p n bytes of the open section to @p out. */
    void get_bytes(void *out, std::size_t n)
    {
        if (remaining() < n) {
            over_consumed();
        }
        if (n != 0) {
            std::memcpy(out, cur_, n);
            cur_ += n;
        }
    }

    /** Verify every section was consumed to its last byte. */
    void finish() const;

  private:
    [[noreturn]] void over_consumed() const;

    const SnapshotImage *image_;
    std::size_t section_ = 0;    //!< 1-based index of the open section
    const char *cur_ = nullptr;  //!< read position in the open payload
    const char *end_ = nullptr;  //!< end of the open payload
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_FORMAT_H
