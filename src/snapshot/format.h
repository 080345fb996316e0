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
 *       payload sum  u64      FNV-1a over the payload bytes
 *       payload      bytes
 *   }
 *
 * Sections are named after machine components ("dram", "llc",
 * "core0", ...) and read back in the exact order they were written;
 * SnapshotReader::begin_section verifies both the name and that the
 * previous section was consumed to its last byte, so a component that
 * gains a field without bumping its save/restore pair desyncs loudly
 * instead of silently shifting every later read.
 *
 * This header depends only on common/ and the standard library (the
 * job layer maps SnapshotError onto its own JobError taxonomy; no
 * include cycle back into sim/).
 */
#ifndef MOKASIM_SNAPSHOT_FORMAT_H
#define MOKASIM_SNAPSHOT_FORMAT_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace moka {

//! bump when the container layout or any component's section layout
//! changes; readers reject other versions outright (2: caches no
//! longer carry PrefetchStats::pgc_dropped)
inline constexpr std::uint32_t kSnapshotVersion = 2;

//! container magic, first 8 bytes of every snapshot
inline constexpr char kSnapshotMagic[8] = {'M', 'O', 'K', 'A',
                                           'S', 'N', 'A', 'P'};

/** Why a snapshot was rejected. */
enum class SnapshotErrorKind : std::uint8_t {
    kBadMagic,        //!< not a snapshot file at all
    kBadVersion,      //!< produced by an incompatible format version
    kTruncated,       //!< shorter than its own headers claim
    kChecksum,        //!< a section's FNV-1a sum does not match
    kConfigMismatch,  //!< saved under a different machine config
    kMalformed,       //!< section desync or over/under-consumed payload
};

/** Stable report name of @p kind. */
const char *to_string(SnapshotErrorKind kind);

/**
 * Classified snapshot rejection. Every failure mode is recoverable by
 * design: the caller falls back to a cold warmup (the job layer maps
 * this onto JobErrorCode::kSnapshotInvalid when it must surface).
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
 * Serializes primitives into named sections and assembles the final
 * container. Usage: begin_section(), put_* the component's state,
 * repeat, then finish() exactly once.
 */
class SnapshotWriter
{
  public:
    /** @param fingerprint config_fingerprint of the saving machine */
    explicit SnapshotWriter(std::uint64_t fingerprint);

    /** Close the current section (if any) and open a new one. */
    void begin_section(const std::string &name);

    void put_u8(std::uint8_t v);
    void put_u16(std::uint16_t v);
    void put_u32(std::uint32_t v);
    void put_u64(std::uint64_t v);
    void put_i64(std::int64_t v);
    void put_bool(bool v);
    void put_f64(double v);

    /** Assemble header + checksummed sections into the final bytes. */
    std::string finish();

  private:
    struct Section
    {
        std::string name;
        std::string payload;
    };

    void raw(const void *data, std::size_t n);

    std::uint64_t fingerprint_;
    std::vector<Section> sections_;
    bool open_ = false;
};

/**
 * Validates and deserializes a container produced by SnapshotWriter.
 * The constructor checks magic, version, structural completeness and
 * every section checksum up front, so a reader that constructs at all
 * is structurally sound; begin_section / get_* then enforce exact
 * consumption.
 */
class SnapshotReader
{
  public:
    /** @throws SnapshotError on any structural or checksum defect */
    explicit SnapshotReader(std::string bytes);

    /** Config fingerprint recorded by the saving machine. */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /**
     * Enter the next section, which must be named @p name and must
     * follow a fully-consumed predecessor.
     */
    void begin_section(const std::string &name);

    std::uint8_t get_u8();
    std::uint16_t get_u16();
    std::uint32_t get_u32();
    std::uint64_t get_u64();
    std::int64_t get_i64();
    bool get_bool();
    double get_f64();

    /** Verify every section was consumed to its last byte. */
    void finish() const;

  private:
    struct Section
    {
        std::string name;
        std::size_t begin = 0;  //!< payload offset into bytes_
        std::size_t size = 0;
    };

    void need(std::size_t n) const;

    std::string bytes_;
    std::uint64_t fingerprint_ = 0;
    std::vector<Section> sections_;
    std::size_t section_ = 0;  //!< 1-based index of the open section
    std::size_t cursor_ = 0;   //!< read offset into the open payload
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_FORMAT_H
