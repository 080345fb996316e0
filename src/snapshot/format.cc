#include "snapshot/format.h"

#include <cstring>

#include "common/check.h"
#include "common/hashing.h"

namespace moka {
namespace {

/** Little-endian append of the low @p n bytes of @p v. */
void
append_le(std::string &out, std::uint64_t v, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
}

/** Little-endian read of @p n bytes at @p data. */
std::uint64_t
read_le(const char *data, unsigned n)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data[i]))
             << (8 * i);
    }
    return v;
}

/** Offset of the u32 section count: after magic, version, fingerprint. */
constexpr std::size_t kCountOffset = sizeof(kSnapshotMagic) + 4 + 8;

}  // namespace

const char *
to_string(SnapshotErrorKind kind)
{
    switch (kind) {
      case SnapshotErrorKind::kBadMagic: return "bad_magic";
      case SnapshotErrorKind::kBadVersion: return "bad_version";
      case SnapshotErrorKind::kTruncated: return "truncated";
      case SnapshotErrorKind::kChecksum: return "checksum";
      case SnapshotErrorKind::kConfigMismatch: return "config_mismatch";
      case SnapshotErrorKind::kMalformed: return "malformed";
    }
    return "unknown";
}

SnapshotError::SnapshotError(SnapshotErrorKind kind,
                             const std::string &message)
    : std::runtime_error(std::string("snapshot: ") + to_string(kind) +
                         ": " + message),
      kind_(kind)
{
}

SnapshotWriter::SnapshotWriter(std::uint64_t fingerprint)
    : out_(kSnapshotMagic, sizeof(kSnapshotMagic))
{
    append_le(out_, kSnapshotVersion, 4);
    append_le(out_, fingerprint, 8);
    append_le(out_, 0, 4);  // section count, filled in by finish()
}

void
SnapshotWriter::close_section()
{
    if (!open_) {
        return;
    }
    const std::uint64_t size = out_.size() - payload_at_;
    const std::uint64_t sum = checksum64(out_.data() + payload_at_, size);
    std::memcpy(out_.data() + payload_at_ - 16, &size, 8);
    std::memcpy(out_.data() + payload_at_ - 8, &sum, 8);
    open_ = false;
}

void
SnapshotWriter::begin_section(std::string_view name)
{
    SIM_REQUIRE(!name.empty(), "snapshot sections need a name");
    close_section();
    append_le(out_, name.size(), 4);
    out_ += name;
    out_.append(16, '\0');  // payload length and sum, filled in on close
    payload_at_ = out_.size();
    ++sections_;
    open_ = true;
}

std::string
SnapshotWriter::finish()
{
    close_section();
    std::memcpy(out_.data() + kCountOffset, &sections_, 4);
    return std::move(out_);
}

SnapshotImage::SnapshotImage(std::string bytes) : bytes_(std::move(bytes))
{
    std::size_t at = 0;
    const auto take = [&](unsigned n) {
        if (bytes_.size() - at < n) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "header ends early");
        }
        const std::uint64_t v = read_le(bytes_.data() + at, n);
        at += n;
        return v;
    };
    if (bytes_.size() < sizeof(kSnapshotMagic) ||
        std::memcmp(bytes_.data(), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0) {
        throw SnapshotError(SnapshotErrorKind::kBadMagic,
                            "missing MOKASNAP magic");
    }
    at = sizeof(kSnapshotMagic);
    const std::uint64_t version = take(4);
    if (version != kSnapshotVersion) {
        throw SnapshotError(SnapshotErrorKind::kBadVersion,
                            "format version " + std::to_string(version) +
                                " (want " +
                                std::to_string(kSnapshotVersion) + ")");
    }
    fingerprint_ = take(8);
    const std::uint64_t count = take(4);
    for (std::uint64_t i = 0; i < count; ++i) {
        Section s;
        const std::uint64_t name_len = take(4);
        if (bytes_.size() - at < name_len) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "section name ends early");
        }
        s.name.assign(bytes_.data() + at, name_len);
        at += name_len;
        s.size = take(8);
        const std::uint64_t sum = take(8);
        if (bytes_.size() - at < s.size) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "section '" + s.name + "' ends early");
        }
        s.begin = at;
        at += s.size;
        if (checksum64(bytes_.data() + s.begin, s.size) != sum) {
            throw SnapshotError(SnapshotErrorKind::kChecksum,
                                "section '" + s.name +
                                    "' fails its checksum");
        }
        sections_.push_back(std::move(s));
    }
    if (at != bytes_.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "trailing bytes after the last section");
    }
}

void
SnapshotReader::begin_section(std::string_view name)
{
    const std::vector<SnapshotImage::Section> &sections = image_->sections_;
    if (section_ > 0 && cur_ != end_) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "section '" + sections[section_ - 1].name +
                                "' left partially consumed");
    }
    if (section_ >= sections.size() || sections[section_].name != name) {
        throw SnapshotError(
            SnapshotErrorKind::kMalformed,
            "expected section '" + std::string(name) + "', found '" +
                (section_ < sections.size() ? sections[section_].name
                                            : std::string("<end>")) +
                "'");
    }
    const SnapshotImage::Section &s = sections[section_++];
    cur_ = image_->bytes_.data() + s.begin;
    end_ = cur_ + s.size;
}

void
SnapshotReader::over_consumed() const
{
    if (section_ == 0) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "read outside any section");
    }
    throw SnapshotError(SnapshotErrorKind::kMalformed,
                        "section '" + image_->sections_[section_ - 1].name +
                            "' over-consumed");
}

void
SnapshotReader::finish() const
{
    if (section_ != image_->sections_.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "unconsumed sections remain");
    }
    if (cur_ != end_) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "last section left partially consumed");
    }
}

}  // namespace moka
