#ifndef POL_STORE_SNAPSHOT_FORMAT_H_
#define POL_STORE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

// POLSNAP1 — the versioned, section-framed, CRC-checksummed container
// every snapshot-store generation is written in. The container knows
// nothing about inventories: it frames opaque, independently
// checksummed byte sections addressed by numeric id, 64-byte aligned so
// a reader can mmap the file and serve fixed-width records (u64 keys,
// offsets) straight out of the mapping — zero parse, zero copy. The
// inventory payload schema on top lives in core/snapshot_codec.h.
//
//   offset 0   magic "POLSNAP1"                      8 B
//          8   u32 format version (= 1)              4 B
//         12   u32 section count                     4 B
//         16   u64 total file size                   8 B
//         24   u64 reserved (0)                      8 B
//         32   section table: count * 32 B entries
//               { u32 id, u32 crc32(payload), u64 offset,
//                 u64 size, u64 reserved (0) }
//          +   u32 crc32(header + section table)
//          +   zero padding to the next 64 B boundary
//          +   section payloads, each 64 B-aligned, zero-padded
//
// All integers little-endian (asserted at compile time). Validation is
// total: magic, version, bounds of every table entry, alignment, the
// header CRC and every section CRC are checked before a single payload
// byte is trusted, and every failure is a clean kDataLoss — the
// truncation/bit-flip fuzz suite holds this as an invariant. After
// Validate() succeeds a reader may serve the mapping without further
// checks.

namespace pol::store {

inline constexpr std::string_view kSnapshotMagic = "POLSNAP1";
inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr size_t kSnapshotHeaderBytes = 32;
inline constexpr size_t kSnapshotTableEntryBytes = 32;
inline constexpr size_t kSnapshotSectionAlignment = 64;

// A validated, non-owning view over a POLSNAP1 image (typically a
// MappedFile's bytes; the mapping must outlive the view).
class SnapshotFileView {
 public:
  struct SectionInfo {
    uint32_t id = 0;
    uint32_t crc32 = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
  };

  // Fully validates `bytes` (framing, bounds, header CRC, every
  // section CRC). Every malformation — truncation anywhere, any
  // flipped bit — yields kDataLoss, never a crash or a partial view.
  static Result<SnapshotFileView> Validate(std::string_view bytes);

  // Payload of the section with `id`; kDataLoss when absent (a missing
  // section in an otherwise valid file is still unusable data).
  Result<std::string_view> Section(uint32_t id) const;
  bool HasSection(uint32_t id) const;

  // Table order (= layout order), for tooling like `polinv snapshots`.
  const std::vector<SectionInfo>& Sections() const { return sections_; }

  size_t file_size() const { return bytes_.size(); }

 private:
  std::string_view bytes_;
  std::vector<SectionInfo> sections_;
};

// Writes a POLSNAP1 file in place: the caller appends each section's
// payload straight into the image buffer, so no payload is staged in a
// string of its own and copied in afterwards. Sections are laid out in
// the order begun. The section count is fixed up front, which fixes
// where the first payload starts.
class SnapshotFileWriter {
 public:
  // `payload_bytes` is a size hint for all payloads together; the
  // buffer is reserved once for it plus the framing.
  explicit SnapshotFileWriter(size_t section_count, size_t payload_bytes = 0);

  // Ends the previous section (zero-padding it to the alignment) and
  // starts section `id`, whose payload is every byte appended to the
  // returned buffer until the next BeginSection or Finish. Ids must be
  // unique (POL_CHECKed). A section's size is fixed once it ends, but
  // its bytes are not: until Finish, any byte of any begun section may
  // be rewritten in place (a caller may size a section first and fill
  // it while writing a later one). Hence no CRC is taken before
  // Finish.
  std::string* BeginSection(uint32_t id);

  // Ends the last section, fills in the header and section table,
  // checksums every section as it now stands, and returns the complete
  // file image. Exactly `section_count` sections must have been begun
  // (POL_CHECKed).
  std::string Finish();

 private:
  void EndSection();

  size_t section_count_;
  std::string out_;
  std::vector<SnapshotFileView::SectionInfo> table_;
};

// Little-endian fixed-width accessors shared by the codec layer.
// Reading through memcpy is the defined-behavior way to load from a
// mapped byte range; compilers lower it to a single move.
uint32_t LoadU32(const char* p);
uint64_t LoadU64(const char* p);
void StoreU64(char* p, uint64_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);

}  // namespace pol::store

#endif  // POL_STORE_SNAPSHOT_FORMAT_H_
