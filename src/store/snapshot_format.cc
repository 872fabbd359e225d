#include "store/snapshot_format.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "common/status.h"

static_assert(std::endian::native == std::endian::little,
              "POLSNAP1 is a little-endian format; big-endian hosts need "
              "byte-swapping load/store helpers before this layer can run");

namespace pol::store {
namespace {

size_t AlignUp(size_t n) {
  return (n + kSnapshotSectionAlignment - 1) &
         ~(kSnapshotSectionAlignment - 1);
}

Status Malformed(std::string why) {
  return Status::DataLoss("POLSNAP1: " + std::move(why));
}

}  // namespace

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void SnapshotFileBuilder::AddSection(uint32_t id, std::string payload) {
  for (const Pending& existing : sections_) {
    POL_CHECK(existing.id != id) << "duplicate POLSNAP1 section id " << id;
  }
  sections_.push_back(Pending{id, std::move(payload)});
}

std::string SnapshotFileBuilder::Finish() {
  const size_t table_bytes = sections_.size() * kSnapshotTableEntryBytes;
  // Header + table + header CRC, padded to the first section boundary.
  const size_t preamble = kSnapshotHeaderBytes + table_bytes + sizeof(uint32_t);
  size_t cursor = AlignUp(preamble);
  std::vector<uint64_t> offsets;
  offsets.reserve(sections_.size());
  for (const Pending& section : sections_) {
    offsets.push_back(cursor);
    cursor = AlignUp(cursor + section.payload.size());
  }
  const size_t file_size = cursor;

  std::string out;
  out.reserve(file_size);
  out.append(kSnapshotMagic);
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, static_cast<uint32_t>(sections_.size()));
  AppendU64(&out, file_size);
  AppendU64(&out, 0);  // reserved
  for (size_t i = 0; i < sections_.size(); ++i) {
    AppendU32(&out, sections_[i].id);
    AppendU32(&out, Crc32(sections_[i].payload));
    AppendU64(&out, offsets[i]);
    AppendU64(&out, sections_[i].payload.size());
    AppendU64(&out, 0);  // reserved
  }
  AppendU32(&out, Crc32(out));
  out.resize(AlignUp(out.size()), '\0');
  for (size_t i = 0; i < sections_.size(); ++i) {
    POL_DCHECK(out.size() == offsets[i]);
    out.append(sections_[i].payload);
    out.resize(AlignUp(out.size()), '\0');
    std::string().swap(sections_[i].payload);
  }
  sections_.clear();
  POL_DCHECK(out.size() == file_size);
  return out;
}

Result<SnapshotFileView> SnapshotFileView::Validate(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderBytes + sizeof(uint32_t)) {
    return Malformed("file too small for header");
  }
  if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return Malformed("bad magic");
  }
  const char* p = bytes.data();
  const uint32_t version = LoadU32(p + 8);
  if (version != kSnapshotFormatVersion) {
    return Malformed("unsupported format version " + std::to_string(version));
  }
  const uint64_t count = LoadU32(p + 12);
  const uint64_t file_size = LoadU64(p + 16);
  if (file_size != bytes.size()) {
    return Malformed("header file size " + std::to_string(file_size) +
                     " != actual " + std::to_string(bytes.size()));
  }
  const uint64_t table_end =
      kSnapshotHeaderBytes + count * kSnapshotTableEntryBytes;
  if (table_end + sizeof(uint32_t) > bytes.size()) {
    return Malformed("section table overruns file");
  }
  const uint32_t stored_header_crc =
      LoadU32(p + static_cast<size_t>(table_end));
  if (Crc32(bytes.substr(0, static_cast<size_t>(table_end))) !=
      stored_header_crc) {
    return Malformed("header CRC mismatch");
  }
  SnapshotFileView view;
  view.bytes_ = bytes;
  view.sections_.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const char* entry = p + kSnapshotHeaderBytes + i * kSnapshotTableEntryBytes;
    SectionInfo info;
    info.id = LoadU32(entry);
    info.crc32 = LoadU32(entry + 4);
    info.offset = LoadU64(entry + 8);
    info.size = LoadU64(entry + 16);
    if (info.offset % kSnapshotSectionAlignment != 0) {
      return Malformed("section " + std::to_string(info.id) + " misaligned");
    }
    if (info.offset > bytes.size() || info.size > bytes.size() - info.offset) {
      return Malformed("section " + std::to_string(info.id) +
                       " overruns file");
    }
    for (const SectionInfo& seen : view.sections_) {
      if (seen.id == info.id) {
        return Malformed("duplicate section id " + std::to_string(info.id));
      }
    }
    if (Crc32(bytes.substr(static_cast<size_t>(info.offset),
                           static_cast<size_t>(info.size))) != info.crc32) {
      return Malformed("section " + std::to_string(info.id) +
                       " CRC mismatch");
    }
    view.sections_.push_back(info);
  }
  // Every byte outside the framed regions must be zero padding. The
  // CRCs cover the header, the table and every payload; this scan
  // covers the gaps, so no single corrupted byte anywhere in the file
  // can go unnoticed (the fuzz suite flips each one).
  std::vector<std::pair<uint64_t, uint64_t>> spans;  // [begin, end)
  spans.reserve(view.sections_.size() + 1);
  spans.emplace_back(0, table_end + sizeof(uint32_t));
  for (const SectionInfo& info : view.sections_) {
    spans.emplace_back(info.offset, info.offset + info.size);
  }
  std::sort(spans.begin(), spans.end());
  uint64_t covered = 0;
  const auto zero_through = [&bytes](uint64_t begin, uint64_t end) {
    for (uint64_t b = begin; b < end; ++b) {
      if (bytes[static_cast<size_t>(b)] != '\0') return false;
    }
    return true;
  };
  for (const auto& [begin, end] : spans) {
    if (begin < covered && begin != end) {
      return Malformed("overlapping sections");
    }
    if (!zero_through(covered, begin)) {
      return Malformed("nonzero padding before offset " +
                       std::to_string(begin));
    }
    if (end > covered) covered = end;
  }
  if (!zero_through(covered, bytes.size())) {
    return Malformed("nonzero padding at end of file");
  }
  return view;
}

Result<std::string_view> SnapshotFileView::Section(uint32_t id) const {
  for (const SectionInfo& info : sections_) {
    if (info.id == id) {
      return bytes_.substr(static_cast<size_t>(info.offset),
                           static_cast<size_t>(info.size));
    }
  }
  return Malformed("missing section id " + std::to_string(id));
}

bool SnapshotFileView::HasSection(uint32_t id) const {
  for (const SectionInfo& info : sections_) {
    if (info.id == id) return true;
  }
  return false;
}

}  // namespace pol::store
