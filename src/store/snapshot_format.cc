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

void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

SnapshotFileWriter::SnapshotFileWriter(size_t section_count,
                                       size_t payload_bytes)
    : section_count_(section_count) {
  // Header + table + header CRC, padded to the first section boundary.
  const size_t preamble = AlignUp(kSnapshotHeaderBytes +
                                  section_count * kSnapshotTableEntryBytes +
                                  sizeof(uint32_t));
  out_.reserve(preamble + payload_bytes +
               section_count * kSnapshotSectionAlignment);
  out_.resize(preamble, '\0');
  table_.reserve(section_count);
}

void SnapshotFileWriter::EndSection() {
  if (table_.empty()) return;
  table_.back().size = out_.size() - table_.back().offset;
  out_.resize(AlignUp(out_.size()), '\0');
}

std::string* SnapshotFileWriter::BeginSection(uint32_t id) {
  for (const SnapshotFileView::SectionInfo& existing : table_) {
    POL_CHECK(existing.id != id) << "duplicate POLSNAP1 section id " << id;
  }
  POL_CHECK(table_.size() < section_count_)
      << "more POLSNAP1 sections than the " << section_count_ << " declared";
  EndSection();
  SnapshotFileView::SectionInfo info;
  info.id = id;
  info.offset = out_.size();
  table_.push_back(info);
  return &out_;
}

std::string SnapshotFileWriter::Finish() {
  POL_CHECK(table_.size() == section_count_)
      << table_.size() << " POLSNAP1 sections begun, " << section_count_
      << " declared";
  EndSection();
  std::string header;
  header.reserve(kSnapshotHeaderBytes + table_.size() * kSnapshotTableEntryBytes);
  header.append(kSnapshotMagic);
  AppendU32(&header, kSnapshotFormatVersion);
  AppendU32(&header, static_cast<uint32_t>(table_.size()));
  AppendU64(&header, out_.size());
  AppendU64(&header, 0);  // reserved
  for (const SnapshotFileView::SectionInfo& section : table_) {
    AppendU32(&header, section.id);
    AppendU32(&header,
              Crc32(std::string_view(out_.data() + section.offset,
                                     static_cast<size_t>(section.size))));
    AppendU64(&header, section.offset);
    AppendU64(&header, section.size);
    AppendU64(&header, 0);  // reserved
  }
  AppendU32(&header, Crc32(header));
  out_.replace(0, header.size(), header);
  table_.clear();
  return std::move(out_);
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
