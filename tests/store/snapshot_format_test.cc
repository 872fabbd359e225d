// POLSNAP1 container framing: build/validate round trips, section
// addressing, alignment, and total validation — every malformed image
// must come back as a clean kDataLoss, never a crash or partial view.

#include "store/snapshot_format.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace pol::store {
namespace {

std::string SampleImage() {
  SnapshotFileWriter writer(4);
  writer.BeginSection(0x01)->append("meta bytes");
  writer.BeginSection(0x10)->append(100, 'k');
  writer.BeginSection(0x30);  // Empty sections are legal.
  writer.BeginSection(0x42)->append("\x00\x01\x02\x03", 4);
  return writer.Finish();
}

TEST(SnapshotFormatTest, RoundTrip) {
  const std::string image = SampleImage();
  const Result<SnapshotFileView> view = SnapshotFileView::Validate(image);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->file_size(), image.size());
  ASSERT_EQ(view->Sections().size(), 4u);

  const Result<std::string_view> meta = view->Section(0x01);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(*meta, "meta bytes");

  const Result<std::string_view> keys = view->Section(0x10);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 100u);

  const Result<std::string_view> blob = view->Section(0x30);
  ASSERT_TRUE(blob.ok());
  EXPECT_TRUE(blob->empty());

  EXPECT_TRUE(view->HasSection(0x42));
  EXPECT_FALSE(view->HasSection(0x99));
}

TEST(SnapshotFormatTest, MissingSectionIsDataLoss) {
  const std::string image = SampleImage();
  const Result<SnapshotFileView> view = SnapshotFileView::Validate(image);
  ASSERT_TRUE(view.ok());
  const Result<std::string_view> absent = view->Section(0x99);
  EXPECT_EQ(absent.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotFormatTest, SectionsAreAligned) {
  const std::string image = SampleImage();
  const Result<SnapshotFileView> view = SnapshotFileView::Validate(image);
  ASSERT_TRUE(view.ok());
  for (const SnapshotFileView::SectionInfo& info : view->Sections()) {
    EXPECT_EQ(info.offset % kSnapshotSectionAlignment, 0u)
        << "section 0x" << std::hex << info.id;
  }
}

TEST(SnapshotFormatTest, EmptyFileIsValid) {
  const std::string image = SnapshotFileWriter(0).Finish();
  const Result<SnapshotFileView> view = SnapshotFileView::Validate(image);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->Sections().empty());
}

TEST(SnapshotFormatTest, DeterministicEncoding) {
  EXPECT_EQ(SampleImage(), SampleImage());
}

TEST(SnapshotFormatTest, RejectsBadMagic) {
  std::string image = SampleImage();
  image[0] = 'X';
  EXPECT_EQ(SnapshotFileView::Validate(image).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotFormatTest, RejectsBadVersion) {
  std::string image = SampleImage();
  image[8] = 2;  // u32 format version little-endian low byte.
  EXPECT_EQ(SnapshotFileView::Validate(image).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotFormatTest, RejectsShortHeader) {
  const std::string image = SampleImage();
  for (const size_t keep : {size_t{0}, size_t{7}, size_t{31}, size_t{63}}) {
    EXPECT_EQ(
        SnapshotFileView::Validate(image.substr(0, keep)).status().code(),
        StatusCode::kDataLoss)
        << keep << " bytes kept";
  }
}

TEST(SnapshotFormatTest, RejectsEveryTruncation) {
  const std::string image = SampleImage();
  for (size_t keep = 0; keep < image.size(); ++keep) {
    const Result<SnapshotFileView> view =
        SnapshotFileView::Validate(image.substr(0, keep));
    ASSERT_FALSE(view.ok()) << keep << " bytes kept";
    EXPECT_EQ(view.status().code(), StatusCode::kDataLoss)
        << keep << " bytes kept";
  }
}

TEST(SnapshotFormatTest, RejectsTrailingGarbage) {
  std::string image = SampleImage();
  image += "extra";
  EXPECT_EQ(SnapshotFileView::Validate(image).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotFormatTest, RejectsEveryBitFlip) {
  const std::string image = SampleImage();
  // Every byte, one flipped bit each — header, table, padding and
  // payload alike must be covered by a CRC (padding flips break the
  // header CRC or a section CRC only if covered; the format checksums
  // header+table and each payload, and validates padding is zero).
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    const Result<SnapshotFileView> view = SnapshotFileView::Validate(corrupt);
    ASSERT_FALSE(view.ok()) << "byte " << i;
    EXPECT_EQ(view.status().code(), StatusCode::kDataLoss) << "byte " << i;
  }
}

TEST(SnapshotFormatTest, FixedWidthAccessorsRoundTrip) {
  std::string buffer;
  AppendU32(&buffer, 0xCAFEBABEu);
  AppendU64(&buffer, 0x0123456789ABCDEFull);
  ASSERT_EQ(buffer.size(), 12u);
  EXPECT_EQ(LoadU32(buffer.data()), 0xCAFEBABEu);
  EXPECT_EQ(LoadU64(buffer.data() + 4), 0x0123456789ABCDEFull);
}

}  // namespace
}  // namespace pol::store
