// store::WriteFileDurable and store::ReadFileToString, the one file
// writer and reader of src/: directory creation, replacement, the
// failure paths that must leave no visible change, and the
// store.write / store.rename fail points of the faults preset.

#include "store/atomic_file.h"

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "store/store_metric_names.h"

namespace pol::store {
namespace {

#if defined(POL_FAILPOINTS)
constexpr bool kFailPointsEnabled = true;
#else
constexpr bool kFailPointsEnabled = false;
#endif

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("pol_atomic_file_" + test_name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    FailPointRegistry::Global().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string Read(const std::string& path) {
    std::string bytes;
    const Status read = ReadFileToString(path, &bytes);
    EXPECT_TRUE(read.ok()) << read.ToString();
    return bytes;
  }

  std::filesystem::path dir_;
};

TEST_F(AtomicFileTest, CreatesMissingParentDirectories) {
  const std::string path = Path("a/b/c/file.txt");
  ASSERT_TRUE(WriteFileDurable(path, "nested").ok());
  EXPECT_EQ(Read(path), "nested");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(AtomicFileTest, ReplacesExistingContent) {
  const std::string path = Path("file.txt");
  ASSERT_TRUE(WriteFileDurable(path, "a longer first version").ok());
  ASSERT_TRUE(WriteFileDurable(path, "second").ok());
  EXPECT_EQ(Read(path), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(AtomicFileTest, ParentIsRegularFileIsIoErrorAndLeavesNoTemp) {
  const std::string blocker = Path("blocker");
  ASSERT_TRUE(std::ofstream(blocker).good());
  const std::string path = blocker + "/file.txt";
  const Status written = WriteFileDurable(path, "bytes");
  EXPECT_EQ(written.code(), StatusCode::kIoError) << written.ToString();
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_regular_file(blocker));
  EXPECT_EQ(std::filesystem::file_size(blocker), 0u);
}

TEST_F(AtomicFileTest, WriteFailPointLeavesTargetUntouched) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  const std::string path = Path("file.txt");
  ASSERT_TRUE(WriteFileDurable(path, "old").ok());
  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm(kFailPointStoreWrite, spec);
  EXPECT_EQ(WriteFileDurable(path, "new").code(), StatusCode::kIoError);
  FailPointRegistry::Global().Disarm(kFailPointStoreWrite);
  EXPECT_EQ(Read(path), "old");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(AtomicFileTest, RenameFailPointLeavesTempAndOldTarget) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  const std::string path = Path("file.txt");
  ASSERT_TRUE(WriteFileDurable(path, "old").ok());
  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm(kFailPointStoreRename, spec);
  EXPECT_EQ(WriteFileDurable(path, "new").code(), StatusCode::kIoError);
  FailPointRegistry::Global().Disarm(kFailPointStoreRename);
  // The torn-publish window: the durable temp holds the new bytes, the
  // target still holds the old ones.
  EXPECT_EQ(Read(path), "old");
  EXPECT_EQ(Read(path + ".tmp"), "new");
}

TEST_F(AtomicFileTest, ReadMissingFileIsNotFound) {
  std::string bytes = "stale";
  const Status read = ReadFileToString(Path("missing"), &bytes);
  EXPECT_EQ(read.code(), StatusCode::kNotFound) << read.ToString();
}

TEST_F(AtomicFileTest, ReadReturnsExactBytes) {
  // Embedded NULs, every byte value, and more than one read buffer.
  std::string bytes;
  for (int i = 0; i < 200000; ++i) bytes.push_back(static_cast<char>(i % 256));
  const std::string path = Path("binary.bin");
  ASSERT_TRUE(WriteFileDurable(path, bytes).ok());
  std::string out = "replaced";
  ASSERT_TRUE(ReadFileToString(path, &out).ok());
  EXPECT_EQ(out, bytes);
}

}  // namespace
}  // namespace pol::store
