#include "src/support/file_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <string>

namespace sdfmap {
namespace {

std::string make_temp_dir() {
  std::string templ = ::testing::TempDir() + "sdfmap_fileio_XXXXXX";
  const char* dir = ::mkdtemp(templ.data());
  EXPECT_NE(dir, nullptr);
  return templ;
}

TEST(FileIoTest, ReadMissingFileIsNullopt) {
  FileIo io;
  const std::string dir = make_temp_dir();
  EXPECT_FALSE(io.read_file(dir + "/nope").has_value());
  EXPECT_FALSE(io.file_size(dir + "/nope").has_value());
}

TEST(FileIoTest, AtomicWriteRoundtrip) {
  FileIo io;
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/file.bin";
  const std::string payload("\x00\x01\xffhello", 8);
  io.atomic_write_file(path, payload);
  EXPECT_EQ(io.read_file(path), payload);
  EXPECT_EQ(io.file_size(path), 8);
  // Replacement is whole-file: the tmp file never survives.
  io.atomic_write_file(path, "second");
  EXPECT_EQ(io.read_file(path), "second");
  EXPECT_FALSE(io.read_file(path + ".tmp").has_value());
}

TEST(FileIoTest, MakeDirsCreatesNestedAndTolerstesExisting) {
  FileIo io;
  const std::string dir = make_temp_dir();
  io.make_dirs(dir + "/a/b/c");
  io.make_dirs(dir + "/a/b/c");  // idempotent
  io.atomic_write_file(dir + "/a/b/c/x", "1");
  EXPECT_EQ(io.read_file(dir + "/a/b/c/x"), "1");
}

TEST(FileIoTest, AppenderAppendsAndListsSorted) {
  FileIo io;
  const std::string dir = make_temp_dir();
  {
    auto b = io.open_append(dir + "/b.dat");
    b->append("bb");
    auto a = io.open_append(dir + "/a.dat");
    a->append("a");
    b->append("BB");
    b->sync();
  }
  EXPECT_EQ(io.read_file(dir + "/b.dat"), "bbBB");
  EXPECT_EQ(io.list_files(dir), (std::vector<std::string>{"a.dat", "b.dat"}));
  io.remove_file(dir + "/a.dat");
  io.remove_file(dir + "/a.dat");  // missing file is not an error
  EXPECT_EQ(io.list_files(dir), (std::vector<std::string>{"b.dat"}));
}

TEST(FileIoTest, ExclusiveLockExcludesSecondHolder) {
  FileIo io;
  const std::string dir = make_temp_dir();
  auto first = io.try_lock_exclusive(dir + "/lock");
  ASSERT_TRUE(first.has_value());
  // A second open file description (even in-process) must be excluded.
  EXPECT_FALSE(io.try_lock_exclusive(dir + "/lock").has_value());
  first.reset();
  EXPECT_TRUE(io.try_lock_exclusive(dir + "/lock").has_value());
}

TEST(FileIoTest, InjectedFailThrowsIoErrorWithContext) {
  const std::string dir = make_temp_dir();
  FileIo io([](int, IoOp op, const std::string&) {
    return op == IoOp::kWrite ? FaultDecision::fail(EIO) : FaultDecision::proceed();
  });
  auto appender = io.open_append(dir + "/x.dat");
  try {
    appender->append("data");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), IoOp::kWrite);
    EXPECT_EQ(e.error_number(), EIO);
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos);
  }
  // Nothing was persisted.
  EXPECT_EQ(io.read_file(dir + "/x.dat"), "");
}

TEST(FileIoTest, InjectedShortWritePersistsPrefixThenFails) {
  const std::string dir = make_temp_dir();
  FileIo io([](int, IoOp op, const std::string&) {
    return op == IoOp::kWrite ? FaultDecision::short_write(3) : FaultDecision::proceed();
  });
  auto appender = io.open_append(dir + "/x.dat");
  EXPECT_THROW(appender->append("abcdef"), IoError);
  FileIo clean;
  EXPECT_EQ(clean.read_file(dir + "/x.dat"), "abc");
}

TEST(FileIoTest, CrashLatchesEveryLaterCall) {
  const std::string dir = make_temp_dir();
  FileIo io([](int index, IoOp, const std::string&) {
    return index == 2 ? FaultDecision::crash() : FaultDecision::proceed();
  });
  auto appender = io.open_append(dir + "/x.dat");  // call 0
  appender->append("one");                         // call 1
  EXPECT_THROW(appender->append("two"), IoError);  // call 2: crash
  EXPECT_TRUE(io.crashed());
  // The context died: every later operation fails, nothing else is written.
  EXPECT_THROW((void)io.read_file(dir + "/x.dat"), IoError);
  EXPECT_THROW(io.atomic_write_file(dir + "/y", "z"), IoError);
  FileIo clean;
  EXPECT_EQ(clean.read_file(dir + "/x.dat"), "one");
  EXPECT_EQ(io.calls(), 5);
}

TEST(FileIoTest, FaultHookSeesIndicesOpsAndPaths) {
  const std::string dir = make_temp_dir();
  std::vector<std::pair<int, IoOp>> seen;
  FileIo io([&](int index, IoOp op, const std::string& path) {
    EXPECT_FALSE(path.empty());
    seen.emplace_back(index, op);
    return FaultDecision::proceed();
  });
  io.atomic_write_file(dir + "/f", "payload");
  ASSERT_GE(seen.size(), 4u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, static_cast<int>(i));  // strictly increasing indices
  }
  EXPECT_EQ(seen[0].second, IoOp::kOpen);
  EXPECT_EQ(seen[1].second, IoOp::kWrite);
  EXPECT_EQ(seen[2].second, IoOp::kFsync);
  EXPECT_EQ(seen[3].second, IoOp::kRename);
}

}  // namespace
}  // namespace sdfmap
