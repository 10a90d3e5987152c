// The filesystem shim: typed errno surfacing, deterministic fault
// injection (ENOSPC at the Nth write, EIO on read, short writes, failed
// rename/fsync, mmap failure), and the OutStream writer every durable
// file in the harness goes through.
#include "core/fs_shim.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "core/mapped_file.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

class FsShimDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epgs_fsshim_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fsx::disarm();
    fs::remove_all(dir_);
  }

  [[nodiscard]] fs::path file(const std::string& name) const {
    return dir_ / name;
  }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  fs::path dir_;
};

TEST_F(FsShimDir, OutStreamWritesFormattedAndRawBytes) {
  const auto p = file("plain.txt");
  {
    fsx::OutStream out(p);
    out << "hello " << 42 << '\n';
    std::string big(200 * 1024, 'x');  // larger than the 64 KiB buffer
    out.write(big.data(), static_cast<std::streamsize>(big.size()));
    out.close();
  }
  const std::string got = slurp(p);
  EXPECT_EQ(got.substr(0, 9), "hello 42\n");
  EXPECT_EQ(got.size(), 9 + 200 * 1024);
  EXPECT_EQ(got.back(), 'x');
}

TEST_F(FsShimDir, OutStreamAppendMode) {
  const auto p = file("append.txt");
  {
    fsx::OutStream out(p);
    out << "first\n";
    out.close();
  }
  {
    fsx::OutStream out(p, fsx::OutStream::Mode::kAppend);
    out << "second\n";
    out.close();
  }
  EXPECT_EQ(slurp(p), "first\nsecond\n");
}

TEST_F(FsShimDir, EnospcAtNthWriteThrowsTyped) {
  fsx::Plan plan;
  plan.op = fsx::Op::kWrite;
  plan.error_code = ENOSPC;
  plan.at_call = 2;  // first flush succeeds, second hits the wall
  fsx::Scoped armed(plan);

  const auto p = file("enospc.bin");
  fsx::OutStream out(p);
  std::string chunk(64 * 1024, 'a');  // one full buffer = one write call
  EXPECT_NO_THROW(
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size())));
  // The exception must be the typed resource error, surfaced at the
  // stream operation that hit it — not a silent badbit.
  EXPECT_THROW(
      {
        out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        out.close();
      },
      ResourceExhaustedError);
  EXPECT_GE(fsx::fire_count(), 1);
}

TEST_F(FsShimDir, ShortWritesAreRetriedToCompletion) {
  fsx::Plan plan;
  plan.op = fsx::Op::kWrite;
  plan.short_write = true;
  plan.max_fires = 3;  // first few writes land torn, the loop must finish
  fsx::Scoped armed(plan);

  const auto p = file("short.bin");
  std::string payload;
  for (int i = 0; i < 100000; ++i) payload += std::to_string(i);
  {
    fsx::OutStream out(p);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.close();
  }
  EXPECT_EQ(fsx::fire_count(), 3);
  EXPECT_EQ(slurp(p), payload);  // no silent truncation
}

TEST_F(FsShimDir, PathFilterScopesFaultsToMatchingFiles) {
  fsx::Plan plan;
  plan.op = fsx::Op::kWrite;
  plan.error_code = ENOSPC;
  plan.path_substr = "victim";
  fsx::Scoped armed(plan);

  {
    fsx::OutStream ok(file("healthy.txt"));
    ok << "fine";
    ok.close();  // does not match: must not fire
  }
  fsx::OutStream bad(file("victim.txt"));
  EXPECT_THROW(
      {
        bad << "doomed";
        bad.close();
      },
      ResourceExhaustedError);
  EXPECT_EQ(slurp(file("healthy.txt")), "fine");
}

TEST_F(FsShimDir, RenameAndFsyncInjection) {
  {
    fsx::Plan plan;
    plan.op = fsx::Op::kRename;
    plan.error_code = ENOSPC;
    fsx::Scoped armed(plan);
    std::ofstream(file("a.txt")) << "x";
    EXPECT_THROW(fsx::rename(file("a.txt"), file("b.txt")),
                 ResourceExhaustedError);
    EXPECT_TRUE(fs::exists(file("a.txt")));  // injected before the syscall
  }
  {
    fsx::Plan plan;
    plan.op = fsx::Op::kFsync;
    plan.error_code = EIO;
    fsx::Scoped armed(plan);
    fsx::OutStream out(file("c.txt"));
    out << "y";
    EXPECT_THROW(out.sync_now(), IoError);
  }
}

TEST_F(FsShimDir, OpenInjectionAndRealRenameWork) {
  {
    fsx::Plan plan;
    plan.op = fsx::Op::kOpen;
    plan.error_code = EMFILE;  // fd exhaustion is a resource fault
    fsx::Scoped armed(plan);
    EXPECT_THROW(fsx::OutStream(file("nope.txt")), ResourceExhaustedError);
  }
  std::ofstream(file("from.txt")) << "z";
  fsx::rename(file("from.txt"), file("to.txt"));
  EXPECT_EQ(slurp(file("to.txt")), "z");
  fsx::fsync_dir(dir_);
  EXPECT_GT(fsx::free_disk_bytes(dir_), 0u);
}

TEST_F(FsShimDir, MmapFaultFallsBackToIdenticalBufferedRead) {
  const auto p = file("mapped.bin");
  std::string payload(100 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131);
  }
  std::ofstream(p, std::ios::binary).write(
      payload.data(), static_cast<std::streamsize>(payload.size()));

  std::string mapped_view;
  {
    const MappedFile m(p);
    EXPECT_TRUE(m.is_mapped());
    mapped_view = std::string(m.view());
  }
  {
    fsx::Plan plan;
    plan.op = fsx::Op::kMmap;
    plan.error_code = ENOMEM;
    fsx::Scoped armed(plan);
    const MappedFile m(p);
    EXPECT_FALSE(m.is_mapped());  // degraded, not failed
    EXPECT_EQ(m.view(), mapped_view);
  }
}

TEST_F(FsShimDir, ReadEioIsTypedNotMistakenForEof) {
  const auto p = file("sick.bin");
  std::ofstream(p, std::ios::binary) << std::string(4096, 'd');

  fsx::Plan plan;
  plan.op = fsx::Op::kRead;
  plan.error_code = EIO;
  fsx::Scoped armed(plan);
  // Force the buffered path so reads actually go through read(2).
  MappedFile::force_buffered(true);
  try {
    const MappedFile m(p);
    FAIL() << "EIO on read must surface as IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("sick.bin"), std::string::npos);
  } catch (const ResourceExhaustedError&) {
    FAIL() << "EIO is a sick disk, not an exhausted resource";
  }
  MappedFile::force_buffered(false);
}

TEST_F(FsShimDir, SpecParserRoundTrip) {
  fsx::arm_from_spec("write:ENOSPC:at=3:count=2:path=cache");
  EXPECT_TRUE(fsx::armed());
  fsx::disarm();
  EXPECT_FALSE(fsx::armed());

  fsx::arm_from_spec("write:short");
  EXPECT_TRUE(fsx::armed());
  fsx::disarm();

  fsx::arm_from_spec("read:EIO:at=1:count=1");
  EXPECT_TRUE(fsx::armed());
  fsx::disarm();

  EXPECT_THROW(fsx::arm_from_spec("write"), EpgsError);
  EXPECT_THROW(fsx::arm_from_spec("chmod:ENOSPC"), EpgsError);
  EXPECT_THROW(fsx::arm_from_spec("write:EWHAT"), EpgsError);
  EXPECT_THROW(fsx::arm_from_spec("write:ENOSPC:at=0"), EpgsError);
  EXPECT_THROW(fsx::arm_from_spec("write:ENOSPC:bogus=1"), EpgsError);
  EXPECT_FALSE(fsx::armed());
}

TEST_F(FsShimDir, SpecParserRejectsEveryMalformedShape) {
  // $EPGS_FS_FAULT is operator input: each malformed shape must be its
  // own typed rejection, never a silently-misarmed plan.
  const auto expect_reject = [](const char* spec) {
    EXPECT_THROW(fsx::arm_from_spec(spec), EpgsError) << spec;
    EXPECT_FALSE(fsx::armed()) << spec << " left a plan armed";
  };
  expect_reject("write::ENOSPC");          // doubled ':' = empty field
  expect_reject("write:ENOSPC:");          // trailing ':' = empty field
  expect_reject(":ENOSPC");                // empty op
  expect_reject("launder:ENOSPC");         // unknown op
  expect_reject("write:28");               // errno must be named, not raw
  expect_reject("write:enospc");           // names are case-sensitive
  expect_reject("write:ENOSPC:at=12abc");  // trailing junk in integer
  expect_reject("write:ENOSPC:at=");       // empty integer
  expect_reject("write:ENOSPC:count=");    // empty integer
  expect_reject("write:ENOSPC:count=0");   // count must be >= 1
  expect_reject("write:ENOSPC:count=-2");
  expect_reject("write:ENOSPC:path=");     // path= needs a substring
  expect_reject("write:ENOSPC:at");        // field without '='
}

}  // namespace
}  // namespace epgs
