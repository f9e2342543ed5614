#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "trace/csv_io.hpp"

namespace stagg {
namespace {

namespace fs = std::filesystem;

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "stagg_io_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string file(const std::string& name) const {
    return (dir_ / name).string();
  }

  static Trace make_sample() {
    Trace t;
    const ResourceId r0 = t.add_resource("root/m0/c0");
    const ResourceId r1 = t.add_resource("root/m0/c1");
    t.add_state(r0, "MPI_Init", 0, seconds(1.0));
    t.add_state(r0, "MPI_Send", seconds(1.0), seconds(1.5));
    t.add_state(r1, "MPI_Init", 0, seconds(1.0));
    t.add_state(r1, "MPI_Wait", seconds(1.2), seconds(2.0));
    t.seal();
    return t;
  }

  static void expect_equal(Trace& a, Trace& b) {
    a.seal();
    b.seal();
    ASSERT_EQ(a.resource_count(), b.resource_count());
    EXPECT_EQ(a.begin(), b.begin());
    EXPECT_EQ(a.end(), b.end());
    EXPECT_TRUE(a.states() == b.states());
    for (ResourceId r = 0; r < static_cast<ResourceId>(a.resource_count());
         ++r) {
      EXPECT_EQ(a.resource_path(r), b.resource_path(r));
      const auto ia = a.intervals(r);
      const auto ib = b.intervals(r);
      ASSERT_EQ(ia.size(), ib.size());
      for (std::size_t k = 0; k < ia.size(); ++k) {
        EXPECT_EQ(ia[k], ib[k]);
      }
    }
  }

  fs::path dir_;
};

TEST_F(TraceIoTest, BinaryRoundTrip) {
  Trace t = make_sample();
  const auto bytes = write_binary_trace(t, file("a.stgt"));
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(fs::file_size(file("a.stgt")), bytes);
  Trace back = read_binary_trace(file("a.stgt"));
  expect_equal(t, back);
}

TEST_F(TraceIoTest, BinaryInfoOnly) {
  Trace t = make_sample();
  write_binary_trace(t, file("a.stgt"));
  const TraceFileInfo info = read_binary_trace_info(file("a.stgt"));
  EXPECT_EQ(info.resource_paths.size(), 2u);
  EXPECT_EQ(info.record_count, 4u);
  EXPECT_EQ(info.states.size(), 3u);
  EXPECT_EQ(info.window_begin, 0);
  EXPECT_EQ(info.window_end, seconds(2.0));
}

TEST_F(TraceIoTest, StreamingSeesAllRecords) {
  Trace t = make_sample();
  write_binary_trace(t, file("a.stgt"));
  std::size_t records = 0;
  TimeNs dur_sum = 0;
  stream_binary_trace(
      file("a.stgt"),
      [&](std::span<const TraceRecord> chunk) {
        records += chunk.size();
        for (const auto& rec : chunk) dur_sum += rec.interval.duration();
      },
      /*chunk_records=*/2);  // force multiple chunks
  EXPECT_EQ(records, 4u);
  EXPECT_EQ(dur_sum, seconds(1.0) + seconds(0.5) + seconds(1.0) +
                         seconds(0.8));
}

TEST_F(TraceIoTest, BinaryRejectsBadMagic) {
  std::ofstream os(file("bad.stgt"), std::ios::binary);
  os << "NOTATRACEFILE___________________";
  os.close();
  EXPECT_THROW((void)read_binary_trace(file("bad.stgt")), TraceFormatError);
}

TEST_F(TraceIoTest, BinaryRejectsTruncation) {
  Trace t = make_sample();
  write_binary_trace(t, file("a.stgt"));
  // Chop the last 10 bytes.
  const auto full = fs::file_size(file("a.stgt"));
  fs::resize_file(file("a.stgt"), full - 10);
  EXPECT_THROW((void)read_binary_trace(file("a.stgt")), TraceFormatError);
}

// Fuzzing regression (fuzz/corpus/regressions/chunk_file/
// huge_resource_count.bin): a 48-byte header declaring 2^32 resources used
// to reserve ~137 GB up front and die with an uncaught std::bad_alloc.
// The count must stay untrusted until the table entries parse — the file
// has none, so the read must fail as loud truncation at an offset, not
// as an allocation crash.
TEST_F(TraceIoTest, BinaryHugeResourceCountFailsLoudlyNotByAllocation) {
  std::ofstream os(file("huge.stgt"), std::ios::binary);
  os << "STGTRC01";
  const std::uint64_t resource_count = 1ull << 32;
  const std::uint64_t zero = 0;
  os.write(reinterpret_cast<const char*>(&resource_count), 8);
  os.write(reinterpret_cast<const char*>(&zero), 8);  // state_count
  os.write(reinterpret_cast<const char*>(&zero), 8);  // window_begin
  os.write(reinterpret_cast<const char*>(&zero), 8);  // window_end
  os.write(reinterpret_cast<const char*>(&zero), 8);  // record_count
  os.close();
  try {
    (void)read_binary_trace_store(file("huge.stgt"));
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

// An STGT header's window reaches TimeGrid unchecked beyond end >= begin:
// a span whose slice-edge arithmetic overflows int64 must be rejected by
// the streaming model build, not computed through signed overflow.
TEST_F(TraceIoTest, StreamingBuildRejectsOverflowingHeaderWindow) {
  Trace t = make_sample();
  write_binary_trace(t, file("wide.stgt"));
  {
    // Header: magic (8), resource count (8), state count (8), then the
    // window begin and end.
    std::fstream fs(file("wide.stgt"),
                    std::ios::binary | std::ios::in | std::ios::out);
    const TimeNs begin = 0;
    const TimeNs end = TimeNs{1} << 62;
    fs.seekp(24);
    fs.write(reinterpret_cast<const char*>(&begin), 8);
    fs.write(reinterpret_cast<const char*>(&end), 8);
  }
  const TraceFileInfo info = read_binary_trace_info(file("wide.stgt"));
  ASSERT_EQ(info.window_end, TimeNs{1} << 62);

  HierarchyBuilder b("root");
  const NodeId m0 = b.add(0, "m0");
  b.add(m0, "c0");
  b.add(m0, "c1");
  const Hierarchy h = b.finish();
  EXPECT_THROW(
      (void)build_model_streaming(file("wide.stgt"), h, {.slice_count = 30}),
      InvalidArgument);
  // One slice keeps the edge arithmetic in range: the same file builds.
  const MicroscopicModel m =
      build_model_streaming(file("wide.stgt"), h, {.slice_count = 1});
  EXPECT_EQ(m.grid().end(), TimeNs{1} << 62);
}

TEST_F(TraceIoTest, ZeroChunkRecordsIsRejected) {
  Trace t = make_sample();
  write_binary_trace(t, file("a.stgt"));
  // A zero-record chunk used to make the stream loop spin forever.
  EXPECT_THROW(stream_binary_trace(
                   file("a.stgt"), [](std::span<const TraceRecord>) {}, 0),
               InvalidArgument);
  EXPECT_THROW((void)read_binary_trace_store(file("a.stgt"), 0),
               InvalidArgument);
}

TEST_F(TraceIoTest, HugeChunkRecordsIsClampedToTheRecordCount) {
  Trace t = make_sample();
  write_binary_trace(t, file("a.stgt"));
  // 2^40 records of buffer would be 24 TiB: the buffers must be sized by
  // the file's record count instead.
  const std::size_t huge = std::size_t{1} << 40;
  std::size_t calls = 0;
  std::size_t records = 0;
  stream_binary_trace(
      file("a.stgt"),
      [&](std::span<const TraceRecord> chunk) {
        ++calls;
        records += chunk.size();
      },
      huge);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(records, 4u);
  EXPECT_EQ(read_binary_trace_store(file("a.stgt"), huge)->state_count(), 4u);
}

TEST_F(TraceIoTest, MissingFileThrowsIoError) {
  EXPECT_THROW((void)read_binary_trace(file("missing.stgt")), IoError);
  EXPECT_THROW((void)read_csv_trace(file("missing.csv")), IoError);
}

TEST_F(TraceIoTest, CsvRoundTripFile) {
  Trace t = make_sample();
  const auto bytes = write_csv_trace(t, file("a.csv"));
  EXPECT_GT(bytes, 0u);
  Trace back = read_csv_trace(file("a.csv"));
  expect_equal(t, back);
}

TEST_F(TraceIoTest, CsvRoundTripStream) {
  Trace t = make_sample();
  std::ostringstream os;
  write_csv_trace(t, os);
  std::istringstream is(os.str());
  Trace back = read_csv_trace(is);
  expect_equal(t, back);
}

TEST_F(TraceIoTest, CsvWriterRejectsCommaInNames) {
  // Unquoted format: a comma in a resource path or state name would be
  // re-read as a field separator — the writer must throw, not corrupt the
  // roundtrip.
  Trace bad_path;
  const ResourceId r = bad_path.add_resource("root/m0,shard1/c0");
  bad_path.add_state(r, "Compute", 0, seconds(1.0));
  std::ostringstream os;
  EXPECT_THROW(write_csv_trace(bad_path, os), TraceFormatError);

  Trace bad_state;
  const ResourceId r2 = bad_state.add_resource("root/m0/c0");
  bad_state.add_state(r2, "Send,recv", 0, seconds(1.0));
  EXPECT_THROW((void)write_csv_trace(bad_state, file("bad.csv")),
               TraceFormatError);

  Trace newline_state;
  const ResourceId r3 = newline_state.add_resource("root/m0/c0");
  newline_state.add_state(r3, "Send\nrecv", 0, seconds(1.0));
  std::ostringstream os3;
  EXPECT_THROW(write_csv_trace(newline_state, os3), TraceFormatError);
}

TEST_F(TraceIoTest, CsvReaderRejectsRecordWithEmbeddedComma) {
  // What a comma-bearing name would have produced: six fields.
  std::istringstream is("STATE,root/m0,shard1/c0,x,0,10\n");
  EXPECT_THROW((void)read_csv_trace(is), TraceFormatError);
}

TEST_F(TraceIoTest, CsvRejectsMalformedRecords) {
  std::istringstream missing_fields("STATE,r,x,1\n");
  EXPECT_THROW((void)read_csv_trace(missing_fields), TraceFormatError);
  std::istringstream bad_kind("EVENT,r,x,1,2\n");
  EXPECT_THROW((void)read_csv_trace(bad_kind), TraceFormatError);
  std::istringstream bad_time("STATE,r,x,abc,2\n");
  EXPECT_THROW((void)read_csv_trace(bad_time), TraceFormatError);
  std::istringstream reversed("STATE,r,x,5,2\n");
  EXPECT_THROW((void)read_csv_trace(reversed), TraceFormatError);
}

TEST_F(TraceIoTest, CsvIgnoresCommentsAndBlankLines) {
  std::istringstream is(
      "# a comment\n\nSTATE,r,x,0,10\n   \n# another\nSTATE,r,y,10,20\n");
  Trace t = read_csv_trace(is);
  EXPECT_EQ(t.state_count(), 2u);
  EXPECT_EQ(t.states().size(), 2u);
}

TEST_F(TraceIoTest, BinaryIsSmallerThanCsv) {
  Trace t = make_sample();
  const auto bin = write_binary_trace(t, file("a.stgt"));
  const auto csv = write_csv_trace(t, file("a.csv"));
  EXPECT_LT(bin, csv);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  Trace t;
  t.add_resource("only/resource");
  t.states().intern("unused");
  t.set_window(0, 100);
  write_binary_trace(t, file("empty.stgt"));
  Trace back = read_binary_trace(file("empty.stgt"));
  EXPECT_EQ(back.resource_count(), 1u);
  EXPECT_EQ(back.state_count(), 0u);
  EXPECT_EQ(back.end(), 100);
}

}  // namespace
}  // namespace stagg
