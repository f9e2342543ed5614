#include "trace/binary_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/mapped_file.hpp"
#include "common/thread_pool.hpp"
#include "trace/stream_decode.hpp"

namespace stagg {
namespace {

constexpr char kMagic[8] = {'S', 'T', 'G', 'T', 'R', 'C', '0', '1'};
constexpr char kChunkMagic[8] = {'S', 'T', 'G', 'C', 'H', 'K', '0', '2'};
constexpr char kSpillMagic[8] = {'S', 'T', 'G', 'S', 'P', 'L', '0', '2'};
constexpr std::size_t kRecordBytes = 4 + 4 + 8 + 8;
static_assert(kRecordBytes == StgtRecordDecoder::kRecordBytes,
              "STGT record framing is shared with the resumable decoder");
/// Chunk record header: u32 resource | u8 begin_codec | u8 end_codec |
/// u8 state_codec | u8 flags | u64 count | i64 min_begin | i64 min_end |
/// i64 max_end | u64 begin_bytes | u64 end_bytes | u64 state_bytes |
/// u64 checksum.  72 bytes, 8-aligned.
constexpr std::size_t kChunkHeaderBytes = 72;

constexpr std::uint64_t pad8(std::uint64_t n) {
  return (n + 7) & ~std::uint64_t{7};
}

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_file(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) throw IoError("cannot open '" + path + "'");
  return f;
}

void write_bytes(std::FILE* f, const void* data, std::size_t n,
                 const std::string& path) {
  if (std::fwrite(data, 1, n, f) != n) {
    throw IoError("short write to '" + path + "'");
  }
}

void read_bytes(std::FILE* f, void* data, std::size_t n,
                const std::string& path) {
  const long at = std::ftell(f);
  if (std::fread(data, 1, n, f) != n) {
    throw TraceFormatError("truncated file '" + path + "' at offset " +
                           std::to_string(at));
  }
}

template <typename T>
void write_pod(std::FILE* f, T v, const std::string& path) {
  write_bytes(f, &v, sizeof v, path);
}

template <typename T>
T read_pod(std::FILE* f, const std::string& path) {
  T v{};
  read_bytes(f, &v, sizeof v, path);
  return v;
}

void write_string(std::FILE* f, const std::string& s, const std::string& path) {
  write_pod<std::uint32_t>(f, narrow<std::uint32_t>(s.size()), path);
  write_bytes(f, s.data(), s.size(), path);
}

std::string read_string(std::FILE* f, const std::string& path) {
  const auto len = read_pod<std::uint32_t>(f, path);
  if (len > (1u << 20)) {
    throw TraceFormatError("string too long in '" + path + "'");
  }
  std::string s(len, '\0');
  read_bytes(f, s.data(), len, path);
  return s;
}

void encode_record(std::uint8_t* out, ResourceId r, const StateInterval& s) {
  const auto ur = narrow<std::uint32_t>(r);
  const auto ux = narrow<std::uint32_t>(s.state);
  std::memcpy(out, &ur, 4);
  std::memcpy(out + 4, &ux, 4);
  std::memcpy(out + 8, &s.begin, 8);
  std::memcpy(out + 16, &s.end, 8);
}

TraceFileInfo read_header(std::FILE* f, const std::string& path) {
  char magic[8];
  read_bytes(f, magic, sizeof magic, path);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw TraceFormatError("bad magic in '" + path + "'");
  }
  TraceFileInfo info;
  const auto resource_count = read_pod<std::uint64_t>(f, path);
  const auto state_count = read_pod<std::uint64_t>(f, path);
  info.window_begin = read_pod<TimeNs>(f, path);
  info.window_end = read_pod<TimeNs>(f, path);
  info.record_count = read_pod<std::uint64_t>(f, path);
  if (resource_count > (1ull << 32) || state_count > (1ull << 20)) {
    throw TraceFormatError("implausible table sizes in '" + path + "'");
  }
  // The count is untrusted until the table entries actually parse: a
  // 48-byte file declaring 2^32 resources must die with a loud truncation
  // error at the first missing entry, not take down the process with
  // bad_alloc from a speculative 100+ GB reserve (found by fuzzing).
  info.resource_paths.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(resource_count, 4096)));
  for (std::uint64_t i = 0; i < resource_count; ++i) {
    info.resource_paths.push_back(read_string(f, path));
  }
  for (std::uint64_t i = 0; i < state_count; ++i) {
    info.states.intern(read_string(f, path));
  }
  return info;
}

void require_chunk_records(std::size_t chunk_records) {
  if (chunk_records == 0) {
    throw InvalidArgument("chunk_records must be at least 1");
  }
}

/// Offset of the record section (the read position right after the
/// tables), returned once the declared record count is known to fit the
/// file.  The check divides instead of multiplying, before anything is
/// sized from the count: a header declaring 2^61 records must fail as
/// truncation, not overflow the byte arithmetic or die in an allocation.
std::uint64_t checked_records_base(std::FILE* f, const TraceFileInfo& info,
                                   const std::string& path) {
  const long base = std::ftell(f);
  if (base < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    throw IoError("seek failed on '" + path + "'");
  }
  const long size = std::ftell(f);
  if (size < base || std::fseek(f, base, SEEK_SET) != 0) {
    throw IoError("seek failed on '" + path + "'");
  }
  const auto records_base = static_cast<std::uint64_t>(base);
  const std::uint64_t present =
      (static_cast<std::uint64_t>(size) - records_base) / kRecordBytes;
  if (info.record_count > present) {
    throw TraceFormatError(
        "truncated file '" + path + "' at offset " +
        std::to_string(records_base + present * kRecordBytes) + " (" +
        std::to_string(info.record_count) + " records declared, " +
        std::to_string(present) + " present)");
  }
  return records_base;
}

// --- Chunk records (shared by chunk files and spill files) -----------------

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

/// The codec tags and raw section bytes a record stores for one chunk:
/// the raw columns of an addressable chunk, the encoded blocks of a
/// compressed one — records preserve the chunk's in-memory encoding,
/// never re-encode.
struct ChunkSections {
  TimeCodec begin_codec = TimeCodec::kRaw;
  TimeCodec end_codec = TimeCodec::kRaw;
  StateCodec state_codec = StateCodec::kRaw;
  std::span<const std::uint8_t> begin;
  std::span<const std::uint8_t> end;
  std::span<const std::uint8_t> state;
};

ChunkSections chunk_sections(const TraceChunk& chunk) {
  ChunkSections s;
  if (chunk.addressable()) {
    s.begin = {reinterpret_cast<const std::uint8_t*>(chunk.begins().data()),
               chunk.begins().size_bytes()};
    s.end = {reinterpret_cast<const std::uint8_t*>(chunk.ends().data()),
             chunk.ends().size_bytes()};
    s.state = {reinterpret_cast<const std::uint8_t*>(chunk.states().data()),
               chunk.states().size_bytes()};
    return s;
  }
  const auto* compressed =
      dynamic_cast<const CompressedChunkPayload*>(chunk.payload().get());
  if (compressed == nullptr) {
    throw InvalidArgument("chunk record: unknown non-addressable payload");
  }
  const ColumnsCoding& coding = compressed->coding();
  s.begin_codec = coding.begin_codec;
  s.end_codec = coding.end_codec;
  s.state_codec = coding.state_codec;
  s.begin = coding.begin_section;
  s.end = coding.end_section;
  s.state = coding.state_section;
  return s;
}

/// Total on-disk bytes of one chunk record.
std::uint64_t chunk_record_bytes(std::uint64_t begin_bytes,
                                    std::uint64_t end_bytes,
                                    std::uint64_t state_bytes) {
  return kChunkHeaderBytes + pad8(begin_bytes) + pad8(end_bytes) +
         pad8(state_bytes);
}

void write_chunk_record(std::FILE* f, const std::string& path,
                        ResourceId resource, const TraceChunk& chunk) {
  ChunkSections sec = chunk_sections(chunk);
  std::uint64_t checksum = kFnvOffsetBasis;
  checksum = fnv1a(sec.begin.data(), sec.begin.size(), checksum);
  checksum = fnv1a(sec.end.data(), sec.end.size(), checksum);
  checksum = fnv1a(sec.state.data(), sec.state.size(), checksum);

  std::uint8_t header[kChunkHeaderBytes] = {};
  const auto ur = narrow<std::uint32_t>(resource);
  const auto count = static_cast<std::uint64_t>(chunk.size());
  const TimeNs min_begin = chunk.min_begin();
  const TimeNs min_end = chunk.min_end();
  const TimeNs max_end = chunk.max_end();
  const std::uint64_t begin_bytes = sec.begin.size();
  const std::uint64_t end_bytes = sec.end.size();
  const std::uint64_t state_bytes = sec.state.size();
  std::memcpy(header, &ur, 4);
  header[4] = time_codec_tag(sec.begin_codec);
  header[5] = time_codec_tag(sec.end_codec);
  header[6] = state_codec_tag(sec.state_codec);
  header[7] = 0;  // flags
  std::memcpy(header + 8, &count, 8);
  std::memcpy(header + 16, &min_begin, 8);
  std::memcpy(header + 24, &min_end, 8);
  std::memcpy(header + 32, &max_end, 8);
  std::memcpy(header + 40, &begin_bytes, 8);
  std::memcpy(header + 48, &end_bytes, 8);
  std::memcpy(header + 56, &state_bytes, 8);
  std::memcpy(header + 64, &checksum, 8);
  write_bytes(f, header, sizeof header, path);
  const std::uint8_t zeros[8] = {};
  for (const std::span<const std::uint8_t> section :
       {sec.begin, sec.end, sec.state}) {
    write_bytes(f, section.data(), section.size(), path);
    const std::uint64_t pad = pad8(section.size()) - section.size();
    if (pad != 0) write_bytes(f, zeros, static_cast<std::size_t>(pad), path);
  }
}

struct MappedChunkRecord {
  ResourceId resource = kInvalidResource;
  TraceChunkPtr chunk;
  std::size_t record_bytes = 0;
};

/// Validates and maps one chunk record: bounds and codec tags first,
/// then the section checksum, then a full streaming decode re-deriving
/// sort order, state range and all three fences (a compressed section is
/// only trusted after every varint/dictionary/run in it decoded cleanly).
/// All-raw records come back as zero-copy mapped columns; anything else
/// as a compressed chunk streaming from the mapping.
MappedChunkRecord map_chunk_record(
    const std::shared_ptr<const MappedRegion>& region, std::size_t pos,
    std::uint64_t region_file_offset, const std::string& path,
    std::uint64_t state_count) {
  const std::uint64_t file_offset = region_file_offset + pos;
  const auto offset_str = " in '" + path + "' at offset " +
                          std::to_string(file_offset);
  const std::uint8_t* base = region->data();
  const std::size_t avail = region->size();
  if (pos + kChunkHeaderBytes > avail) {
    throw TraceFormatError("truncated chunk header" + offset_str);
  }
  std::uint32_t ur = 0;
  std::uint64_t count = 0;
  TimeNs min_begin = 0;
  TimeNs min_end = 0;
  TimeNs max_end = 0;
  std::uint64_t begin_bytes = 0;
  std::uint64_t end_bytes = 0;
  std::uint64_t state_bytes = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&ur, base + pos, 4);
  const std::uint8_t begin_tag = base[pos + 4];
  const std::uint8_t end_tag = base[pos + 5];
  const std::uint8_t state_tag = base[pos + 6];
  const std::uint8_t flags = base[pos + 7];
  std::memcpy(&count, base + pos + 8, 8);
  std::memcpy(&min_begin, base + pos + 16, 8);
  std::memcpy(&min_end, base + pos + 24, 8);
  std::memcpy(&max_end, base + pos + 32, 8);
  std::memcpy(&begin_bytes, base + pos + 40, 8);
  std::memcpy(&end_bytes, base + pos + 48, 8);
  std::memcpy(&state_bytes, base + pos + 56, 8);
  std::memcpy(&checksum, base + pos + 64, 8);
  if (count == 0) {
    throw TraceFormatError("empty chunk record" + offset_str);
  }
  if (flags != 0) {
    throw TraceFormatError("unknown chunk record flags " +
                           std::to_string(flags) + offset_str);
  }
  if (!time_codec_valid(begin_tag) || !time_codec_valid(end_tag) ||
      !state_codec_valid(state_tag) ||
      static_cast<TimeCodec>(end_tag) == TimeCodec::kGapFromPrevEnd) {
    throw TraceFormatError("invalid chunk codec tags" + offset_str);
  }
  // Guard the size arithmetic: each section must fit the remaining bytes
  // on its own before the padded sum is formed (a huge size must read as
  // truncation, not wrap into a small record).
  const std::uint64_t remaining = avail - pos;
  if (begin_bytes > remaining || end_bytes > remaining ||
      state_bytes > remaining) {
    throw TraceFormatError("truncated chunk payload" + offset_str +
                           " (section sizes exceed the file)");
  }
  const std::uint64_t record_bytes =
      chunk_record_bytes(begin_bytes, end_bytes, state_bytes);
  if (record_bytes > remaining) {
    throw TraceFormatError("truncated chunk payload" + offset_str);
  }
  const std::size_t sec0 = pos + kChunkHeaderBytes;
  const std::size_t sec1 = sec0 + static_cast<std::size_t>(pad8(begin_bytes));
  const std::size_t sec2 = sec1 + static_cast<std::size_t>(pad8(end_bytes));
  ColumnsCoding coding;
  coding.count = count;
  coding.begin_codec = static_cast<TimeCodec>(begin_tag);
  coding.end_codec = static_cast<TimeCodec>(end_tag);
  coding.state_codec = static_cast<StateCodec>(state_tag);
  coding.begin_section = {base + sec0,
                          static_cast<std::size_t>(begin_bytes)};
  coding.end_section = {base + sec1, static_cast<std::size_t>(end_bytes)};
  coding.state_section = {base + sec2,
                          static_cast<std::size_t>(state_bytes)};
  std::uint64_t computed = kFnvOffsetBasis;
  computed = fnv1a(coding.begin_section.data(), coding.begin_section.size(),
                   computed);
  computed =
      fnv1a(coding.end_section.data(), coding.end_section.size(), computed);
  computed = fnv1a(coding.state_section.data(), coding.state_section.size(),
                   computed);
  if (computed != checksum) {
    throw TraceFormatError(
        "chunk checksum mismatch" + offset_str + " (stored " +
        std::to_string(checksum) + ", computed " + std::to_string(computed) +
        ")");
  }
  // Full streaming decode: every interval of the record is re-derived and
  // checked against the header's fences before the record is trusted.
  // The decoder's own malformed-stream errors carry no file context, so
  // its calls are wrapped to append the record offset.
  std::optional<ColumnsDecoder> decoder;
  try {
    decoder.emplace(coding);
  } catch (const Error& e) {
    throw TraceFormatError(std::string(e.what()) + offset_str);
  }
  const auto decode_next = [&](StateInterval& s) {
    try {
      return decoder->next(s);
    } catch (const Error& e) {
      throw TraceFormatError(std::string(e.what()) + offset_str);
    }
  };
  StateInterval first{};
  StateInterval last{};
  TimeNs seen_min_end = 0;
  TimeNs seen_max_end = 0;
  TimeNs lead_max_end = std::numeric_limits<TimeNs>::min();
  StateInterval s{};
  StateInterval prev{};
  std::uint64_t decoded = 0;
  while (decode_next(s)) {
    if (s.end < s.begin) {
      throw TraceFormatError("chunk interval with end < begin" + offset_str);
    }
    if (s.state < 0 || static_cast<std::uint64_t>(s.state) >= state_count) {
      throw TraceFormatError("chunk interval references unknown state " +
                             std::to_string(s.state) + offset_str);
    }
    if (decoded == 0) {
      first = s;
      seen_min_end = s.end;
      seen_max_end = s.end;
    } else {
      if (interval_key_less(s, prev)) {
        throw TraceFormatError(
            "chunk columns not sorted by (begin, end, state)" + offset_str);
      }
      seen_min_end = std::min(seen_min_end, s.end);
      seen_max_end = std::max(seen_max_end, s.end);
      lead_max_end = std::max(lead_max_end, prev.end);
    }
    prev = s;
    ++decoded;
  }
  last = prev;
  if (first.begin != min_begin || seen_min_end != min_end ||
      seen_max_end != max_end) {
    throw TraceFormatError("chunk fences disagree with columns" + offset_str);
  }

  TraceChunkPtr chunk;
  if (coding.begin_codec == TimeCodec::kRaw &&
      coding.end_codec == TimeCodec::kRaw &&
      coding.state_codec == StateCodec::kRaw) {
    // All-raw: the sections are the columns — serve them in place.
    const auto n = static_cast<std::size_t>(count);
    const std::span<const TimeNs> begin_col(
        reinterpret_cast<const TimeNs*>(base + sec0), n);
    const std::span<const TimeNs> end_col(
        reinterpret_cast<const TimeNs*>(base + sec1), n);
    const std::span<const StateId> state_col(
        reinterpret_cast<const StateId*>(base + sec2), n);
    auto payload = std::make_shared<const MappedChunkPayload>(
        region, begin_col, end_col, state_col);
    chunk = std::make_shared<const TraceChunk>(std::move(payload), min_end,
                                               max_end);
  } else {
    auto payload =
        std::make_shared<const CompressedChunkPayload>(region, coding);
    chunk = std::make_shared<const TraceChunk>(
        std::move(payload), first, last, min_end, max_end, lead_max_end);
  }
  return {static_cast<ResourceId>(ur), std::move(chunk),
          static_cast<std::size_t>(record_bytes)};
}

/// Bounds-checked little reader over a mapped chunk file.
struct MapCursor {
  const std::uint8_t* base;
  std::size_t size;
  std::size_t pos = 0;
  const std::string& path;

  void need(std::size_t n, const char* what) const {
    if (pos + n > size) {
      throw TraceFormatError("truncated " + std::string(what) + " in '" +
                             path + "' at offset " + std::to_string(pos));
    }
  }
  template <typename T>
  T pod(const char* what) {
    T v{};
    need(sizeof v, what);
    std::memcpy(&v, base + pos, sizeof v);
    pos += sizeof v;
    return v;
  }
  std::string string(const char* what) {
    const auto len = pod<std::uint32_t>(what);
    if (len > (1u << 20)) {
      throw TraceFormatError("string too long in '" + path + "' at offset " +
                             std::to_string(pos));
    }
    need(len, what);
    std::string s(reinterpret_cast<const char*>(base + pos), len);
    pos += len;
    return s;
  }
  void align8() { pos = (pos + 7) & ~std::size_t{7}; }
};

// --- Columnar STGT load ------------------------------------------------------

/// One resource's columns under construction, sized exactly up front.
struct ResourceColumns {
  std::vector<TimeNs> begins;
  std::vector<TimeNs> ends;
  std::vector<StateId> states;
};

/// Sorts the columns by the total key unless they already are in order —
/// write_binary_trace emits every resource sorted, so the check is
/// normally the only pass.
void sort_columns(ResourceColumns& cols) {
  const std::size_t n = cols.begins.size();
  const auto row = [&cols](std::size_t i) {
    return StateInterval{cols.begins[i], cols.ends[i], cols.states[i]};
  };
  std::size_t i = 1;
  while (i < n && !interval_key_less(row(i), row(i - 1))) ++i;
  if (i >= n) return;
  std::vector<StateInterval> rows(n);
  for (std::size_t k = 0; k < n; ++k) rows[k] = row(k);
  std::sort(rows.begin(), rows.end(), interval_key_less);
  for (std::size_t k = 0; k < n; ++k) {
    cols.begins[k] = rows[k].begin;
    cols.ends[k] = rows[k].end;
    cols.states[k] = rows[k].state;
  }
}

/// Freezes sorted columns into chunks of at most `chunk_records`
/// intervals: the columns themselves when they fit one chunk, consecutive
/// slices of them otherwise.
void freeze_chunks(ResourceColumns& cols, std::size_t chunk_records,
                   std::vector<TraceChunkPtr>& out) {
  const std::size_t n = cols.begins.size();
  if (n <= chunk_records) {
    if (n != 0) {
      out.push_back(std::make_shared<const TraceChunk>(
          std::move(cols.begins), std::move(cols.ends),
          std::move(cols.states)));
    }
    return;
  }
  const auto slice = [](const auto& column, std::size_t lo, std::size_t len) {
    const auto first = column.begin() + static_cast<std::ptrdiff_t>(lo);
    return std::vector(first, first + static_cast<std::ptrdiff_t>(len));
  };
  for (std::size_t lo = 0; lo < n; lo += chunk_records) {
    const std::size_t len = std::min(chunk_records, n - lo);
    out.push_back(std::make_shared<const TraceChunk>(
        slice(cols.begins, lo, len), slice(cols.ends, lo, len),
        slice(cols.states, lo, len)));
  }
}

/// Fewest records worth a range task of their own.
constexpr std::size_t kMinRangeRecords = std::size_t{1} << 12;
/// Records per read of one range task (384 KiB buffers).
constexpr std::size_t kReadBlockRecords = std::size_t{1} << 14;

/// Reads records [first, last) of the record section at `records_base`
/// through a private handle and a bounded buffer, and hands each one,
/// checked by decode_stgt_record, to `body`.  Each range task reads its
/// own bytes this way instead of mapping the file, so the load never holds
/// more of the file in its address space than one buffer per task.
template <class Body>
void for_each_record(const std::string& path, std::uint64_t records_base,
                     std::size_t first, std::size_t last,
                     std::uint64_t resource_count, std::uint64_t state_count,
                     const Body& body) {
  if (first == last) return;
  FilePtr f = open_file(path, "rb");
  if (std::fseek(f.get(),
                 static_cast<long>(records_base + first * kRecordBytes),
                 SEEK_SET) != 0) {
    throw IoError("seek failed on '" + path + "'");
  }
  std::vector<std::uint8_t> buf(std::min(last - first, kReadBlockRecords) *
                                kRecordBytes);
  for (std::size_t i = first; i < last;) {
    const std::size_t len = std::min(last - i, kReadBlockRecords);
    read_bytes(f.get(), buf.data(), len * kRecordBytes, path);
    for (std::size_t k = 0; k < len; ++k, ++i) {
      body(decode_stgt_record(buf.data() + k * kRecordBytes, resource_count,
                              state_count, path,
                              records_base + i * kRecordBytes));
    }
  }
}

/// Builds every resource's sealed chunks straight from the `n` records of
/// the section at file offset `records_base`, adopting them into `store`
/// (whose tables mirror the file's).  Two parallel passes over P
/// record-aligned ranges: count records per (range, resource) while
/// validating each one, then — after prefix sums fix every range's first
/// slot per resource — scatter begin, end and state into exactly-sized
/// per-resource columns in file order.  A final per-resource pass sorts
/// only out-of-order resources and freezes each into chunks.  Heap peak:
/// the final columns plus the O(P·R) count tables and P read buffers
/// (and, transiently, the chunk slices of resources larger than a chunk).
void load_stgt_columns(TraceStore& store, const std::string& path,
                       std::uint64_t records_base, std::size_t n,
                       std::size_t chunk_records) {
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t resources = store.resource_count();
  const std::uint64_t state_count = store.states().size();
  const std::size_t ranges =
      std::clamp<std::size_t>(n / kMinRangeRecords, 1, pool.size());
  const auto range_begin = [n, ranges](std::size_t p) {
    return p * (n / ranges) + std::min(p, n % ranges);
  };
  const auto per_range = [&pool, ranges](const auto& body) {
    parallel_for_blocked(pool, ranges, 1,
                         [&body](std::size_t lo, std::size_t hi) {
                           for (std::size_t p = lo; p < hi; ++p) body(p);
                         });
  };
  const auto range_records = [&](std::size_t p, const auto& body) {
    for_each_record(path, records_base, range_begin(p), range_begin(p + 1),
                    resources, state_count, body);
  };
  const std::size_t resource_grain =
      std::max<std::size_t>(1, resources / (4 * pool.size()));

  // Pass 1: validate and count.  A range stops at its first bad record;
  // the lowest failing range reports, so the error always names the first
  // bad record of the file, exactly as the streaming decoder would.
  std::vector<std::vector<std::uint64_t>> counts(ranges);
  std::vector<std::exception_ptr> errors(ranges);
  per_range([&](std::size_t p) {
    try {
      std::vector<std::uint64_t> count(resources, 0);
      range_records(p, [&count](const StgtRecord& rec) {
        ++count[static_cast<std::size_t>(rec.resource)];
      });
      counts[p] = std::move(count);
    } catch (...) {
      errors[p] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Prefix sums: each (range, resource) count becomes that range's first
  // per-resource slot; the running total is the resource's size.
  std::vector<std::uint64_t> totals(resources, 0);
  for (std::size_t r = 0; r < resources; ++r) {
    for (std::vector<std::uint64_t>& count : counts) {
      const std::uint64_t c = count[r];
      count[r] = totals[r];
      totals[r] += c;
    }
  }
  std::vector<ResourceColumns> columns(resources);
  parallel_for(
      resources,
      [&](std::size_t r) {
        const auto total = static_cast<std::size_t>(totals[r]);
        columns[r].begins.resize(total);
        columns[r].ends.resize(total);
        columns[r].states.resize(total);
      },
      resource_grain);

  // Pass 2: scatter in file order; counts[p] is range p's slot cursor per
  // resource, so ranges write disjoint slots.  Records are re-checked
  // rather than trusted: the file may have changed since pass 1, and the
  // scatter must stay in bounds whatever it reads.
  per_range([&](std::size_t p) {
    std::vector<std::uint64_t>& slot = counts[p];
    range_records(p, [&](const StgtRecord& rec) {
      const auto r = static_cast<std::size_t>(rec.resource);
      const auto at = static_cast<std::size_t>(slot[r]++);
      ResourceColumns& cols = columns[r];
      if (at >= cols.begins.size()) {
        throw IoError("'" + path + "' changed while being loaded");
      }
      cols.begins[at] = rec.interval.begin;
      cols.ends[at] = rec.interval.end;
      cols.states[at] = rec.interval.state;
    });
  });

  // Per resource: sort only what is out of order, then freeze.
  std::vector<std::vector<TraceChunkPtr>> chunks(resources);
  parallel_for(
      resources,
      [&](std::size_t r) {
        sort_columns(columns[r]);
        freeze_chunks(columns[r], chunk_records, chunks[r]);
        columns[r] = {};
      },
      resource_grain);
  for (std::size_t r = 0; r < resources; ++r) {
    for (TraceChunkPtr& chunk : chunks[r]) {
      store.adopt_chunk(static_cast<ResourceId>(r), std::move(chunk));
    }
  }
}

}  // namespace

std::uint64_t write_binary_trace(Trace& trace, const std::string& path) {
  trace.seal();
  FilePtr f = open_file(path, "wb");

  write_bytes(f.get(), kMagic, sizeof kMagic, path);
  write_pod<std::uint64_t>(f.get(), trace.resource_count(), path);
  write_pod<std::uint64_t>(f.get(), trace.states().size(), path);
  write_pod<TimeNs>(f.get(), trace.begin(), path);
  write_pod<TimeNs>(f.get(), trace.end(), path);
  write_pod<std::uint64_t>(f.get(), trace.state_count(), path);
  for (const auto& p : trace.resource_paths()) write_string(f.get(), p, path);
  for (const auto& s : trace.states().names()) write_string(f.get(), s, path);

  // Buffered record emission, resource-major (file order is deterministic).
  constexpr std::size_t kBufRecords = 1 << 15;
  std::vector<std::uint8_t> buf(kBufRecords * kRecordBytes);
  std::size_t in_buf = 0;
  for (ResourceId r = 0; r < static_cast<ResourceId>(trace.resource_count());
       ++r) {
    for (const auto& s : trace.intervals(r)) {
      encode_record(buf.data() + in_buf * kRecordBytes, r, s);
      if (++in_buf == kBufRecords) {
        write_bytes(f.get(), buf.data(), in_buf * kRecordBytes, path);
        in_buf = 0;
      }
    }
  }
  if (in_buf != 0) {
    write_bytes(f.get(), buf.data(), in_buf * kRecordBytes, path);
  }
  const long pos = std::ftell(f.get());
  if (pos < 0) throw IoError("ftell failed on '" + path + "'");
  return static_cast<std::uint64_t>(pos);
}

TraceFileInfo read_binary_trace_info(const std::string& path) {
  FilePtr f = open_file(path, "rb");
  return read_header(f.get(), path);
}

TraceFileInfo stream_binary_trace(
    const std::string& path,
    const std::function<void(std::span<const TraceRecord>)>& sink,
    std::size_t chunk_records) {
  require_chunk_records(chunk_records);
  FilePtr f = open_file(path, "rb");
  TraceFileInfo info = read_header(f.get(), path);
  const std::uint64_t records_base =
      checked_records_base(f.get(), info, path);

  // The buffers never outgrow the declared (and now file-bounded) record
  // count: a huge chunk_records must not allocate more than the file holds.
  const auto buffered = static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_records, info.record_count));
  std::vector<std::uint8_t> buf(buffered * kRecordBytes);
  std::vector<TraceRecord> records;
  records.reserve(buffered);

  // The record section streams through the resumable byte-range decoder
  // (validation — id ranges, end >= begin, absolute error offsets — lives
  // there, shared with the pipeline's parallel shard decode).
  StgtRecordDecoder decoder(info.resource_paths.size(), info.states.size(),
                            path, records_base);
  const StgtRecordSink record_sink = [&records](const StgtRecord& rec) {
    records.push_back(rec);
  };
  std::uint64_t remaining = info.record_count;
  while (remaining > 0) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, chunk_records));
    read_bytes(f.get(), buf.data(), take * kRecordBytes, path);
    records.clear();
    decoder.feed({buf.data(), take * kRecordBytes}, record_sink);
    sink({records.data(), records.size()});
    remaining -= take;
  }
  decoder.finish();
  return info;
}

std::uint64_t write_chunk_file(TraceStore& store, const std::string& path) {
  store.seal_chunk();
  // Write to a sibling temp file and rename over the target: the store's
  // own chunks may be mmapped views of `path` (a reopened chunk file, or
  // a spill file the caller reuses), and fopen("wb") would truncate the
  // pages they read mid-write — SIGBUS plus data loss.  The rename also
  // makes the write atomic for concurrent openers.
  const std::string tmp = path + ".tmp";
  FilePtr f = open_file(tmp, "wb");
  std::uint64_t chunk_count = 0;
  for (ResourceId r = 0; r < static_cast<ResourceId>(store.resource_count());
       ++r) {
    chunk_count += store.chunks(r).size();
  }
  write_bytes(f.get(), kChunkMagic, sizeof kChunkMagic, tmp);
  write_pod<std::uint64_t>(f.get(), store.resource_count(), tmp);
  write_pod<std::uint64_t>(f.get(), store.states().size(), tmp);
  write_pod<TimeNs>(f.get(), store.begin(), tmp);
  write_pod<TimeNs>(f.get(), store.end(), tmp);
  write_pod<std::uint64_t>(f.get(), chunk_count, tmp);
  for (const auto& p : store.resource_paths()) write_string(f.get(), p, tmp);
  for (const auto& s : store.states().names()) write_string(f.get(), s, tmp);
  const long table_end = std::ftell(f.get());
  if (table_end < 0) throw IoError("ftell failed on '" + tmp + "'");
  const std::uint8_t zeros[8] = {};
  const auto pad = static_cast<std::size_t>((8 - table_end % 8) % 8);
  if (pad != 0) write_bytes(f.get(), zeros, pad, tmp);
  for (ResourceId r = 0; r < static_cast<ResourceId>(store.resource_count());
       ++r) {
    for (const TraceChunkPtr& chunk : store.chunks(r)) {
      write_chunk_record(f.get(), tmp, r, *chunk);
    }
  }
  if (std::fflush(f.get()) != 0) {
    throw IoError("flush failed on '" + tmp + "'");
  }
  const long pos = std::ftell(f.get());
  if (pos < 0) throw IoError("ftell failed on '" + tmp + "'");
  f.reset();  // close before the rename
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return static_cast<std::uint64_t>(pos);
}

std::shared_ptr<TraceStore> open_chunk_file_store(const std::string& path) {
  const auto region = MappedRegion::map_file(path);
  MapCursor cur{region->data(), region->size(), 0, path};
  cur.need(sizeof kChunkMagic, "chunk file magic");
  if (std::memcmp(cur.base, kChunkMagic, sizeof kChunkMagic) != 0) {
    throw TraceFormatError("bad chunk file magic in '" + path + "'");
  }
  cur.pos += sizeof kChunkMagic;
  const auto resource_count = cur.pod<std::uint64_t>("header");
  const auto state_count = cur.pod<std::uint64_t>("header");
  const auto window_begin = cur.pod<TimeNs>("header");
  const auto window_end = cur.pod<TimeNs>("header");
  const auto chunk_count = cur.pod<std::uint64_t>("header");
  if (resource_count > (1ull << 32) || state_count > (1ull << 20)) {
    throw TraceFormatError("implausible table sizes in '" + path + "'");
  }
  if (window_end < window_begin) {
    throw TraceFormatError("chunk file window end < begin in '" + path + "'");
  }
  auto store = std::make_shared<TraceStore>();
  // add_resource/intern deduplicate by name; a duplicate table entry in a
  // corrupt file would silently shift every later id, so reject it.
  for (std::uint64_t i = 0; i < resource_count; ++i) {
    const std::size_t at = cur.pos;
    if (static_cast<std::uint64_t>(
            store->add_resource(cur.string("resource table"))) != i) {
      throw TraceFormatError("duplicate resource path in '" + path +
                             "' at offset " + std::to_string(at));
    }
  }
  for (std::uint64_t i = 0; i < state_count; ++i) {
    const std::size_t at = cur.pos;
    if (static_cast<std::uint64_t>(
            store->states().intern(cur.string("state table"))) != i) {
      throw TraceFormatError("duplicate state name in '" + path +
                             "' at offset " + std::to_string(at));
    }
  }
  cur.align8();
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    MappedChunkRecord rec =
        map_chunk_record(region, cur.pos, 0, path, state_count);
    if (rec.resource < 0 ||
        static_cast<std::uint64_t>(rec.resource) >= resource_count) {
      throw TraceFormatError("chunk record references unknown resource in '" +
                             path + "' at offset " + std::to_string(cur.pos));
    }
    store->adopt_chunk(rec.resource, std::move(rec.chunk));
    cur.pos += rec.record_bytes;
  }
  store->set_window(window_begin, window_end);
  store->seal_chunk();
  return store;
}

bool is_chunk_file(const std::string& path) {
  FilePtr f = open_file(path, "rb");
  char magic[8];
  if (std::fread(magic, 1, sizeof magic, f.get()) != sizeof magic) {
    return false;
  }
  return std::memcmp(magic, kChunkMagic, sizeof kChunkMagic) == 0;
}

std::vector<SpilledChunkRecord> spill_chunks_to_file(
    const std::string& path, std::span<const SpillItem> items,
    std::uint64_t state_count) {
  std::vector<SpilledChunkRecord> out;
  if (items.empty()) return out;
  std::uint64_t offset = 0;
  {
    // "a+" so a pre-existing file's magic can be read back: appending to
    // a file that is not a spill file would corrupt it, and appending at
    // a non-8-aligned offset would break the in-place column alignment
    // every mapped read relies on.
    FilePtr f = open_file(path, "a+b");
    if (std::fseek(f.get(), 0, SEEK_END) != 0) {
      throw IoError("seek failed on spill file '" + path + "'");
    }
    long end = std::ftell(f.get());
    if (end < 0) throw IoError("ftell failed on spill file '" + path + "'");
    if (end == 0) {
      write_bytes(f.get(), kSpillMagic, sizeof kSpillMagic, path);
      end = sizeof kSpillMagic;
    } else {
      char magic[8];
      if (std::fseek(f.get(), 0, SEEK_SET) != 0 ||
          std::fread(magic, 1, sizeof magic, f.get()) != sizeof magic ||
          std::memcmp(magic, kSpillMagic, sizeof kSpillMagic) != 0 ||
          end % 8 != 0) {
        throw IoError("'" + path +
                      "' exists but is not a spill file (refusing to append)");
      }
      if (std::fseek(f.get(), 0, SEEK_END) != 0) {
        throw IoError("seek failed on spill file '" + path + "'");
      }
    }
    offset = static_cast<std::uint64_t>(end);
    for (const SpillItem& item : items) {
      write_chunk_record(f.get(), path, item.resource, *item.chunk);
    }
    if (std::fflush(f.get()) != 0) {
      throw IoError("flush failed on spill file '" + path + "'");
    }
  }
  // Map the freshly appended records back and re-validate them through
  // the same path an open uses: a torn or short write surfaces here,
  // loudly, not as a corrupt stream later.
  std::vector<std::uint64_t> record_bytes;
  record_bytes.reserve(items.size());
  std::uint64_t total = 0;
  for (const SpillItem& item : items) {
    const ChunkSections sec = chunk_sections(*item.chunk);
    record_bytes.push_back(chunk_record_bytes(
        sec.begin.size(), sec.end.size(), sec.state.size()));
    total += record_bytes.back();
  }
  const auto region =
      MappedRegion::map(path, offset, static_cast<std::size_t>(total));
  out.reserve(items.size());
  std::size_t pos = 0;
  for (const std::uint64_t bytes : record_bytes) {
    out.push_back(
        {map_chunk_record(region, pos, offset, path, state_count).chunk,
         bytes});
    pos += static_cast<std::size_t>(bytes);
  }
  return out;
}

std::shared_ptr<TraceStore> read_binary_trace_store(const std::string& path,
                                                    std::size_t chunk_records) {
  require_chunk_records(chunk_records);
  // Chunk files open zero-copy: mapped columns are served in place.
  if (is_chunk_file(path)) return open_chunk_file_store(path);
  FilePtr f = open_file(path, "rb");
  const TraceFileInfo info = read_header(f.get(), path);
  const std::uint64_t records_base = checked_records_base(f.get(), info, path);
  f.reset();

  // File resource ids index the store's lanes directly, so the paths must
  // register one-to-one: add_resource deduplicates, and a duplicate path in
  // a corrupt file would silently shift every later id.
  auto store = std::make_shared<TraceStore>();
  for (std::size_t i = 0; i < info.resource_paths.size(); ++i) {
    if (static_cast<std::size_t>(
            store->add_resource(info.resource_paths[i])) != i) {
      throw TraceFormatError("duplicate resource path '" +
                             info.resource_paths[i] + "' in '" + path + "'");
    }
  }
  for (const std::string& name : info.states.names()) {
    (void)store->states().intern(name);
  }
  load_stgt_columns(*store, path, records_base,
                    static_cast<std::size_t>(info.record_count),
                    chunk_records);
  store->set_window(info.window_begin, info.window_end);
  store->seal_chunk();
  return store;
}

Trace read_binary_trace(const std::string& path) {
  return Trace(read_binary_trace_store(path));
}

}  // namespace stagg
