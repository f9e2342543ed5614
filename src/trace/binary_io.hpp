// Binary trace formats: the row-record format ("STGT") and the columnar
// chunk-file format ("STGC"), plus the spill-file primitives behind
// TraceStore::spill_cold.
//
// STGT — compact row records, the library's OTF2 stand-in (little-endian):
//   header:   magic "STGTRC01" | u64 resource_count | u64 state_count
//             | i64 window_begin | i64 window_end | u64 record_count
//   tables:   resource paths then state names, each u32-length-prefixed UTF-8
//   records:  record_count x { u32 resource | u32 state | i64 begin | i64 end }
//
// Records are 24 bytes; Table II's "trace size" column is reproduced from
// this format.  The reader offers both a loading API (a columnar parallel
// load into a sealed store) and a streaming API (fixed-size chunks through
// a callback) so the microscopic model can be built from traces larger
// than memory.
//
// STGC — columnar chunk files, the dariadb-style sealed-page format an
// mmapped TraceStore reads in place (little-endian).  Each column section
// carries its own codec tag (trace/compression.hpp):
//   header:   magic "STGCHK02" | u64 resource_count | u64 state_count
//             | i64 window_begin | i64 window_end | u64 chunk_count
//   tables:   as STGT, then zero padding to the next 8-byte boundary
//   chunks:   chunk_count x chunk record
// One chunk record (72-byte header; every section start 8-byte aligned
// so raw sections are usable in place):
//   header:   u32 resource | u8 begin_codec | u8 end_codec | u8 state_codec
//             | u8 flags (0) | u64 count | i64 min_begin | i64 min_end
//             | i64 max_end | u64 begin_bytes | u64 end_bytes
//             | u64 state_bytes | u64 checksum
//   sections: begin section | pad to 8 | end section | pad to 8
//             | state section | pad to 8
// The checksum is FNV-1a 64 over the three *unpadded* encoded sections in
// order.  An all-raw record opens zero-copy as mapped columns; any other
// codec combination opens as a compressed (cursor-streamed) chunk pointing
// into the mapping.  Readers fully streaming-decode every record at open —
// section bounds, checksum, codec tags, varint/dictionary well-formedness,
// the (begin, end, state) sort order and all three fences — and reject
// truncation and corruption loudly with the offending file offset.  Files
// with the retired version-1 magic "STGCHK01" are not chunk files and are
// rejected with a TraceFormatError naming the path.
//
// The same record layout, behind magic "STGSPL02", makes up a store's
// append-only spill file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/state_registry.hpp"
#include "trace/stream_decode.hpp"
#include "trace/trace.hpp"
#include "trace/trace_store.hpp"

namespace stagg {

/// One on-disk record paired with its resource (streaming API).  The
/// record section is decoded by the resumable StgtRecordDecoder
/// (stream_decode.hpp) — the whole-file reader here and the pipeline's
/// byte-range shard decode share one record grammar and validation.
using TraceRecord = StgtRecord;

/// Static description decoded from a trace file header + tables.
struct TraceFileInfo {
  std::vector<std::string> resource_paths;
  StateRegistry states;
  TimeNs window_begin = 0;
  TimeNs window_end = 0;
  std::uint64_t record_count = 0;
};

/// Writes `trace` to `path`.  Returns the number of bytes written.
/// The trace is sealed first if needed.
std::uint64_t write_binary_trace(Trace& trace, const std::string& path);

/// Reads a full trace file into memory: a Trace facade over
/// read_binary_trace_store(path).  Throws TraceFormatError/IoError.
[[nodiscard]] Trace read_binary_trace(const std::string& path);

/// Loads an STGT file into an immutable, sealed chunked store that is
/// shared-ready (back it with TraceViews / a SessionManager).  The load is
/// columnar and parallel on ThreadPool::shared(): the declared record
/// count is checked against the file size before anything is allocated,
/// then P record-aligned ranges are read through bounded per-task buffers
/// twice — to validate and count records per resource, then to scatter
/// them into exactly-sized per-resource columns in file order.  A
/// resource is sorted by the total key only when it is not already
/// (write_binary_trace emits sorted resources), then cut into chunks of at
/// most `chunk_records` intervals; the one final seal rewrites lanes with
/// more than TraceStore::lane_chunk_bound() chunks into chunks of the
/// lane's chunk cap.  Heap peak: the
/// final columns plus O(P·R) count tables (R resources) and P read
/// buffers.  A bad record fails with the streaming decoder's exact
/// message, naming the first bad record of the file.  The interval
/// multiset — and therefore every model fold — is that of the file,
/// whatever the chunk layout.
///
/// Chunk files (STGC) take a zero-copy path instead: the file is mmapped
/// once and the store's chunks read the validated records in place
/// (resident_chunk_bytes() == 0 — no rehydration), exactly as
/// open_chunk_file_store does.  `chunk_records` only applies to STGT;
/// zero is rejected with InvalidArgument.
[[nodiscard]] std::shared_ptr<TraceStore> read_binary_trace_store(
    const std::string& path, std::size_t chunk_records = 1 << 16);

// --- Chunk files (STGC) and spill records --------------------------------

/// Writes the store's sealed chunks to a columnar chunk file at `path`
/// (per-resource chunk lists in order; tails are sealed first).  Returns
/// the number of bytes written.  The result reopens zero-copy via
/// open_chunk_file_store / read_binary_trace_store.
std::uint64_t write_chunk_file(TraceStore& store, const std::string& path);

/// Opens a chunk file zero-copy: maps the whole file, validates every
/// record (bounds, checksum, sort order, fences — throws TraceFormatError
/// naming the file offset on truncation or corruption) and builds a store
/// whose chunks read the mapped columns in place.  The store starts fully
/// spilled: resident_chunk_bytes() == 0; pin_all() rehydrates on demand.
[[nodiscard]] std::shared_ptr<TraceStore> open_chunk_file_store(
    const std::string& path);

/// True when the file at `path` starts with the chunk-file magic.
/// Throws IoError when the file cannot be opened.
[[nodiscard]] bool is_chunk_file(const std::string& path);

/// Result of one spill append: the file-backed chunk plus the exact
/// on-disk record size (the store's spill-occupancy accounting needs it
/// to decide when to compact the file).
struct SpilledChunkRecord {
  TraceChunkPtr chunk;
  std::uint64_t record_bytes = 0;
};

/// One chunk to spill and the resource it belongs to.
struct SpillItem {
  ResourceId resource = kInvalidResource;
  const TraceChunk* chunk = nullptr;
};

/// Appends the chunks (raw or compressed — a record keeps its chunk's
/// encoding) to the append-only spill file at `path` in one append (the
/// file is created with the spill magic on first use; a pre-existing file
/// must carry that magic and an 8-aligned size, or the append is
/// refused), then maps the appended records back as one region and
/// returns one file-backed chunk per item, in order — the backend swap
/// behind TraceStore::spill_cold and its file compaction.  Every mapped
/// record is re-validated (against `state_count` registry entries), so a
/// torn write fails loudly here, not at stream time.
[[nodiscard]] std::vector<SpilledChunkRecord> spill_chunks_to_file(
    const std::string& path, std::span<const SpillItem> items,
    std::uint64_t state_count);

/// Decodes only the header and tables.
[[nodiscard]] TraceFileInfo read_binary_trace_info(const std::string& path);

/// Streams the records of a trace file through `sink` in file order,
/// `chunk_records` at a time (at least 1; zero throws InvalidArgument).
/// The record count is checked against the file size up front, and the
/// buffers hold at most that many records, however large `chunk_records`
/// is.  Returns the decoded file info.  The spans passed to `sink` are
/// only valid during the call.
TraceFileInfo stream_binary_trace(
    const std::string& path,
    const std::function<void(std::span<const TraceRecord>)>& sink,
    std::size_t chunk_records = 1 << 16);

}  // namespace stagg
