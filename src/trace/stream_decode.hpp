// Incremental, resumable trace-record decoders — the parse stage of the
// staged ingest pipeline.
//
// The classic readers (csv_io, paje_io, binary_io) consume a whole file in
// one call on one thread.  Live ingest instead hands *byte ranges* to
// parallel parse workers: each worker owns a resumable decoder, feeds it
// whatever slice of the stream it was handed next, and receives records as
// soon as they complete — a record split across two feeds carries over
// transparently.  The whole-file readers are thin shims over these
// decoders (one loop feeding fixed-size buffers) or, for the columnar STGT
// store load, call the same per-record check (decode_stgt_record), so
// every path decodes — and rejects malformed input — identically.
//
// Decoded events travel between pipeline stages as EventBatch messages:
// id-resolved records (the parse workers resolve names against the frozen
// tables of a schema-complete store) plus per-batch time fences and a
// per-shard sequence number for observability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hpp"

namespace stagg {

// --- Text formats (CSV, pj_dump) -------------------------------------------

/// One decoded text record; the name views point into the decoder's input
/// (or its carry buffer) and are valid only during the sink call.
struct DecodedTextRecord {
  std::string_view resource;
  std::string_view state;
  TimeNs begin = 0;
  TimeNs end = 0;
};

using DecodedTextSink = std::function<void(const DecodedTextRecord&)>;

/// Line-oriented format a TextTraceDecoder speaks.
enum class TextTraceFormat : std::uint8_t {
  kCsv,   ///< stagg-trace-csv: STATE,<resource>,<state>,<begin_ns>,<end_ns>
  kPaje,  ///< pj_dump: State, <container>, <type>, <begin_s>, <end_s>, ...
};

/// Counters of one text decode (what was consumed vs skipped).
struct TextDecodeStats {
  std::uint64_t records = 0;        ///< State records decoded.
  std::uint64_t skipped_records = 0;  ///< Non-State pj_dump records.
  std::uint64_t comment_lines = 0;
};

/// Resumable decoder over byte ranges of a CSV or pj_dump trace stream.
///
/// Feed slices in stream order; every completed line is decoded
/// immediately and State records are emitted through the sink.  A partial
/// trailing line is carried into the next feed(); finish() flushes a final
/// unterminated line.  Malformed records throw TraceFormatError naming
/// `context:line`, with line numbers counted across feeds — byte-range
/// decode rejects exactly what the whole-file readers reject.
class TextTraceDecoder {
 public:
  explicit TextTraceDecoder(TextTraceFormat format,
                            std::string context = "<stream>");

  /// Decodes every line completed by `bytes`; partial tails carry over.
  void feed(std::string_view bytes, const DecodedTextSink& sink);
  /// Flushes a trailing unterminated line.  Idempotent.
  void finish(const DecodedTextSink& sink);

  [[nodiscard]] const TextDecodeStats& stats() const noexcept {
    return stats_;
  }
  /// Observation window from a CSV `# window,<begin>,<end>` comment.
  [[nodiscard]] bool has_window() const noexcept { return has_window_; }
  [[nodiscard]] TimeNs window_begin() const noexcept { return window_begin_; }
  [[nodiscard]] TimeNs window_end() const noexcept { return window_end_; }

 private:
  void decode_line(std::string_view line, const DecodedTextSink& sink);

  TextTraceFormat format_;
  std::string context_;
  std::string carry_;  ///< Partial line straddling feed boundaries.
  std::size_t line_no_ = 0;
  TextDecodeStats stats_;
  bool has_window_ = false;
  TimeNs window_begin_ = 0;
  TimeNs window_end_ = 0;
};

/// Splits `text` into at most `shards` contiguous byte ranges aligned to
/// line boundaries, so each shard decodes independently on its own
/// TextTraceDecoder (records never straddle shards in the line-per-record
/// formats).  Shards are near-equal in bytes; fewer ranges come back when
/// the text has fewer lines than `shards`.
[[nodiscard]] std::vector<std::string_view> split_text_shards(
    std::string_view text, std::size_t shards);

// --- STGT binary records ----------------------------------------------------

/// One on-disk STGT record paired with its resource (also the streaming
/// unit of binary_io's whole-file reader).
struct StgtRecord {
  ResourceId resource;
  StateInterval interval;
};

using StgtRecordSink = std::function<void(const StgtRecord&)>;

/// Throws the TraceFormatError of a rejected STGT record: `what` plus the
/// file context and the record's absolute offset.  Out of line, so the
/// happy path of decode_stgt_record never builds a string.
[[noreturn]] void throw_stgt_record_error(const char* what,
                                          const std::string& context,
                                          std::uint64_t offset);

/// Decodes and validates one 24-byte STGT record found at absolute file
/// offset `offset`: resource and state ids must lie below the table sizes
/// and end >= begin.  The one record check behind both StgtRecordDecoder
/// and binary_io's columnar whole-file load, so both reject the same
/// records with byte-identical messages.
inline StgtRecord decode_stgt_record(const std::uint8_t* record,
                                     std::uint64_t resource_count,
                                     std::uint64_t state_count,
                                     const std::string& context,
                                     std::uint64_t offset) {
  std::uint32_t ur = 0;
  std::uint32_t ux = 0;
  TimeNs begin = 0;
  TimeNs end = 0;
  std::memcpy(&ur, record, 4);
  std::memcpy(&ux, record + 4, 4);
  std::memcpy(&begin, record + 8, 8);
  std::memcpy(&end, record + 16, 8);
  if (ur >= resource_count) {
    throw_stgt_record_error("record references unknown resource", context,
                            offset);
  }
  if (ux >= state_count) {
    throw_stgt_record_error("record references unknown state", context,
                            offset);
  }
  if (end < begin) {
    throw_stgt_record_error("record with end < begin", context, offset);
  }
  return {static_cast<ResourceId>(ur),
          StateInterval{begin, end, static_cast<StateId>(ux)}};
}

/// Resumable decoder over byte ranges of an STGT *record section* (the
/// fixed 24-byte records after the header and tables).  Feed slices in
/// order; a record straddling two feeds carries over.  Records referencing
/// out-of-range resource/state ids or with end < begin throw
/// TraceFormatError naming the absolute file offset (base_offset plus the
/// record's position), exactly like the whole-file reader.
class StgtRecordDecoder {
 public:
  /// Record payload size: u32 resource | u32 state | i64 begin | i64 end.
  static constexpr std::size_t kRecordBytes = 24;

  StgtRecordDecoder(std::uint64_t resource_count, std::uint64_t state_count,
                    std::string context = "<stream>",
                    std::uint64_t base_offset = 0);

  void feed(std::span<const std::uint8_t> bytes, const StgtRecordSink& sink);
  /// Throws TraceFormatError when a partial record is pending.
  void finish() const;

  [[nodiscard]] std::uint64_t records_decoded() const noexcept {
    return decoded_;
  }

 private:
  void emit(const std::uint8_t* record, const StgtRecordSink& sink);

  std::uint64_t resource_count_;
  std::uint64_t state_count_;
  std::string context_;
  std::uint64_t base_offset_;
  std::uint64_t decoded_ = 0;
  std::uint8_t carry_[kRecordBytes];
  std::size_t carry_len_ = 0;
};

// --- Pipeline messages ------------------------------------------------------

/// One id-resolved event, ready for TraceStore::add_state.
struct EventRecord {
  ResourceId resource = 0;
  StateId state = 0;
  TimeNs begin = 0;
  TimeNs end = 0;
};

/// A batch of decoded events flowing from a parse worker to the seal
/// worker.  Records keep shard decode order; ordering across shards is
/// irrelevant — the seal stage sorts at chunk-seal time, and the store's
/// merge is layout-independent.
struct EventBatch {
  std::size_t shard = 0;       ///< Producing parse shard.
  std::uint64_t sequence = 0;  ///< Per-shard batch sequence (0-based).
  std::vector<EventRecord> records;
  /// Time fences over `records` (meaningless when empty).
  TimeNs min_begin = 0;
  TimeNs max_end = 0;
};

}  // namespace stagg
