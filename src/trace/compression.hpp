// Columnar chunk compression: self-describing per-column codecs behind a
// common block writer/reader interface (dariadb-style compression layer).
//
// A sealed chunk's columns are sorted by (begin, end, state) — ideal input
// for delta-family time codecs and dictionary-family state codecs.  The
// encoder measures every candidate codec per column and keeps the cheapest;
// each column's codec tag travels with the encoded block (in the
// CompressedChunkPayload for in-memory chunks, in the STGC v2 record header
// on disk), so blocks are self-describing and a raw fallback guarantees the
// encoded form is never larger than the raw columns.
//
// Column value streams (what the codec numbers mean):
//   begin column: the raw begin timestamps.  kRaw stores them as 8-byte
//     little-endian words (zero-copy mappable); the delta codecs exploit
//     sortedness; kGapFromPrevEnd stores begin[i] - end[i-1], which is
//     exactly 0 for gapless traces (one varint byte per interval).
//   end column: kRaw stores the raw end timestamps (zero-copy mappable);
//     every other codec operates on the *duration* sequence end[i] -
//     begin[i], exploiting short durations.
//   state column: kRaw stores raw 4-byte ids; the dictionary codecs store
//     a sorted dictionary of the distinct ids plus RLE runs or bit-packed
//     dictionary indexes.
//
// All integer deltas are computed in wrap-around uint64 arithmetic and
// zigzag-mapped before varint coding, so columns spanning the full int64
// range round-trip bit-exactly.  Decoding is streaming: ColumnsDecoder
// yields one StateInterval at a time from the encoded sections through a
// fixed-size cursor state — whole columns are never materialised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "trace/event.hpp"

namespace stagg {

// --- Codec tags (on-disk stable; never renumber) ---------------------------

/// Codecs of the two time columns.  kGapFromPrevEnd is only meaningful for
/// the begin column (decoding it needs the previous interval's end).
enum class TimeCodec : std::uint8_t {
  kRaw = 0,            ///< 8-byte little-endian values.
  kDelta = 1,          ///< zigzag-varint: first value, then deltas.
  kDeltaOfDelta = 2,   ///< zigzag-varint: first value, first delta, then
                       ///< second-order deltas.
  kConst = 3,          ///< one zigzag-varint value; all entries equal.
  kGapFromPrevEnd = 4  ///< zigzag-varint: first begin, then
                       ///< begin[i] - end[i-1] (begin column only).
};

/// Codecs of the state column.
enum class StateCodec : std::uint8_t {
  kRaw = 0,          ///< 4-byte little-endian ids.
  kDictRle = 1,      ///< sorted dictionary + (index, run-length) varint
                     ///< pairs.
  kDictBitpack = 2,  ///< sorted dictionary + ceil(log2(|dict|))-bit packed
                     ///< indexes (0 bits when the dictionary is singular).
};

/// On-disk tag byte of a codec (the enums' underlying type is uint8_t, so
/// these are value-preserving — the codec .cpp files themselves are barred
/// from bare narrowing casts by tools/stagg_lint.py).
[[nodiscard]] constexpr std::uint8_t time_codec_tag(TimeCodec c) noexcept {
  return static_cast<std::uint8_t>(c);
}
[[nodiscard]] constexpr std::uint8_t state_codec_tag(StateCodec c) noexcept {
  return static_cast<std::uint8_t>(c);
}

[[nodiscard]] bool time_codec_valid(std::uint8_t tag) noexcept;
[[nodiscard]] bool state_codec_valid(std::uint8_t tag) noexcept;
[[nodiscard]] const char* time_codec_name(TimeCodec codec) noexcept;
[[nodiscard]] const char* state_codec_name(StateCodec codec) noexcept;

// --- Varint / zigzag primitives (exposed for the property tests) -----------

[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// LEB128-style base-128 varint, 1..10 bytes.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
[[nodiscard]] std::size_t varint_size(std::uint64_t v) noexcept;

// --- Encoded form ----------------------------------------------------------

/// Borrowed description of one chunk's encoded columns: codec tags plus the
/// three encoded sections (unpadded).  This is what a decoder consumes —
/// the sections may live in a heap buffer (compressed-resident payloads)
/// or in a mapped STGC v2 record.
struct ColumnsCoding {
  std::uint64_t count = 0;
  TimeCodec begin_codec = TimeCodec::kRaw;
  TimeCodec end_codec = TimeCodec::kRaw;
  StateCodec state_codec = StateCodec::kRaw;
  std::span<const std::uint8_t> begin_section;
  std::span<const std::uint8_t> end_section;
  std::span<const std::uint8_t> state_section;

  [[nodiscard]] std::size_t encoded_bytes() const noexcept {
    return begin_section.size() + end_section.size() + state_section.size();
  }
};

/// Owning result of encode_columns: the three encoded sections stored
/// back-to-back in one buffer, plus the chunk fences and boundary
/// intervals re-derived during the encoding scan (so callers building a
/// chunk need no second pass).
struct EncodedColumns {
  std::uint64_t count = 0;
  TimeCodec begin_codec = TimeCodec::kRaw;
  TimeCodec end_codec = TimeCodec::kRaw;
  StateCodec state_codec = StateCodec::kRaw;
  /// Section split of `bytes`: begins at [0, begin_bytes), ends at
  /// [begin_bytes, begin_bytes + end_bytes), states last.
  std::uint64_t begin_bytes = 0;
  std::uint64_t end_bytes = 0;
  std::uint64_t state_bytes = 0;
  std::vector<std::uint8_t> bytes;

  /// Fences and boundary intervals of the encoded run.
  StateInterval first{};
  StateInterval last{};
  TimeNs min_end = 0;
  TimeNs max_end = 0;
  /// Highest end among all intervals but the last (TraceChunk's lead
  /// fence; the TimeNs minimum for a one-interval run).
  TimeNs lead_max_end = std::numeric_limits<TimeNs>::min();

  [[nodiscard]] std::size_t encoded_bytes() const noexcept {
    return bytes.size();
  }
  [[nodiscard]] ColumnsCoding coding() const noexcept {
    const std::span<const std::uint8_t> all(bytes);
    return {count,
            begin_codec,
            end_codec,
            state_codec,
            all.subspan(0, static_cast<std::size_t>(begin_bytes)),
            all.subspan(static_cast<std::size_t>(begin_bytes),
                        static_cast<std::size_t>(end_bytes)),
            all.subspan(static_cast<std::size_t>(begin_bytes + end_bytes),
                        static_cast<std::size_t>(state_bytes))};
  }
};

/// Encodes one chunk's columns (non-empty, sorted by the total (begin,
/// end, state) key, every end >= its begin), choosing the cheapest codec
/// per column.  The raw candidates guarantee encoded_bytes() never exceeds
/// the raw column bytes.  Throws InvalidArgument on empty or mismatched
/// columns.
[[nodiscard]] EncodedColumns encode_columns(std::span<const TimeNs> begins,
                                            std::span<const TimeNs> ends,
                                            std::span<const StateId> states);

// --- Streaming decoder -----------------------------------------------------

/// Streams the intervals of one encoded chunk in order, one at a time,
/// from the encoded sections — the fixed-size decoder state *is* the
/// per-run cursor buffer, so consuming a compressed chunk never
/// materialises a column.  Throws TraceFormatError on malformed streams
/// (truncated varints, dictionary/run inconsistencies, invalid codec for
/// the column); semantic validation (sort order, end >= begin, state
/// range, fences) stays with the caller, which sees every decoded value.
class ColumnsDecoder {
 public:
  /// The coding's sections must outlive the decoder.
  explicit ColumnsDecoder(const ColumnsCoding& coding);

  ColumnsDecoder(ColumnsDecoder&&) noexcept = default;
  ColumnsDecoder& operator=(ColumnsDecoder&&) noexcept = default;

  /// Decodes the next interval into `out`; false once `count` intervals
  /// were delivered.  After the last interval, the decoder additionally
  /// verifies that every section was consumed exactly (trailing garbage
  /// inside a section throws).
  bool next(StateInterval& out);

  [[nodiscard]] std::uint64_t produced() const noexcept { return produced_; }

  /// Approximate heap + stack footprint of one live decoder (cursor
  /// scratch accounting): the object itself plus the decoded dictionary.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    return sizeof(*this) + dict_.capacity() * sizeof(StateId);
  }

 private:
  struct SectionCursor {
    std::span<const std::uint8_t> bytes;
    std::size_t pos = 0;
  };

  [[nodiscard]] std::uint64_t take_varint(SectionCursor& cur,
                                          const char* what);
  [[nodiscard]] TimeNs next_begin();
  [[nodiscard]] TimeNs next_end(TimeNs begin);
  [[nodiscard]] StateId next_state();
  void check_drained() const;

  std::uint64_t count_ = 0;
  std::uint64_t produced_ = 0;
  TimeCodec begin_codec_ = TimeCodec::kRaw;
  TimeCodec end_codec_ = TimeCodec::kRaw;
  StateCodec state_codec_ = StateCodec::kRaw;
  SectionCursor begin_cur_;
  SectionCursor end_cur_;
  SectionCursor state_cur_;

  // Time-column running state (wrap-around uint64 arithmetic).
  std::uint64_t prev_begin_ = 0;
  std::uint64_t prev_begin_delta_ = 0;
  std::uint64_t const_begin_ = 0;
  std::uint64_t prev_end_ = 0;
  std::uint64_t prev_duration_ = 0;
  std::uint64_t prev_duration_delta_ = 0;
  std::uint64_t const_duration_ = 0;

  // State-column running state.
  std::vector<StateId> dict_;
  std::uint64_t run_remaining_ = 0;
  StateId run_value_ = 0;
  std::uint32_t pack_width_ = 0;
  std::uint64_t pack_acc_ = 0;
  std::uint32_t pack_bits_ = 0;
};

}  // namespace stagg
