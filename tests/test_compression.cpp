// Chunk-compression suite: per-codec property tests over the columnar
// codecs (delta family, gap-from-prev-end, dictionary RLE/bitpack), the
// cheapest-codec selection, and the streaming ColumnsDecoder.
//
// The load-bearing properties:
//   * Round trip — encode_columns followed by a streaming decode yields
//     the exact input interval sequence, for random sorted columns and
//     for every adversarial shape the issue names (constant columns,
//     max-delta jumps at the int64 range limits, hundreds of states,
//     single-interval chunks).
//   * Never larger — the raw fallback bounds encoded_bytes() by the raw
//     column bytes, whatever the input.
//   * Loud rejection — malformed encoded streams (truncation, trailing
//     bytes, dictionary/run inconsistencies, an end column claiming the
//     begin-only gap codec) throw TraceFormatError instead of decoding
//     garbage.
#include "trace/compression.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/trace_store.hpp"

namespace stagg {
namespace {

constexpr std::size_t kRawBytesPerInterval = 8 + 8 + 4;

std::vector<StateInterval> decode_all(const ColumnsCoding& coding) {
  ColumnsDecoder decoder(coding);
  std::vector<StateInterval> out;
  StateInterval s{};
  while (decoder.next(s)) out.push_back(s);
  return out;
}

/// Encodes the (sorted) intervals, asserts the never-larger bound and
/// that a streaming decode reproduces them bit-exactly, and returns the
/// encoding for codec-choice assertions.
EncodedColumns round_trip(const std::vector<StateInterval>& intervals,
                          const std::string& context) {
  std::vector<TimeNs> begins;
  std::vector<TimeNs> ends;
  std::vector<StateId> states;
  for (const StateInterval& s : intervals) {
    begins.push_back(s.begin);
    ends.push_back(s.end);
    states.push_back(s.state);
  }
  EncodedColumns enc = encode_columns(begins, ends, states);
  EXPECT_EQ(enc.count, intervals.size()) << context;
  EXPECT_LE(enc.encoded_bytes(), intervals.size() * kRawBytesPerInterval)
      << context << ": raw fallback must bound the encoded size";
  EXPECT_EQ(enc.first, intervals.front()) << context;
  EXPECT_EQ(enc.last, intervals.back()) << context;
  TimeNs min_end = ends[0];
  TimeNs max_end = ends[0];
  for (const TimeNs e : ends) {
    min_end = std::min(min_end, e);
    max_end = std::max(max_end, e);
  }
  EXPECT_EQ(enc.min_end, min_end) << context;
  EXPECT_EQ(enc.max_end, max_end) << context;

  const std::vector<StateInterval> got = decode_all(enc.coding());
  EXPECT_EQ(got.size(), intervals.size()) << context;
  if (got.size() != intervals.size()) return enc;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], intervals[i])
        << context << " interval " << i << " (begin "
        << time_codec_name(enc.begin_codec) << ", end "
        << time_codec_name(enc.end_codec) << ", state "
        << state_codec_name(enc.state_codec) << ")";
  }
  return enc;
}

std::vector<StateInterval> make_sorted_intervals(std::uint64_t seed,
                                                 std::size_t n,
                                                 std::int32_t state_count,
                                                 TimeNs span) {
  SplitMix64 mix(seed);
  std::vector<StateInterval> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<TimeNs>(mix.next() % static_cast<std::uint64_t>(span));
    TimeNs d = static_cast<TimeNs>(mix.next() % 50000);
    if (mix.next() % 8 == 0) d = 0;
    out.push_back({b, b + d,
                   static_cast<StateId>(mix.next() %
                                        static_cast<std::uint64_t>(state_count))});
  }
  std::sort(out.begin(), out.end(), interval_key_less);
  return out;
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

TEST(Compression, ZigzagRoundTripsIncludingRangeLimits) {
  const std::int64_t values[] = {0,
                                 1,
                                 -1,
                                 63,
                                 -64,
                                 1234567891011,
                                 -1234567891011,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes must map to small codes (the point of zigzag).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Compression, VarintSizeMatchesEmittedBytes) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 35) - 1,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v)) << v;
    EXPECT_LE(buf.size(), 10u) << v;
  }
}

// ---------------------------------------------------------------------------
// Round-trip properties.
// ---------------------------------------------------------------------------

TEST(Compression, RandomSortedColumnsRoundTrip) {
  for (const std::uint64_t seed : {0x01ull, 0xBEEFull, 0x5EEDull}) {
    // 1024 / 1025 straddle the encoder's per-thread scratch size; the
    // short runs after them reuse a scratch a longer run left behind.
    for (const std::size_t n : {1, 2, 7, 100, 1000, 1024, 1025, 3, 40}) {
      round_trip(make_sorted_intervals(seed, n, 3, 1000000),
                 "seed " + std::to_string(seed) + " n " + std::to_string(n));
    }
  }
}

TEST(Compression, ConstantColumnsCollapseToConstCodecs) {
  // 500 identical intervals: both time columns are constant streams and
  // the dictionary is singular — the whole chunk must encode to a
  // handful of bytes.
  const std::vector<StateInterval> intervals(500,
                                             StateInterval{1000, 2500, 7});
  const EncodedColumns enc = round_trip(intervals, "constant columns");
  EXPECT_EQ(enc.begin_codec, TimeCodec::kConst);
  EXPECT_EQ(enc.end_codec, TimeCodec::kConst);
  EXPECT_NE(enc.state_codec, StateCodec::kRaw);
  EXPECT_LT(enc.encoded_bytes(), 32u)
      << "500 identical intervals must collapse to a few varints";
}

TEST(Compression, MaxDeltaJumpsAtInt64RangeLimitsRoundTrip) {
  // Sorted begins touching both int64 range limits: consecutive deltas
  // overflow int64 but the wrap-around uint64 arithmetic must round-trip
  // them bit-exactly through every delta-family codec candidate.
  constexpr TimeNs kMin = std::numeric_limits<TimeNs>::min();
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
  const std::vector<StateInterval> intervals = {
      {kMin, kMin, 0},         {kMin, kMax, 1},          {kMin + 1, kMin + 1, 0},
      {-1, kMax - 1, 2},       {0, 0, 0},                {0, kMax, 1},
      {kMax - 5, kMax, 2},     {kMax, kMax, 0},
  };
  round_trip(intervals, "int64 range limits");

  // And a two-interval chunk whose single delta is the full uint64 span.
  round_trip({{kMin, kMin, 0}, {kMax, kMax, 0}}, "full-span jump");
}

TEST(Compression, HundredsOfStatesRoundTrip) {
  // |X| in the hundreds: the dictionary codecs must stay correct when
  // the dictionary is large (bit width 9) and still never beat the raw
  // bound; timing stays compressible.
  const std::vector<StateInterval> random =
      make_sorted_intervals(0xD1C7, 2000, 400, 500000);
  round_trip(random, "400 states, random");

  // Dictionary == one entry per interval (worst dictionary density).
  std::vector<StateInterval> distinct;
  for (std::int32_t i = 0; i < 300; ++i) {
    distinct.push_back({i * 10, i * 10 + 5, i});
  }
  round_trip(distinct, "300 distinct states");
}

TEST(Compression, SingleIntervalChunkRoundTrips) {
  const EncodedColumns enc =
      round_trip({{123456789, 987654321, 5}}, "single interval");
  EXPECT_LE(enc.encoded_bytes(), 20u);
}

TEST(Compression, GaplessTracePicksGapCodecAndCompressesHard) {
  // Contiguous per-resource intervals (begin[i] == end[i-1]) with a
  // constant duration and two alternating states: the shape the gap
  // codec exists for — about one byte per begin, a constant end column,
  // a bit-packed state column.
  std::vector<StateInterval> intervals;
  TimeNs t = 1000000;
  for (int i = 0; i < 512; ++i) {
    intervals.push_back({t, t + 250, i % 2});
    t += 250;
  }
  const EncodedColumns enc = round_trip(intervals, "gapless trace");
  EXPECT_EQ(enc.begin_codec, TimeCodec::kGapFromPrevEnd);
  EXPECT_EQ(enc.end_codec, TimeCodec::kConst);
  // ~1 byte per begin after the varint first value.
  EXPECT_LE(enc.begin_bytes, intervals.size() + 10);
  EXPECT_GE(intervals.size() * kRawBytesPerInterval,
            5 * enc.encoded_bytes())
      << "gapless traces must compress at least 5x";
}

TEST(Compression, EncodeRejectsEmptyOrMismatchedColumns) {
  const std::vector<TimeNs> times = {1, 2};
  const std::vector<StateId> states = {0, 0};
  const std::vector<StateId> one_state = {0};
  EXPECT_THROW((void)encode_columns({}, {}, {}), InvalidArgument);
  EXPECT_THROW((void)encode_columns(times, times, one_state), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Malformed-stream rejection.
// ---------------------------------------------------------------------------

TEST(Compression, DecoderRejectsGapCodecOnEndColumn) {
  // The gap codec needs the previous *end* to decode a begin; an end
  // column claiming it is self-referential and must be rejected up
  // front (the v2 record reader relies on this).
  ColumnsCoding coding;
  coding.count = 1;
  coding.end_codec = TimeCodec::kGapFromPrevEnd;
  EXPECT_THROW((void)ColumnsDecoder(coding), TraceFormatError);
}

TEST(Compression, DecoderRejectsTruncatedAndTrailingSections) {
  const std::vector<StateInterval> intervals =
      make_sorted_intervals(0x7A, 200, 3, 100000);
  const EncodedColumns enc = round_trip(intervals, "baseline");
  ASSERT_NE(enc.begin_codec, TimeCodec::kRaw);

  // Truncated begin section: the decode loop must throw, not read past.
  {
    ColumnsCoding coding = enc.coding();
    coding.begin_section =
        coding.begin_section.first(coding.begin_section.size() - 1);
    EXPECT_THROW((void)decode_all(coding), TraceFormatError);
  }
  // Trailing garbage after the last state run: the post-decode drain
  // check must trip even though every interval decoded fine.
  {
    std::vector<std::uint8_t> padded(enc.coding().state_section.begin(),
                                     enc.coding().state_section.end());
    padded.push_back(0x00);
    ColumnsCoding coding = enc.coding();
    coding.state_section = padded;
    EXPECT_THROW((void)decode_all(coding), TraceFormatError);
  }
}

TEST(Compression, DecoderRejectsDictionaryAndRunInconsistencies) {
  // Handcrafted two-interval chunk: constant time columns (one varint
  // zero each) and a tampered dict-RLE state section.
  const std::vector<std::uint8_t> zero = {0x00};
  const auto make_coding = [&](const std::vector<std::uint8_t>& states) {
    ColumnsCoding c;
    c.count = 2;
    c.begin_codec = TimeCodec::kConst;
    c.end_codec = TimeCodec::kConst;
    c.state_codec = StateCodec::kDictRle;
    c.begin_section = zero;
    c.end_section = zero;
    c.state_section = states;
    return c;
  };
  // dict {7}; run references entry 5 of 1.
  EXPECT_THROW((void)decode_all(make_coding({0x01, 0x0E, 0x05, 0x02})),
               TraceFormatError);
  // dict {7}; run of length 3 in a 2-interval chunk.
  EXPECT_THROW((void)decode_all(make_coding({0x01, 0x0E, 0x00, 0x03})),
               TraceFormatError);
  // Empty dictionary.
  EXPECT_THROW((void)decode_all(make_coding({0x00, 0x00, 0x02})),
               TraceFormatError);
  // Overlong varint dictionary size (11 continuation bytes).
  EXPECT_THROW((void)decode_all(make_coding({0x80, 0x80, 0x80, 0x80, 0x80,
                                             0x80, 0x80, 0x80, 0x80, 0x7F})),
               TraceFormatError);
  // The untampered section decodes: dict {7}, one run of length 2.
  const std::vector<StateInterval> ok =
      decode_all(make_coding({0x01, 0x0E, 0x00, 0x02}));
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok[0], (StateInterval{0, 0, 7}));
  EXPECT_EQ(ok[1], (StateInterval{0, 0, 7}));
}

TEST(Compression, DecoderScratchIsSmallAndCountsTheDictionary) {
  const std::vector<StateInterval> intervals =
      make_sorted_intervals(0x9C, 400, 200, 100000);
  const EncodedColumns enc = round_trip(intervals, "scratch baseline");
  ColumnsDecoder decoder(enc.coding());
  // The per-run cursor buffer: fixed object state plus the dictionary —
  // far below the decoded column bytes.
  EXPECT_GE(decoder.scratch_bytes(), sizeof(ColumnsDecoder));
  EXPECT_LT(decoder.scratch_bytes(),
            intervals.size() * kRawBytesPerInterval / 4);
}

}  // namespace
}  // namespace stagg
