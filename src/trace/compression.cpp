#include "trace/compression.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "trace/codec_kernels.hpp"

namespace stagg {

namespace {

[[nodiscard]] std::uint64_t as_u(TimeNs v) noexcept {
  return static_cast<std::uint64_t>(v);
}

/// zigzag-varint size of one wrap-around difference.
[[nodiscard]] std::size_t zz_size(std::uint64_t diff) noexcept {
  return varint_size(zigzag_encode(static_cast<std::int64_t>(diff)));
}

void put_zz(std::vector<std::uint8_t>& out, std::uint64_t diff) {
  put_varint(out, zigzag_encode(static_cast<std::int64_t>(diff)));
}

void append_raw(std::vector<std::uint8_t>& out, const void* data,
                std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}

// --- Time-column planning over materialized difference streams -------------
// The SIMD pre-pass (trace/codec_kernels.hpp) computes every candidate
// stream once, already zigzag-folded; all delta arithmetic stays in
// wrap-around uint64, so columns touching the int64 range limits still
// round-trip (C++20 two's-complement conversions).  Measuring a codec is
// then a varint-size sum and encoding it replays the same array — the
// emitted bytes are identical to the historical per-value walk.

std::size_t varint_sum(const std::uint64_t* zz, std::size_t n) noexcept {
  std::size_t s = 0;
  for (std::size_t i = 0; i < n; ++i) s += varint_size(zz[i]);
  return s;
}

/// Appends the varints of zz[0, n), whose sizes sum to `bytes` (the
/// varint_sum the plan measured), writing in place past one resize.
void put_varints(std::vector<std::uint8_t>& out, const std::uint64_t* zz,
                 std::size_t n, std::size_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  std::uint8_t* p = out.data() + at;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = zz[i];
    while (v >= 0x80) {
      *p++ = wrap_u8(v | 0x80);
      v >>= 7;
    }
    *p++ = narrow<std::uint8_t>(v);
  }
}

/// Candidate streams and dictionary scratch of one encode.  A seal
/// encodes one short run per lane, where allocating and zero-filling the
/// streams costs as much as measuring them, so each thread keeps one set
/// for runs of up to kPooledIntervals (every compressed block fits);
/// longer runs use their own.  encode_columns never waits on the pool,
/// so a thread's set is never in use twice.
struct EncodeScratch {
  static constexpr std::size_t kPooledIntervals = 1024;

  simd::AlignedVec<std::uint64_t> beg_delta;
  simd::AlignedVec<std::uint64_t> beg_dod;
  simd::AlignedVec<std::uint64_t> beg_gap;
  simd::AlignedVec<std::uint64_t> dur;
  simd::AlignedVec<std::uint64_t> dur_delta;
  simd::AlignedVec<std::uint64_t> dur_dod;
  simd::AlignedVec<std::int32_t> dict_idx;
  std::vector<StateId> dict;

  void resize(std::size_t n) {
    for (auto* v : {&beg_delta, &beg_dod, &beg_gap, &dur, &dur_delta,
                    &dur_dod}) {
      v->resize(n);
    }
    dict_idx.resize(n);
  }
};

struct TimePlan {
  TimeCodec codec = TimeCodec::kRaw;
  std::size_t size = 0;
};

void consider(TimePlan& best, TimeCodec codec, std::size_t size) {
  if (size < best.size) best = {codec, size};
}

}  // namespace

bool time_codec_valid(std::uint8_t tag) noexcept {
  return tag <= time_codec_tag(TimeCodec::kGapFromPrevEnd);
}

bool state_codec_valid(std::uint8_t tag) noexcept {
  return tag <= state_codec_tag(StateCodec::kDictBitpack);
}

const char* time_codec_name(TimeCodec codec) noexcept {
  switch (codec) {
    case TimeCodec::kRaw:
      return "raw";
    case TimeCodec::kDelta:
      return "delta";
    case TimeCodec::kDeltaOfDelta:
      return "delta-of-delta";
    case TimeCodec::kConst:
      return "const";
    case TimeCodec::kGapFromPrevEnd:
      return "gap";
  }
  return "?";
}

const char* state_codec_name(StateCodec codec) noexcept {
  switch (codec) {
    case StateCodec::kRaw:
      return "raw";
    case StateCodec::kDictRle:
      return "dict-rle";
    case StateCodec::kDictBitpack:
      return "dict-bitpack";
  }
  return "?";
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(wrap_u8(v | 0x80));
    v >>= 7;
  }
  out.push_back(narrow<std::uint8_t>(v));
}

std::size_t varint_size(std::uint64_t v) noexcept {
  // ceil(significant bits / 7), at least one byte.
  return static_cast<std::size_t>(std::bit_width(v | 1) + 6) / 7;
}

EncodedColumns encode_columns(std::span<const TimeNs> begins,
                              std::span<const TimeNs> ends,
                              std::span<const StateId> states) {
  const std::size_t n = begins.size();
  if (n == 0 || ends.size() != n || states.size() != n) {
    throw InvalidArgument("encode_columns: empty or mismatched columns");
  }

  // --- Pre-pass: every candidate stream, zigzag-folded, in one SIMD walk
  // per column (see codec_kernels.hpp for why this is exact).
  thread_local EncodeScratch pooled;
  EncodeScratch own;
  EncodeScratch& scratch =
      n <= EncodeScratch::kPooledIntervals ? pooled : own;
  scratch.resize(n);
  auto& beg_delta = scratch.beg_delta;
  auto& beg_dod = scratch.beg_dod;
  auto& beg_gap = scratch.beg_gap;
  auto& dur = scratch.dur;
  auto& dur_delta = scratch.dur_delta;
  auto& dur_dod = scratch.dur_dod;

  const bool beg_const = codec::all_equal_u64(
      reinterpret_cast<const std::uint64_t*>(begins.data()), n);
  codec::delta_column(begins.data(), n, beg_delta.data());
  codec::delta_u64(beg_delta.data(), n, beg_dod.data());
  if (n > 1) beg_dod[1] = beg_delta[1];  // second-order starts at i = 2
  beg_gap[0] = as_u(begins[0]);
  codec::sub_columns(begins.data() + 1, ends.data(), n - 1, beg_gap.data() + 1);
  codec::zigzag_u64(beg_delta.data(), n);
  codec::zigzag_u64(beg_dod.data(), n);
  codec::zigzag_u64(beg_gap.data(), n);

  codec::sub_columns(ends.data(), begins.data(), n, dur.data());
  const bool dur_const = codec::all_equal_u64(dur.data(), n);
  const std::uint64_t dur0 = dur[0];
  codec::delta_u64(dur.data(), n, dur_delta.data());
  codec::delta_u64(dur_delta.data(), n, dur_dod.data());
  if (n > 1) dur_dod[1] = dur_delta[1];
  codec::zigzag_u64(dur_delta.data(), n);
  codec::zigzag_u64(dur_dod.data(), n);

  // --- Begin column: raw begins vs delta family vs gap-from-prev-end.
  TimePlan begin_plan{TimeCodec::kRaw, n * 8};
  if (beg_const) {
    consider(begin_plan, TimeCodec::kConst, zz_size(as_u(begins[0])));
  }
  consider(begin_plan, TimeCodec::kDelta, varint_sum(beg_delta.data(), n));
  consider(begin_plan, TimeCodec::kDeltaOfDelta, varint_sum(beg_dod.data(), n));
  consider(begin_plan, TimeCodec::kGapFromPrevEnd,
           varint_sum(beg_gap.data(), n));

  // --- End column: raw ends vs the delta family over durations.
  TimePlan end_plan{TimeCodec::kRaw, n * 8};
  if (dur_const) {
    consider(end_plan, TimeCodec::kConst, zz_size(dur0));
  }
  consider(end_plan, TimeCodec::kDelta, varint_sum(dur_delta.data(), n));
  consider(end_plan, TimeCodec::kDeltaOfDelta, varint_sum(dur_dod.data(), n));

  // --- State column: raw ids vs dictionary + RLE / bitpack.
  std::vector<StateId>& dict = scratch.dict;
  dict.assign(states.begin(), states.end());
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  std::size_t dict_header = varint_size(dict.size());
  for (const StateId s : dict) {
    dict_header += varint_size(zigzag_encode(s));
  }
  // One counting-compare pass resolves every value's dictionary index;
  // the RLE and bitpack paths below reuse it instead of re-searching.
  auto& dict_idx = scratch.dict_idx;
  codec::dict_indices(states.data(), n, dict.data(), dict.size(),
                      dict_idx.data());
  std::size_t rle_size = dict_header;
  {
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && states[j] == states[i]) ++j;
      rle_size += varint_size(static_cast<std::uint64_t>(dict_idx[i])) +
                  varint_size(j - i);
      i = j;
    }
  }
  const std::uint32_t pack_width =
      dict.size() > 1
          ? narrow<std::uint32_t>(std::bit_width(dict.size() - 1))
          : 0u;
  const std::size_t pack_size =
      dict_header + (n * pack_width + 7) / 8;
  StateCodec state_codec = StateCodec::kRaw;
  std::size_t state_size = n * 4;
  if (rle_size < state_size) {
    state_codec = StateCodec::kDictRle;
    state_size = rle_size;
  }
  if (pack_size < state_size) {
    state_codec = StateCodec::kDictBitpack;
    state_size = pack_size;
  }

  EncodedColumns out;
  out.count = n;
  out.begin_codec = begin_plan.codec;
  out.end_codec = end_plan.codec;
  out.state_codec = state_codec;
  out.bytes.reserve(begin_plan.size + end_plan.size + state_size);

  switch (begin_plan.codec) {
    case TimeCodec::kRaw:
      append_raw(out.bytes, begins.data(), begins.size_bytes());
      break;
    case TimeCodec::kDelta:
      put_varints(out.bytes, beg_delta.data(), n, begin_plan.size);
      break;
    case TimeCodec::kDeltaOfDelta:
      put_varints(out.bytes, beg_dod.data(), n, begin_plan.size);
      break;
    case TimeCodec::kConst:
      put_zz(out.bytes, as_u(begins[0]));
      break;
    case TimeCodec::kGapFromPrevEnd:
      put_varints(out.bytes, beg_gap.data(), n, begin_plan.size);
      break;
  }
  out.begin_bytes = out.bytes.size();

  switch (end_plan.codec) {
    case TimeCodec::kRaw:
      append_raw(out.bytes, ends.data(), ends.size_bytes());
      break;
    case TimeCodec::kDelta:
      put_varints(out.bytes, dur_delta.data(), n, end_plan.size);
      break;
    case TimeCodec::kDeltaOfDelta:
      put_varints(out.bytes, dur_dod.data(), n, end_plan.size);
      break;
    case TimeCodec::kConst:
      put_zz(out.bytes, dur0);
      break;
    case TimeCodec::kGapFromPrevEnd:
      break;  // unreachable: never planned for the end column
  }
  out.end_bytes = out.bytes.size() - out.begin_bytes;

  switch (state_codec) {
    case StateCodec::kRaw:
      append_raw(out.bytes, states.data(), states.size_bytes());
      break;
    case StateCodec::kDictRle: {
      put_varint(out.bytes, dict.size());
      for (const StateId s : dict) put_varint(out.bytes, zigzag_encode(s));
      std::size_t i = 0;
      while (i < n) {
        std::size_t j = i + 1;
        while (j < n && states[j] == states[i]) ++j;
        put_varint(out.bytes, static_cast<std::uint64_t>(dict_idx[i]));
        put_varint(out.bytes, j - i);
        i = j;
      }
      break;
    }
    case StateCodec::kDictBitpack: {
      put_varint(out.bytes, dict.size());
      for (const StateId s : dict) put_varint(out.bytes, zigzag_encode(s));
      std::uint64_t acc = 0;
      std::uint32_t bits = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto idx = static_cast<std::uint64_t>(dict_idx[i]);
        acc |= idx << bits;
        bits += pack_width;
        while (bits >= 8) {
          out.bytes.push_back(wrap_u8(acc));
          acc >>= 8;
          bits -= 8;
        }
      }
      if (bits > 0) out.bytes.push_back(wrap_u8(acc));
      break;
    }
  }
  out.state_bytes = out.bytes.size() - out.begin_bytes - out.end_bytes;

  out.first = {begins.front(), ends.front(), states.front()};
  out.last = {begins.back(), ends.back(), states.back()};
  codec::minmax_i64(ends.data(), n, out.min_end, out.max_end);
  TimeNs lead_min = 0;
  codec::minmax_i64(ends.data(), n - 1, lead_min, out.lead_max_end);
  return out;
}

// --- ColumnsDecoder --------------------------------------------------------

ColumnsDecoder::ColumnsDecoder(const ColumnsCoding& coding)
    : count_(coding.count),
      begin_codec_(coding.begin_codec),
      end_codec_(coding.end_codec),
      state_codec_(coding.state_codec),
      begin_cur_{coding.begin_section, 0},
      end_cur_{coding.end_section, 0},
      state_cur_{coding.state_section, 0} {
  if (end_codec_ == TimeCodec::kGapFromPrevEnd) {
    throw TraceFormatError(
        "invalid codec for the end column (gap-from-prev-end)");
  }
  if (state_codec_ != StateCodec::kRaw && count_ > 0) {
    const std::uint64_t dict_count =
        take_varint(state_cur_, "state dictionary");
    if (dict_count == 0 || dict_count > count_) {
      throw TraceFormatError("implausible state dictionary size " +
                             std::to_string(dict_count));
    }
    dict_.reserve(static_cast<std::size_t>(dict_count));
    for (std::uint64_t i = 0; i < dict_count; ++i) {
      const std::int64_t id =
          zigzag_decode(take_varint(state_cur_, "state dictionary"));
      if (id < 0 || id > std::numeric_limits<StateId>::max()) {
        throw TraceFormatError("state dictionary entry " + std::to_string(id) +
                               " outside the StateId range");
      }
      dict_.push_back(narrow<StateId>(id));
    }
    pack_width_ = dict_.size() > 1 ? narrow<std::uint32_t>(
                                         std::bit_width(dict_.size() - 1))
                                   : 0u;
  }
}

std::uint64_t ColumnsDecoder::take_varint(SectionCursor& cur,
                                          const char* what) {
  if (cur.pos + 8 <= cur.bytes.size()) {
    // Word fast path: one unaligned little-endian load (the byte order
    // kRaw columns already assume) finds the terminating byte, and the
    // 7-bit groups are compacted without a per-byte branch.  At most 56
    // payload bits fit, so the overlong check of the byte loop below
    // cannot trigger here.
    std::uint64_t word = 0;
    std::memcpy(&word, cur.bytes.data() + cur.pos, 8);
    const std::uint64_t stops = ~word & 0x8080808080808080ULL;
    if (stops != 0) {
      const auto len =
          static_cast<std::size_t>(std::countr_zero(stops) / 8 + 1);
      if (len < 8) word &= (std::uint64_t{1} << (len * 8)) - 1;
      std::uint64_t v = 0;
      for (std::size_t k = 0; k < 8; ++k) {
        v |= (word >> k) & (std::uint64_t{0x7F} << (7 * k));
      }
      cur.pos += len;
      return v;
    }
  }
  std::uint64_t v = 0;
  std::uint32_t shift = 0;
  for (;;) {
    if (cur.pos >= cur.bytes.size()) {
      throw TraceFormatError(std::string("truncated varint in encoded ") +
                             what);
    }
    const std::uint8_t b = cur.bytes[cur.pos++];
    if (shift == 63 && (b & ~std::uint8_t{1}) != 0) {
      throw TraceFormatError(std::string("overlong varint in encoded ") +
                             what);
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

TimeNs ColumnsDecoder::next_begin() {
  switch (begin_codec_) {
    case TimeCodec::kRaw: {
      if (begin_cur_.pos + 8 > begin_cur_.bytes.size()) {
        throw TraceFormatError("truncated encoded begin column");
      }
      TimeNs v = 0;
      std::memcpy(&v, begin_cur_.bytes.data() + begin_cur_.pos, 8);
      begin_cur_.pos += 8;
      return v;
    }
    case TimeCodec::kDelta:
      if (produced_ == 0) {
        prev_begin_ = static_cast<std::uint64_t>(
            zigzag_decode(take_varint(begin_cur_, "begin column")));
      } else {
        prev_begin_ += static_cast<std::uint64_t>(
            zigzag_decode(take_varint(begin_cur_, "begin column")));
      }
      return static_cast<TimeNs>(prev_begin_);
    case TimeCodec::kDeltaOfDelta:
      if (produced_ == 0) {
        prev_begin_ = static_cast<std::uint64_t>(
            zigzag_decode(take_varint(begin_cur_, "begin column")));
      } else {
        if (produced_ == 1) {
          prev_begin_delta_ = static_cast<std::uint64_t>(
              zigzag_decode(take_varint(begin_cur_, "begin column")));
        } else {
          prev_begin_delta_ += static_cast<std::uint64_t>(
              zigzag_decode(take_varint(begin_cur_, "begin column")));
        }
        prev_begin_ += prev_begin_delta_;
      }
      return static_cast<TimeNs>(prev_begin_);
    case TimeCodec::kConst:
      if (produced_ == 0) {
        const_begin_ = static_cast<std::uint64_t>(
            zigzag_decode(take_varint(begin_cur_, "begin column")));
      }
      return static_cast<TimeNs>(const_begin_);
    case TimeCodec::kGapFromPrevEnd:
      if (produced_ == 0) {
        prev_begin_ = static_cast<std::uint64_t>(
            zigzag_decode(take_varint(begin_cur_, "begin column")));
      } else {
        prev_begin_ = prev_end_ + static_cast<std::uint64_t>(zigzag_decode(
                                      take_varint(begin_cur_, "begin column")));
      }
      return static_cast<TimeNs>(prev_begin_);
  }
  throw TraceFormatError("unknown begin-column codec");
}

TimeNs ColumnsDecoder::next_end(TimeNs begin) {
  switch (end_codec_) {
    case TimeCodec::kRaw: {
      if (end_cur_.pos + 8 > end_cur_.bytes.size()) {
        throw TraceFormatError("truncated encoded end column");
      }
      TimeNs v = 0;
      std::memcpy(&v, end_cur_.bytes.data() + end_cur_.pos, 8);
      end_cur_.pos += 8;
      return v;
    }
    case TimeCodec::kDelta:
      if (produced_ == 0) {
        prev_duration_ = static_cast<std::uint64_t>(
            zigzag_decode(take_varint(end_cur_, "end column")));
      } else {
        prev_duration_ += static_cast<std::uint64_t>(
            zigzag_decode(take_varint(end_cur_, "end column")));
      }
      return static_cast<TimeNs>(as_u(begin) + prev_duration_);
    case TimeCodec::kDeltaOfDelta:
      if (produced_ == 0) {
        prev_duration_ = static_cast<std::uint64_t>(
            zigzag_decode(take_varint(end_cur_, "end column")));
      } else {
        if (produced_ == 1) {
          prev_duration_delta_ = static_cast<std::uint64_t>(
              zigzag_decode(take_varint(end_cur_, "end column")));
        } else {
          prev_duration_delta_ += static_cast<std::uint64_t>(
              zigzag_decode(take_varint(end_cur_, "end column")));
        }
        prev_duration_ += prev_duration_delta_;
      }
      return static_cast<TimeNs>(as_u(begin) + prev_duration_);
    case TimeCodec::kConst:
      if (produced_ == 0) {
        const_duration_ = static_cast<std::uint64_t>(
            zigzag_decode(take_varint(end_cur_, "end column")));
      }
      return static_cast<TimeNs>(as_u(begin) + const_duration_);
    case TimeCodec::kGapFromPrevEnd:
      break;  // rejected in the constructor
  }
  throw TraceFormatError("unknown end-column codec");
}

StateId ColumnsDecoder::next_state() {
  switch (state_codec_) {
    case StateCodec::kRaw: {
      if (state_cur_.pos + 4 > state_cur_.bytes.size()) {
        throw TraceFormatError("truncated encoded state column");
      }
      StateId v = 0;
      std::memcpy(&v, state_cur_.bytes.data() + state_cur_.pos, 4);
      state_cur_.pos += 4;
      return v;
    }
    case StateCodec::kDictRle: {
      if (run_remaining_ == 0) {
        const std::uint64_t idx = take_varint(state_cur_, "state column");
        const std::uint64_t len = take_varint(state_cur_, "state column");
        if (idx >= dict_.size()) {
          throw TraceFormatError("state run references dictionary entry " +
                                 std::to_string(idx) + " of " +
                                 std::to_string(dict_.size()));
        }
        if (len == 0 || len > count_ - produced_) {
          throw TraceFormatError("state run length " + std::to_string(len) +
                                 " does not fit the chunk");
        }
        run_value_ = dict_[static_cast<std::size_t>(idx)];
        run_remaining_ = len;
      }
      --run_remaining_;
      return run_value_;
    }
    case StateCodec::kDictBitpack: {
      if (pack_bits_ < pack_width_ && pack_width_ <= 32 &&
          state_cur_.pos + 8 <= state_cur_.bytes.size()) {
        // Wide refill: the byte loop below consumes exactly
        // ceil((width - bits) / 8) bytes, so when at least a full word
        // remains in the section one unaligned little-endian load (the
        // same byte order kRaw columns already assume) grabs them all.
        // After every extraction pack_bits_ < 8, so with width <= 32 the
        // shifted insert stays within the 64-bit accumulator.
        const std::size_t need_bytes =
            (static_cast<std::size_t>(pack_width_ - pack_bits_) + 7) / 8;
        std::uint64_t word = 0;
        std::memcpy(&word, state_cur_.bytes.data() + state_cur_.pos, 8);
        const std::uint64_t mask =
            (std::uint64_t{1} << (need_bytes * 8)) - 1;
        pack_acc_ |= (word & mask) << pack_bits_;
        pack_bits_ += narrow<std::uint32_t>(need_bytes * 8);
        state_cur_.pos += need_bytes;
      }
      while (pack_bits_ < pack_width_) {
        if (state_cur_.pos >= state_cur_.bytes.size()) {
          throw TraceFormatError("truncated encoded state column");
        }
        pack_acc_ |= static_cast<std::uint64_t>(
                         state_cur_.bytes[state_cur_.pos++])
                     << pack_bits_;
        pack_bits_ += 8;
      }
      const std::uint64_t idx =
          pack_width_ == 0
              ? 0
              : pack_acc_ & ((std::uint64_t{1} << pack_width_) - 1);
      pack_acc_ >>= pack_width_;
      pack_bits_ -= pack_width_;
      if (idx >= dict_.size()) {
        throw TraceFormatError("bit-packed state index " +
                               std::to_string(idx) +
                               " outside the dictionary");
      }
      return dict_[static_cast<std::size_t>(idx)];
    }
  }
  throw TraceFormatError("unknown state-column codec");
}

void ColumnsDecoder::check_drained() const {
  if (begin_cur_.pos != begin_cur_.bytes.size()) {
    throw TraceFormatError("trailing bytes in encoded begin column");
  }
  if (end_cur_.pos != end_cur_.bytes.size()) {
    throw TraceFormatError("trailing bytes in encoded end column");
  }
  if (state_cur_.pos != state_cur_.bytes.size()) {
    throw TraceFormatError("trailing bytes in encoded state column");
  }
  if (run_remaining_ != 0) {
    throw TraceFormatError("state run extends past the chunk");
  }
}

bool ColumnsDecoder::next(StateInterval& out) {
  if (produced_ >= count_) return false;
  const TimeNs b = next_begin();
  const TimeNs e = next_end(b);
  const StateId s = next_state();
  out = {b, e, s};
  prev_end_ = as_u(e);
  ++produced_;
  if (produced_ == count_) check_drained();
  return true;
}

}  // namespace stagg
