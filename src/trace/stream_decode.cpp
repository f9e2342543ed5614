#include "trace/stream_decode.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace stagg {
namespace {

/// Largest |seconds| whose nanosecond count fits in TimeNs (int64):
/// 2^63 ns ≈ 9.223e9 s; stay just inside so llround cannot overflow.
constexpr double kMaxAbsSeconds = 9.2e9;

/// Seconds (pj_dump) to nanoseconds, with round-to-nearest so that
/// begin + duration == end survives the conversion.  Non-finite values and
/// magnitudes whose nanosecond count would overflow the 64-bit TimeNs make
/// llround undefined behaviour — reject them with the line context instead.
TimeNs paje_time(double seconds_value, const std::string& where) {
  // Negated form so NaN (every comparison false) is rejected too.
  if (!(std::abs(seconds_value) <= kMaxAbsSeconds)) {
    char num[32];
    std::snprintf(num, sizeof num, "%g", seconds_value);
    throw TraceFormatError(std::string("timestamp ") + num +
                           " s is not representable in nanoseconds (finite, "
                           "|t| <= 9.2e9 s required) at " + where);
  }
  return static_cast<TimeNs>(std::llround(seconds_value * 1e9));
}

}  // namespace

TextTraceDecoder::TextTraceDecoder(TextTraceFormat format, std::string context)
    : format_(format), context_(std::move(context)) {}

void TextTraceDecoder::feed(std::string_view bytes,
                            const DecodedTextSink& sink) {
  while (!bytes.empty()) {
    const std::size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) {
      carry_.append(bytes);
      return;
    }
    if (carry_.empty()) {
      decode_line(bytes.substr(0, nl), sink);
    } else {
      carry_.append(bytes.substr(0, nl));
      decode_line(carry_, sink);
      carry_.clear();
    }
    bytes.remove_prefix(nl + 1);
  }
}

void TextTraceDecoder::finish(const DecodedTextSink& sink) {
  if (carry_.empty()) return;
  // Move first: decode_line may throw, and finish must stay idempotent.
  const std::string last = std::exchange(carry_, {});
  decode_line(last, sink);
}

void TextTraceDecoder::decode_line(std::string_view line,
                                   const DecodedTextSink& sink) {
  ++line_no_;
  const std::string_view sv = trim(line);
  if (format_ == TextTraceFormat::kCsv) {
    if (sv.empty()) return;
    if (sv.front() == '#') {
      ++stats_.comment_lines;
      if (starts_with(sv, "# window,")) {
        const auto fields = split(sv.substr(2), ',');
        if (fields.size() != 3) {
          throw TraceFormatError("bad window comment at " + context_ + ":" +
                                 std::to_string(line_no_));
        }
        window_begin_ = parse_int(fields[1], context_);
        window_end_ = parse_int(fields[2], context_);
        has_window_ = true;
      }
      return;
    }
    const auto fields = split(sv, ',');
    const std::string where = context_ + ":" + std::to_string(line_no_);
    if (fields.size() != 5 || fields[0] != "STATE") {
      throw TraceFormatError("expected STATE record with 5 fields at " +
                             where);
    }
    DecodedTextRecord rec;
    rec.resource = fields[1];
    rec.state = fields[2];
    rec.begin = parse_int(fields[3], where);
    rec.end = parse_int(fields[4], where);
    if (rec.end < rec.begin) {
      throw TraceFormatError("end < begin at " + where);
    }
    ++stats_.records;
    sink(rec);
    return;
  }
  // pj_dump (blank lines count as comments, like the historical reader).
  if (sv.empty() || sv.front() == '#' || sv.front() == '%') {
    ++stats_.comment_lines;
    return;
  }
  const auto fields = split(sv, ',');
  const std::string_view kind = trim(fields[0]);
  if (kind != "State") {
    ++stats_.skipped_records;
    return;
  }
  const std::string where = context_ + ":" + std::to_string(line_no_);
  if (fields.size() != 8) {
    // More than 8 fields is ambiguous between unsupported extra pj_dump
    // columns and a comma embedded in a container/state name (the format
    // has no escaping, so such a name shifts every later field); both
    // would silently mis-assign fields, so reject with the line context.
    throw TraceFormatError(
        "State record needs exactly 8 fields, got " +
        std::to_string(fields.size()) + " at " + where +
        (fields.size() > 8 ? " (extra trailing fields are not supported, "
                             "and names must not contain commas)"
                           : ""));
  }
  const double begin_s = parse_double(fields[3], where);
  const double end_s = parse_double(fields[4], where);
  if (end_s < begin_s) {
    throw TraceFormatError("State with end < begin at " + where);
  }
  DecodedTextRecord rec;
  rec.resource = trim(fields[1]);
  rec.state = trim(fields[7]);
  rec.begin = paje_time(begin_s, where);
  rec.end = paje_time(end_s, where);
  ++stats_.records;
  sink(rec);
}

std::vector<std::string_view> split_text_shards(std::string_view text,
                                                std::size_t shards) {
  std::vector<std::string_view> out;
  if (text.empty() || shards == 0) return out;
  const std::size_t target = std::max<std::size_t>(1, text.size() / shards);
  std::size_t begin = 0;
  while (begin < text.size() && out.size() + 1 < shards) {
    std::size_t end = begin + target;
    if (end >= text.size()) break;
    const std::size_t nl = text.find('\n', end);
    if (nl == std::string_view::npos) break;
    out.push_back(text.substr(begin, nl + 1 - begin));
    begin = nl + 1;
  }
  if (begin < text.size()) out.push_back(text.substr(begin));
  return out;
}

StgtRecordDecoder::StgtRecordDecoder(std::uint64_t resource_count,
                                     std::uint64_t state_count,
                                     std::string context,
                                     std::uint64_t base_offset)
    : resource_count_(resource_count),
      state_count_(state_count),
      context_(std::move(context)),
      base_offset_(base_offset) {}

void throw_stgt_record_error(const char* what, const std::string& context,
                             std::uint64_t offset) {
  throw TraceFormatError(std::string(what) + " in '" + context +
                         "' at offset " + std::to_string(offset));
}

void StgtRecordDecoder::emit(const std::uint8_t* record,
                             const StgtRecordSink& sink) {
  sink(decode_stgt_record(record, resource_count_, state_count_, context_,
                          base_offset_ + decoded_ * kRecordBytes));
  ++decoded_;
}

void StgtRecordDecoder::feed(std::span<const std::uint8_t> bytes,
                             const StgtRecordSink& sink) {
  if (carry_len_ > 0) {
    const std::size_t need =
        std::min(kRecordBytes - carry_len_, bytes.size());
    std::memcpy(carry_ + carry_len_, bytes.data(), need);
    carry_len_ += need;
    bytes = bytes.subspan(need);
    if (carry_len_ < kRecordBytes) return;
    carry_len_ = 0;
    emit(carry_, sink);
  }
  while (bytes.size() >= kRecordBytes) {
    emit(bytes.data(), sink);
    bytes = bytes.subspan(kRecordBytes);
  }
  if (!bytes.empty()) {
    std::memcpy(carry_, bytes.data(), bytes.size());
    carry_len_ = bytes.size();
  }
}

void StgtRecordDecoder::finish() const {
  if (carry_len_ != 0) {
    throw TraceFormatError(
        "truncated record stream in '" + context_ + "' at offset " +
        std::to_string(base_offset_ + decoded_ * kRecordBytes) + " (" +
        std::to_string(carry_len_) + " trailing bytes)");
  }
}

}  // namespace stagg
