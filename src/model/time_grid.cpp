#include "model/time_grid.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace stagg {

TimeGrid::TimeGrid(TimeNs begin, TimeNs end, std::int32_t count)
    : begin_(begin), end_(end), count_(count) {
  if (count < 1) throw InvalidArgument("TimeGrid: slice count must be >= 1");
  if (end <= begin) throw InvalidArgument("TimeGrid: empty window");
  // Every edge is begin + span * t / count for t <= count, so span * count
  // must fit in int64 (a hostile STGT header window reaches here).
  if (__builtin_sub_overflow(end, begin, &span_) ||
      span_ > std::numeric_limits<TimeNs>::max() / count) {
    throw InvalidArgument("TimeGrid: window [" + std::to_string(begin) +
                          ", " + std::to_string(end) + ") times " +
                          std::to_string(count) +
                          " slices overflows int64 edge arithmetic");
  }
}

SliceId TimeGrid::slice_of(TimeNs time) const noexcept {
  if (time < begin_) return 0;
  if (time >= end_) return count_ - 1;
  // Integer estimate mirroring slice_begin: (time - begin) < span, and the
  // constructor guarantees span * count fits in int64.
  auto idx = std::clamp<SliceId>(
      static_cast<SliceId>((time - begin_) * count_ / span_), 0, count_ - 1);
  // When span % count != 0 the floor above can land one slice off for
  // timestamps exactly on (or within the rounding slack of) a slice edge —
  // e.g. span 10, count 3: slice_begin(1) = 3 but 3*3/10 floors to 0.
  // Nudge onto the unique slice with slice_begin <= time < slice_end.
  while (idx + 1 < count_ && time >= slice_end(idx)) ++idx;
  while (idx > 0 && time < slice_begin(idx)) --idx;
  return idx;
}

double TimeGrid::overlap_s(TimeNs a, TimeNs b, SliceId t) const noexcept {
  const TimeNs lo = std::max(a, slice_begin(t));
  const TimeNs hi = std::min(b, slice_end(t));
  return hi > lo ? to_seconds(hi - lo) : 0.0;
}

namespace {

TimeNs require_uniform_dt(const TimeGrid& g, const char* op) {
  const TimeNs dt = g.uniform_dt_ns();
  if (dt == 0) {
    throw InvalidArgument(std::string("TimeGrid::") + op +
                          ": window span must be divisible by the slice "
                          "count (uniform dt) so derived slice edges stay "
                          "exact");
  }
  return dt;
}

}  // namespace

TimeGrid TimeGrid::advanced(std::int32_t slices) const {
  const TimeNs dt = require_uniform_dt(*this, "advanced");
  const TimeNs shift = dt * slices;
  return TimeGrid(begin_ + shift, end_ + shift, count_);
}

TimeGrid TimeGrid::extended(std::int32_t slices) const {
  if (slices < 0) {
    throw InvalidArgument("TimeGrid::extended: negative slice delta");
  }
  const TimeNs dt = require_uniform_dt(*this, "extended");
  return TimeGrid(begin_, end_ + dt * slices, count_ + slices);
}

TimeGrid TimeGrid::contracted(std::int32_t slices) const {
  const TimeNs dt = require_uniform_dt(*this, "contracted");
  if (slices < 0 || slices >= count_) {
    throw InvalidArgument(
        "TimeGrid::contracted: must leave at least one slice");
  }
  return TimeGrid(begin_, end_ - dt * slices, count_ - slices);
}

}  // namespace stagg
