// The temporal dimension of the trace model (paper §III-A(2)).
//
// The raw continuous trace time is divided into |T| regular time periods
// ("slices"); events are associated with the periods they are active in.
// The paper uses 30 slices for every Table II scenario; the library supports
// any count.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace stagg {

/// Index of a time slice in [0, slice_count).
using SliceId = std::int32_t;

/// Uniform slicing of a window [begin, end) into `count` slices.
class TimeGrid {
 public:
  TimeGrid() = default;

  /// Throws InvalidArgument when count < 1, end <= begin, or the edge
  /// arithmetic would overflow int64 ((end - begin) * count > INT64_MAX).
  TimeGrid(TimeNs begin, TimeNs end, std::int32_t count);

  [[nodiscard]] TimeNs begin() const noexcept { return begin_; }
  [[nodiscard]] TimeNs end() const noexcept { return end_; }
  [[nodiscard]] std::int32_t slice_count() const noexcept { return count_; }

  /// Slice boundaries: slice t covers [slice_begin(t), slice_end(t)).
  /// Boundaries are computed multiplicatively so they are exact and the last
  /// slice ends exactly at end() (no cumulative rounding drift).
  [[nodiscard]] TimeNs slice_begin(SliceId t) const noexcept {
    return begin_ + span_ * t / count_;
  }
  [[nodiscard]] TimeNs slice_end(SliceId t) const noexcept {
    return begin_ + span_ * (t + 1) / count_;
  }
  /// d(t): duration of slice t in seconds.
  [[nodiscard]] double slice_duration_s(SliceId t) const noexcept {
    return to_seconds(slice_end(t) - slice_begin(t));
  }

  /// Slice containing timestamp `time` (clamped to [0, count)): the unique
  /// t with slice_begin(t) <= time < slice_end(t).  Timestamps exactly on a
  /// slice edge belong to the slice *starting* there (half-open convention);
  /// time >= end() clamps to the last slice.
  [[nodiscard]] SliceId slice_of(TimeNs time) const noexcept;

  /// Exact slice width in ns when all slices are equal (span divisible by
  /// the count), 0 otherwise.  The window-derivation helpers below require
  /// a uniform width: it is what makes a derived grid's slice edges
  /// bit-identical to a fresh grid over the same span (every edge is
  /// begin + t * dt recomputed from the origin, never accumulated).
  [[nodiscard]] TimeNs uniform_dt_ns() const noexcept {
    return count_ > 0 && span_ % count_ == 0 ? span_ / count_ : 0;
  }

  /// Window slid forward by `slices` whole slices (same count, same dt):
  /// [begin + k*dt, end + k*dt).  Throws InvalidArgument unless the grid
  /// has a uniform dt.  Negative k slides backward.
  [[nodiscard]] TimeGrid advanced(std::int32_t slices) const;
  /// Window extended by `slices` new trailing slices (count grows):
  /// [begin, end + k*dt).  Existing slice edges are preserved exactly.
  /// Throws InvalidArgument when dt is not uniform or `slices` is
  /// negative (use contracted() to shrink).
  [[nodiscard]] TimeGrid extended(std::int32_t slices) const;
  /// Window contracted by `slices` trailing slices (count shrinks):
  /// [begin, end - k*dt).  Throws InvalidArgument unless dt is uniform,
  /// or when fewer than one slice would remain.
  [[nodiscard]] TimeGrid contracted(std::int32_t slices) const;

  /// Overlap in seconds between [a, b) and slice t.
  [[nodiscard]] double overlap_s(TimeNs a, TimeNs b, SliceId t) const noexcept;

  /// Total duration of the interval of slices [i, j] in seconds.
  [[nodiscard]] double interval_duration_s(SliceId i, SliceId j) const noexcept {
    return to_seconds(slice_end(j) - slice_begin(i));
  }

  friend bool operator==(const TimeGrid&, const TimeGrid&) = default;

 private:
  TimeNs begin_ = 0;
  TimeNs end_ = 0;
  TimeNs span_ = 0;
  std::int32_t count_ = 0;
};

}  // namespace stagg
