// Time intervals T_(i,j) and packed upper-triangular indexing.
//
// The DP state of Algorithm 1 is one value per (i <= j) pair; the tree of
// "upper triangular matrices" of the paper is stored as one packed array of
// cells per node.  An offline triangle holds exactly |T|(|T|+1)/2 cells.  A
// sliding window's triangle is *origin-addressed*: it spans C >= |T|
// capacity columns and window cell (i, j) lives at physical cell
// (origin + i, origin + j).  Cell values are translation-invariant (see
// cube.hpp), so a slide by k only moves the origin; the k new columns land
// in the free capacity and are recomputed by the dirty-column sweep.  When
// the origin would run past the capacity, one in-place compaction
// (relocate_triangles) moves the window back to origin 0.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

#include "model/time_grid.hpp"

namespace stagg {

/// Inclusive slice interval T_(i,j), i <= j.
struct TimeInterval {
  SliceId i = 0;
  SliceId j = 0;

  [[nodiscard]] constexpr std::int32_t length() const noexcept {
    return j - i + 1;
  }
  friend constexpr bool operator==(const TimeInterval&,
                                   const TimeInterval&) = default;
  friend constexpr auto operator<=>(const TimeInterval& a,
                                    const TimeInterval& b) noexcept {
    if (a.i != b.i) return a.i <=> b.i;
    return a.j <=> b.j;
  }
};

/// Slack columns of a sliding window's origin-addressed triangles over
/// `slices` columns: ceil(|T| / 8).  The capacity C = |T| + s holds about
/// ((|T| + s) / |T|)^2 (~1.27x for large |T|) the window's cells, and a
/// window sliding k columns at a time compacts once every
/// ceil((s + 1) / k) slides.
[[nodiscard]] constexpr std::int32_t window_slack(
    std::int32_t slices) noexcept {
  return (slices + 7) / 8;
}

/// Packed storage for one value per interval (i <= j) of a `slices`-wide
/// window, laid out in a triangle over `capacity` columns and addressed
/// through `origin` (window cell (i, j) = physical cell (origin + i,
/// origin + j); see the header comment).  Physical cells of a fixed row are
/// contiguous: index(i, j) = row_offset(i) + (j - i), which keeps the DP's
/// inner j-loop cache-friendly.  TriangularIndex(t) is the offline layout:
/// capacity t, origin 0.
class TriangularIndex {
 public:
  TriangularIndex() = default;
  explicit constexpr TriangularIndex(std::int32_t slices) noexcept
      : t_(slices), cap_(slices) {}
  constexpr TriangularIndex(std::int32_t slices, std::int32_t capacity,
                            std::int32_t origin) noexcept
      : t_(slices), cap_(capacity), origin_(origin) {
    assert(0 <= origin && slices + origin <= capacity);
  }

  [[nodiscard]] constexpr std::int32_t slices() const noexcept { return t_; }
  [[nodiscard]] constexpr std::int32_t capacity() const noexcept {
    return cap_;
  }
  [[nodiscard]] constexpr std::int32_t origin() const noexcept {
    return origin_;
  }

  /// Number of packed storage cells: C(C+1)/2 (= t(t+1)/2 offline).
  [[nodiscard]] constexpr std::size_t size() const noexcept {
    const auto n = static_cast<std::size_t>(cap_);
    return n * (n + 1) / 2;
  }

  /// Number of window cells: t(t+1)/2.
  [[nodiscard]] constexpr std::size_t window_cells() const noexcept {
    const auto n = static_cast<std::size_t>(t_);
    return n * (n + 1) / 2;
  }

  /// Offset of window row i (cells [i,i..t-1]); physical rows are stored
  /// ascending, row k holding C - k cells.
  [[nodiscard]] constexpr std::size_t row_offset(SliceId i) const noexcept {
    // offset(r) = sum_{k<r} (C-k) = r*C - r(r-1)/2, r = origin + i.
    const auto r = static_cast<std::size_t>(origin_ + i);
    const auto c = static_cast<std::size_t>(cap_);
    return r * c - r * (r - 1) / 2;
  }

  [[nodiscard]] constexpr std::size_t operator()(SliceId i,
                                                 SliceId j) const noexcept {
    assert(0 <= i && i <= j && j < t_);
    return row_offset(i) + static_cast<std::size_t>(j - i);
  }

 private:
  std::int32_t t_ = 0;
  std::int32_t cap_ = 0;
  std::int32_t origin_ = 0;
};

/// Moves `node_count` consecutive packed triangles (each cell `lanes`
/// consecutive elements) from layout `from` to layout `to` across a window
/// change that dropped `shift` leading columns: window cell (i, j) of `to`
/// takes the bit-exact value of window cell (i + shift, j + shift) of
/// `from`.  Cells with no old counterpart keep unspecified values and MUST
/// be covered by the caller's dirty-column recomputation.  Returns the
/// number of (node, cell) positions moved:
///   * 0 when `to` is `from` with the origin advanced by `shift` — a slide
///     into free capacity touches no cell;
///   * in place (ascending memmoves, no allocation) when the capacity is
///     unchanged — a compaction.  Safe because every destination row starts
///     at or before its source and ends before the next row's source
///     (window rows are at most C - origin - i cells long);
///   * through a fresh buffer otherwise (a re-layout for a changed |T|).
template <typename Vec>
std::size_t relocate_triangles(Vec& buf, const TriangularIndex& from,
                               const TriangularIndex& to, std::int32_t shift,
                               std::size_t lanes, std::size_t node_count) {
  if (buf.empty()) return 0;
  if (to.capacity() == from.capacity() &&
      to.origin() == from.origin() + shift) {
    return 0;
  }
  using T = typename Vec::value_type;
  const SliceId keep = std::min(to.slices(), from.slices() - shift);
  const bool in_place = to.size() == from.size();
  assert(!in_place || to.origin() <= from.origin() + shift);
  Vec fresh;
  if (!in_place) fresh = Vec(node_count * to.size() * lanes);
  T* dst_base = in_place ? buf.data() : fresh.data();
  std::size_t moved = 0;
  for (std::size_t node = 0; node < node_count; ++node) {
    const T* src = buf.data() + node * from.size() * lanes;
    T* dst = dst_base + node * to.size() * lanes;
    for (SliceId i = 0; i < keep; ++i) {
      const auto cells = static_cast<std::size_t>(keep - i);
      std::memmove(dst + to.row_offset(i) * lanes,
                   src + from.row_offset(i + shift) * lanes,
                   cells * lanes * sizeof(T));
      moved += cells;
    }
  }
  if (!in_place) buf = std::move(fresh);
  return moved;
}

}  // namespace stagg
