// DataCube: the aggregation algorithms' input (paper §III-E "Data Input").
//
// For every hierarchy node S_k, state x and slice t the cube holds the
// leaf-additive per-slice sums
//   sum_d(S_k, t, x)       = sum over leaves of d_x(s,t)
//   sum_rho(S_k, t, x)     = sum over leaves of rho_x(s,t)
//   sum_rho_log(S_k, t, x) = sum over leaves of rho_x(s,t) log2 rho_x(s,t)
// — exactly the intermediary data listed by the paper.  The cube is computed
// in O(|S| |T| |X|) bottom-up and is p-independent: every aggregation run
// (any algorithm, any p) shares it.
//
// Translation-invariant accumulation contract (what the incremental
// re-aggregation subsystem rests on): the cube stores *per-slice* triplets,
// and every interval sum over T_(i,j) is accumulated per state from slice j
// DOWN to slice i, with the interval duration taken exactly from the
// integer time grid.  A cell's value is therefore a pure function of the
// per-slice data inside its interval — independent of the window it is
// embedded in — so
//   * sliding the window by k slices maps cell (i, j) of the new window to
//     cell (i+k, j+k) of the old one *bit-identically* (uniform-dt grids),
//   * appending or rewriting a time suffix leaves every cell with j below
//     the first dirty slice bit-identical, and
//   * the cells of one triangle column j are produced by a single
//     descending accumulation (measures_column_into) in O(1) amortized per
//     cell — the unit of incremental recomputation.
// Each slice column is independent of every other (no cross-slice prefix),
// which is what makes recompute_slices / reshape_slices exact.
//
// Window layout: the per-slice rows live in a buffer of `capacity` >= |T|
// rows addressed through an origin (window slice t = stored row
// origin + t).  An offline cube has capacity |T| and origin 0; a sliding
// session's cube carries window_slack(|T|) spare rows (core/interval.hpp),
// so a slide moves the origin and the appended columns land in free rows —
// no allocation, no copy of a surviving column.  Every accessor works on
// the contiguous window rows, so no kernel pays a per-element index
// translation.
#pragma once

#include <cstdint>
#include <span>

#include "common/simd.hpp"
#include "core/interval.hpp"
#include "metrics/information.hpp"
#include "model/microscopic_model.hpp"

namespace stagg {

class ShardPlan;

class DataCube {
 public:
  /// Builds the cube from a microscopic model (parallel over leaves, then a
  /// per-slice bottom-up merge over internal nodes).  With a shard plan
  /// (hierarchy/shard_plan.hpp) the internal-node merge is partitioned:
  /// each shard folds its owned subtree bottom-up in parallel, then a
  /// serial pass folds the per-shard partials up the spine.  Per-node
  /// operations and child order are unchanged, so the partitioned fold is
  /// bit-identical to the serial one at every shard count.  A plan built
  /// for a different hierarchy (a scoped session) is ignored.
  /// `capacity` is the number of stored slice rows (origin 0); a value
  /// below the model's slice count means exactly |T| (the offline layout).
  explicit DataCube(const MicroscopicModel& model,
                    const ShardPlan* plan = nullptr,
                    std::int32_t capacity = 0);

  [[nodiscard]] const MicroscopicModel& model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const Hierarchy& hierarchy() const noexcept {
    return model_->hierarchy();
  }
  [[nodiscard]] std::int32_t slice_count() const noexcept { return n_t_; }
  [[nodiscard]] std::int32_t state_count() const noexcept { return n_x_; }

  /// Total duration (seconds) of slices [i, j]: the exact integer span of
  /// the grid converted once — bit-identical for any two windows whose
  /// slices [i, j] cover intervals of equal width.
  [[nodiscard]] double interval_duration_s(SliceId i, SliceId j) const noexcept {
    return model_->grid().interval_duration_s(i, j);
  }

  /// Additive sums of state x over area (node, T_(i,j)), accumulated in the
  /// canonical descending-slice order (t = j down to i).
  [[nodiscard]] StateAreaSums sums(NodeId node, SliceId i, SliceId j,
                                   StateId x) const noexcept {
    const std::size_t row = static_cast<std::size_t>(n_x_);
    const double* pd = plane(node, kSumD) + static_cast<std::size_t>(x);
    const double* pr = plane(node, kSumRho) + static_cast<std::size_t>(x);
    const double* pl = plane(node, kSumRhoLog) + static_cast<std::size_t>(x);
    StateAreaSums s;
    for (SliceId t = j; t >= i; --t) {
      const std::size_t off = static_cast<std::size_t>(t) * row;
      s.sum_d += pd[off];
      s.sum_rho += pr[off];
      s.sum_rho_log += pl[off];
    }
    return s;
  }

  /// rho_x(S_k, T_(i,j)) per Eq. 1.
  [[nodiscard]] double aggregated_proportion(NodeId node, SliceId i, SliceId j,
                                             StateId x) const noexcept {
    const auto s = sums(node, i, j, x);
    return stagg::aggregated_proportion(
        s.sum_d, static_cast<double>(hierarchy().node(node).leaf_count),
        interval_duration_s(i, j));
  }

  /// Gain and loss of the area, summed over all states (Eq. 2 + 3).
  [[nodiscard]] AreaMeasures measures(NodeId node, SliceId i,
                                      SliceId j) const noexcept;

  /// Bulk variant: fills `out[i] = measures(node, i, j)` for every
  /// i in [0, j] — one triangle *column* per call, produced by a single
  /// descending accumulation per state (O(1) amortized per cell, same
  /// per-cell operation order as measures(), so results are bit-identical).
  /// This is the MeasureCache builder's hot path and the unit of dirty-
  /// column recomputation.  `out.size()` must be exactly j + 1.
  void measures_column_into(NodeId node, SliceId j,
                            std::span<AreaMeasures> out) const noexcept;

  /// Scalar twin of measures_column_into: the original per-state descending
  /// accumulation (x outer, i inner), one state_area_measures call per
  /// cell, no vector wrappers and no shared log2.  This is the equivalence
  /// oracle for the vectorized column kernel — MeasureCache::audit and
  /// tests/test_simd.cpp pin measures_column_into against it bit-for-bit —
  /// and the timing baseline bench_simd reports speedup against.
  void measures_column_reference_into(NodeId node, SliceId j,
                                      std::span<AreaMeasures> out)
      const noexcept;

  /// Gain/loss of the area for one state.
  [[nodiscard]] AreaMeasures state_measures(NodeId node, SliceId i, SliceId j,
                                            StateId x) const noexcept;

  /// Measures of the full aggregation (root, whole window); the
  /// normalization reference of PartitionQuality.
  [[nodiscard]] AreaMeasures root_measures() const {
    return measures(hierarchy().root(), 0, n_t_ - 1);
  }

  /// Mode state of an area: argmax_x rho_x, with its proportion and the sum
  /// of all state proportions (used by the visualization's alpha channel).
  struct Mode {
    StateId state = kNoState;
    double proportion = 0.0;
    double proportion_sum = 0.0;
  };
  [[nodiscard]] Mode mode(NodeId node, SliceId i, SliceId j) const noexcept;

  // -------------------------------------------------------------------------
  // Incremental window maintenance (the model must be updated *first*; the
  // session layer orders the calls).
  // -------------------------------------------------------------------------

  /// Follows a window change into `layout` (the slice count, row capacity
  /// and origin the aggregator chose for every derived structure; see
  /// relocate_triangles in core/interval.hpp): new column t takes the
  /// bit-exact contents of old column t + src_shift, and columns with no
  /// old counterpart hold unspecified values until recompute_slices fills
  /// them.  `layout.slices()` must equal the (already updated) model's
  /// slice count.  At an unchanged capacity this is an origin move
  /// (nothing copied) or an in-place compaction; a changed capacity
  /// re-lays out into a fresh buffer.  Returns the number of (node, slice)
  /// columns moved.
  std::size_t reshape_slices(const TriangularIndex& layout,
                             std::int32_t src_shift);

  /// Recomputes every per-slice column t >= first_dirty from the model:
  /// parallel leaf fill, then the same per-slice bottom-up child merge (in
  /// child order) as the full build — fresh and incremental columns are
  /// bit-identical by construction.
  void recompute_slices(SliceId first_dirty, bool parallel = true);

  /// Structural audit: throws ContractError (common/contract.hpp) when the
  /// cube violates its own accumulation contract — shape out of step with
  /// the model (slice/state counts, node stride), a non-finite entry, or an
  /// internal node whose per-slice triplets are not the bit-exact child-
  /// order sum of its children's (the leaf-additivity the whole incremental
  /// subsystem rests on).  O(|S| |T| |X|); called at stage boundaries by
  /// STAGG_AUDIT in audit builds, callable directly by tests in any build.
  void audit() const;

  /// Bytes held by the cube (spare rows included).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return data_.size() * sizeof(double);
  }

 private:
  // Layout: per node, three PLANES {sum_d, sum_rho, sum_rho_log}, each a
  // cap_ x n_x_ row-major matrix (slice rows, states contiguous) whose
  // window rows are [origin_, origin_ + n_t_).  Plane stride =
  // cap_ * n_x_, node stride = 3 * cap_ * n_x_.  States being
  // adjacent is what lets the column kernel and the bottom-up merge run
  // f64x4 loads across the |X| dimension (independent per-state chains)
  // without touching any chain's accumulation order.
  static constexpr std::size_t kSumD = 0;
  static constexpr std::size_t kSumRho = 1;
  static constexpr std::size_t kSumRhoLog = 2;

  [[nodiscard]] std::size_t plane_stride() const noexcept {
    return static_cast<std::size_t>(cap_) * static_cast<std::size_t>(n_x_);
  }
  /// Window row 0 of one plane: window slice t is row t from here.
  [[nodiscard]] const double* plane(NodeId node, std::size_t p) const noexcept {
    return data_.data() +
           (static_cast<std::size_t>(node) * 3 + p) * plane_stride() +
           static_cast<std::size_t>(origin_) * static_cast<std::size_t>(n_x_);
  }
  [[nodiscard]] double* plane_mut(NodeId node, std::size_t p) noexcept {
    return const_cast<double*>(plane(node, p));
  }

  /// One internal-node accumulation pass restricted to `nodes` (a
  /// post-order-consistent subset) over slice columns [first_dirty, n_t_).
  void accumulate_nodes(std::span<const NodeId> nodes, SliceId first_dirty);

  const MicroscopicModel* model_;
  /// Subtree partition driving the parallel fold; nullptr = serial merge.
  const ShardPlan* plan_ = nullptr;
  std::int32_t n_t_ = 0;
  std::int32_t n_x_ = 0;
  std::int32_t cap_ = 0;     ///< stored slice rows per plane
  std::int32_t origin_ = 0;  ///< stored row of window slice 0
  /// 64-byte aligned so f64x4 plane accesses never split a cache line.
  simd::AlignedVec<double> data_;
};

}  // namespace stagg
