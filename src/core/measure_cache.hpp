// MeasureCache: precomputed per-area (gain, loss) for every DP cell.
//
// The gain and loss of an area (S_k, T_(i,j)) (Eq. 2 + 3) do not depend on
// the trade-off parameter p — only the linear combination pIC (Eq. 4) does.
// The spatiotemporal DP, however, evaluates the "no cut" term of every one
// of the |S|·|T|(|T|+1)/2 cells on *every* run(p), and each evaluation is an
// O(|X|) loop with two log2-heavy information terms per state.  A p-sweep
// (dichotomic level search, Ocelotl-style slider) therefore pays the most
// expensive part of the kernel over and over for identical results.
//
// This cache pays it exactly once: one parallel O(|S|·|T|²·|X|) build fills
// a packed upper-triangular (gain, loss) matrix per hierarchy node — the
// same TriangularIndex layout as the DP matrices — after which every
// run(p), evaluate() and baseline scoring is a pure multiply-add over the
// cached pairs.  Cells are produced column by column by
// DataCube::measures_column_into with the exact per-state accumulation
// order of DataCube::measures, so cached and recomputed values are
// bit-identical (the equivalence suite asserts this).
//
// Incremental maintenance: because cell values are translation-invariant
// (see cube.hpp), a window change decomposes into reshape() — new cell
// (i, j) takes old cell (i + k, j + k) — plus update(first_dirty), which
// recomputes only the triangle columns whose interval intersects the
// changed time suffix.  A sliding session's cache is origin-addressed over
// C = |T| + window_slack(|T|) columns (core/interval.hpp): a slide only
// moves the origin (no cell is touched), one in-place compaction runs when
// the origin reaches the end of the capacity, and only a changed |T|
// re-lays the cells out.  Recomputation is column-anchored (one descending
// accumulation per column), so update() costs the dirty cells, not |T|².
//
// Footprint: 2 doubles per storage cell = |S|·C(C+1)/2 · 16 bytes (C = |T|
// offline), folded into SpatiotemporalAggregator's memory-budget
// accounting.
//
// Layout contract (what the lane-batched DP kernel relies on): cells are
// node-major packed triangular rows, each cell one contiguous {gain, loss}
// pair of doubles with no padding — so the "no cut" term of a whole wave
// of p-lanes is fed by a single 16-byte load per cell, and a DP row scan
// streams the row's cells front to back.  The static_asserts below pin
// this down; node_row() exposes a row for such streaming reads.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "common/simd.hpp"
#include "core/cube.hpp"
#include "core/interval.hpp"

namespace stagg {

class ShardPlan;

static_assert(std::is_trivially_copyable_v<AreaMeasures> &&
                  sizeof(AreaMeasures) == 2 * sizeof(double),
              "MeasureCache cells must be bare {gain, loss} double pairs; "
              "the lane-batched DP reads them as one contiguous load");

class MeasureCache {
 public:
  MeasureCache() = default;

  /// Fills the cache from the cube: every (node, j) triangle column is an
  /// independent task, parallelized over the shared pool when `parallel`.
  /// With a shard plan the tasks are scheduled per shard — each shard's
  /// owned nodes fill as one contiguous node-per-task range (spine nodes
  /// last), keeping every worker inside one shard's cube stripes.  Cell
  /// values are untouched by the scheduling, so the per-shard build is
  /// bit-identical to the flat one.  A plan for a different hierarchy is
  /// ignored.
  void build(const DataCube& cube, bool parallel = true,
             const ShardPlan* plan = nullptr);
  /// build() into an explicit triangle layout (capacity and origin) over
  /// the cube's slice count.
  void build(const DataCube& cube, const TriangularIndex& layout,
             bool parallel, const ShardPlan* plan);

  /// Moves the triangle to `layout` for a changed window: new cell (i, j)
  /// takes the bit-exact value of old cell (i + src_shift, j + src_shift);
  /// cells with no old counterpart (appended columns) hold unspecified
  /// values and MUST be covered by the following update(first_dirty).
  /// Cost per relocate_triangles (core/interval.hpp): nothing for an
  /// origin move, one in-place pass for a compaction, a fresh buffer for a
  /// changed |T|.  Returns the number of (node, cell) positions moved; 0
  /// when not built (only the layout is recorded).
  std::size_t reshape(const TriangularIndex& layout, std::int32_t src_shift);

  /// Recomputes every triangle column j >= first_dirty from the (already
  /// updated) cube — the cells whose interval intersects a changed time
  /// suffix, O(|S|·(dirty cells)·|X|).  Requires reshape() to the cube's
  /// slice count first; no-op when not built.
  void update(const DataCube& cube, SliceId first_dirty, bool parallel = true,
              const ShardPlan* plan = nullptr);

  [[nodiscard]] bool built() const noexcept { return !data_.empty(); }

  /// Structural audit against the cube the cache claims to mirror: throws
  /// ContractError (common/contract.hpp) when the triangle shape disagrees
  /// with the cube's slice count, the storage size disagrees with the
  /// node count, or a cached column is not bit-identical to the cube's
  /// recomputation (full recheck for small triangles; first/middle/last
  /// columns per node otherwise — origin and compaction bugs corrupt whole
  /// columns, not single cells).  No-op when not built.  Called at stage
  /// boundaries by STAGG_AUDIT in audit builds; callable directly by tests
  /// in any build.
  void audit(const DataCube& cube) const;

  /// Releases the storage (built() becomes false).
  void clear() noexcept {
    data_.clear();
    data_.shrink_to_fit();
  }

  [[nodiscard]] const TriangularIndex& tri() const noexcept { return tri_; }

  /// Packed triangular (gain, loss) storage of one node, tri().size()
  /// cells; window cell (i, j) is at tri()(i, j).
  [[nodiscard]] const AreaMeasures* node_data(NodeId node) const noexcept {
    return data_.data() + static_cast<std::size_t>(node) * tri_.size();
  }
  [[nodiscard]] std::span<const AreaMeasures> node_measures(
      NodeId node) const noexcept {
    return {node_data(node), tri_.size()};
  }

  /// Row i of one node's triangle: the |T| - i cells (i, i..|T|-1),
  /// contiguous in memory — the stream a DP row scan (any lane width)
  /// walks front to back.
  [[nodiscard]] std::span<const AreaMeasures> node_row(
      NodeId node, SliceId i) const noexcept {
    return {node_data(node) + tri_.row_offset(i),
            static_cast<std::size_t>(tri_.slices() - i)};
  }

  /// Cached measures of area (node, T_(i,j)); bit-identical to
  /// DataCube::measures(node, i, j).
  [[nodiscard]] const AreaMeasures& at(NodeId node, SliceId i,
                                       SliceId j) const noexcept {
    return node_data(node)[tri_(i, j)];
  }

  /// Bytes the cache for `node_count` nodes occupies in a triangle over
  /// `capacity` columns (the slice count offline, |T| + window_slack(|T|)
  /// for a sliding session).
  [[nodiscard]] static std::size_t estimate_bytes(std::size_t node_count,
                                                  std::int32_t capacity) {
    return node_count * TriangularIndex(capacity).size() *
           sizeof(AreaMeasures);
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return data_.size() * sizeof(AreaMeasures);
  }

 private:
  /// Shared worker of build() and update(): computes and scatters every
  /// (node, column >= first_dirty) via DataCube::measures_column_into.
  void fill_columns(const DataCube& cube, SliceId first_dirty, bool parallel,
                    const ShardPlan* plan);

  TriangularIndex tri_;
  /// Node-major packed triangles; 64-byte aligned so the DP's
  /// 16-byte {gain, loss} loads and the f64x4 column writes never split a
  /// cache line.
  simd::AlignedVec<AreaMeasures> data_;
};

}  // namespace stagg
