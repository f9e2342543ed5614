#include "core/measure_cache.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "hierarchy/shard_plan.hpp"

namespace stagg {

namespace {

// Scatters one computed triangle column into the row-major packed layout.
// The column buffer holds cells (0..j, j); cell (i, j) lands at
// tri(i, j) = row_offset(i) + (j - i) — origin-addressed rows keep this a
// plain offset walk, with no per-cell index wrap.
inline void scatter_column(AreaMeasures* node_cells, const TriangularIndex& tri,
                           SliceId j, std::span<const AreaMeasures> col) {
  for (SliceId i = 0; i <= j; ++i) {
    node_cells[tri(i, j)] = col[static_cast<std::size_t>(i)];
  }
}

}  // namespace

void MeasureCache::fill_columns(const DataCube& cube, SliceId first_dirty,
                                bool parallel, const ShardPlan* plan) {
  const std::size_t node_count = cube.hierarchy().node_count();
  const auto n_t = cube.slice_count();
  const auto dirty_cols = static_cast<std::size_t>(n_t - first_dirty);
  if (plan != nullptr && plan->hierarchy() != &cube.hierarchy()) {
    plan = nullptr;  // scoped-session cube; the flat schedule is identical
  }
  // Per-shard schedule: tasks walk a node order of shard 0's owned nodes,
  // then shard 1's, ..., then the spine, with one whole node per grain —
  // every worker stays inside one shard's cube stripes and seal-adjacent
  // cache lines.  The flat schedule keeps the historical (node-id, grain 4)
  // order.  Either way each (node, column) writes a disjoint cell set, so
  // scheduling never changes a value.
  std::vector<NodeId> order;
  if (plan != nullptr) {
    order.reserve(node_count);
    for (std::size_t k = 0; k < plan->shard_count(); ++k) {
      const auto owned = plan->owned_nodes(k);
      order.insert(order.end(), owned.begin(), owned.end());
    }
    const auto spine = plan->spine_nodes();
    order.insert(order.end(), spine.begin(), spine.end());
  }
  // One task per (node, dirty column j): columns write disjoint cell sets
  // and each is one descending accumulation over the cube's per-slice
  // data, so the fill parallelizes without synchronization and recomputing
  // a column is bit-identical to producing it in a full build.
  const std::size_t tasks = node_count * dirty_cols;
  const auto fill_col = [&](std::size_t task) {
    const std::size_t slot = task / dirty_cols;
    const auto node =
        plan != nullptr ? order[slot] : static_cast<NodeId>(slot);
    const auto j =
        static_cast<SliceId>(first_dirty + static_cast<SliceId>(task % dirty_cols));
    thread_local std::vector<AreaMeasures> col;
    col.resize(static_cast<std::size_t>(j) + 1);
    cube.measures_column_into(node, j, col);
    scatter_column(data_.data() + static_cast<std::size_t>(node) * tri_.size(),
                   tri_, j, col);
  };
  if (parallel && tasks > 1) {
    const std::size_t grain = plan != nullptr ? std::max<std::size_t>(
                                                    dirty_cols, 1)
                                              : 4;
    parallel_for(tasks, fill_col, grain);
  } else {
    for (std::size_t task = 0; task < tasks; ++task) fill_col(task);
  }
}

void MeasureCache::build(const DataCube& cube, bool parallel,
                         const ShardPlan* plan) {
  build(cube, TriangularIndex(cube.slice_count()), parallel, plan);
}

void MeasureCache::build(const DataCube& cube, const TriangularIndex& layout,
                         bool parallel, const ShardPlan* plan) {
  if (layout.slices() != cube.slice_count()) {
    throw InvalidArgument(
        "MeasureCache::build: layout spans a different slice count");
  }
  const std::size_t node_count = cube.hierarchy().node_count();
  tri_ = layout;
  data_.resize(node_count * tri_.size());
  fill_columns(cube, 0, parallel, plan);
  STAGG_AUDIT(audit(cube));
}

std::size_t MeasureCache::reshape(const TriangularIndex& layout,
                                  std::int32_t src_shift) {
  if (layout.slices() < 1 || src_shift < 0) {
    throw InvalidArgument("MeasureCache::reshape: invalid window delta");
  }
  // New cell (i, j) is old cell (i + k, j + k): with the translation-
  // invariant measure convention the values are bit-identical.  Cells
  // without an old counterpart hold unspecified values — the caller must
  // update() with first_dirty covering exactly those cells.
  const std::size_t moved =
      built() ? relocate_triangles(data_, tri_, layout, src_shift,
                                   /*lanes=*/1, data_.size() / tri_.size())
              : 0;
  tri_ = layout;
  return moved;
}

void MeasureCache::update(const DataCube& cube, SliceId first_dirty,
                          bool parallel, const ShardPlan* plan) {
  if (!built()) return;
  if (cube.slice_count() != tri_.slices()) {
    throw InvalidArgument(
        "MeasureCache::update: reshape to the cube's slice count first");
  }
  first_dirty = std::clamp<SliceId>(first_dirty, 0, tri_.slices());
  if (first_dirty >= tri_.slices()) return;
  fill_columns(cube, first_dirty, parallel, plan);
  STAGG_AUDIT(audit(cube));
}

void MeasureCache::audit(const DataCube& cube) const {
  if (!built()) return;
  const auto fail = [](const std::string& what) {
    throw ContractError("MeasureCache::audit: " + what);
  };
  const std::size_t node_count = cube.hierarchy().node_count();
  if (tri_.slices() != cube.slice_count()) {
    fail("triangle spans " + std::to_string(tri_.slices()) +
         " slices but the cube holds " + std::to_string(cube.slice_count()));
  }
  if (data_.size() != node_count * tri_.size()) {
    fail("storage holds " + std::to_string(data_.size()) + " cells for " +
         std::to_string(node_count) + " nodes of " +
         std::to_string(tri_.size()));
  }
  // Recompute columns through the cube's SCALAR column twin
  // (measures_column_reference_into): the cube's accumulation contract
  // makes it bit-identical to the vectorized bulk fill the build uses, so
  // this doubles as a cross-check of the f64x4 column kernel on every
  // audited build.  Small triangles are rechecked in full; larger ones at
  // the first, middle and last columns per node (origin and compaction bugs
  // corrupt whole columns, not single cells).
  const SliceId slices = tri_.slices();
  std::vector<SliceId> cols;
  if (tri_.window_cells() <= 4096) {
    for (SliceId j = 0; j < slices; ++j) cols.push_back(j);
  } else {
    cols = {0, static_cast<SliceId>(slices / 2),
            static_cast<SliceId>(slices - 1)};
  }
  std::vector<AreaMeasures> scratch;
  for (std::size_t ni = 0; ni < node_count; ++ni) {
    const NodeId node = static_cast<NodeId>(ni);
    for (const SliceId j : cols) {
      scratch.assign(static_cast<std::size_t>(j) + 1, AreaMeasures{});
      cube.measures_column_reference_into(node, j, scratch);
      for (SliceId i = 0; i <= j; ++i) {
        const AreaMeasures& got = at(node, i, j);
        const AreaMeasures& want = scratch[static_cast<std::size_t>(i)];
        if (got.gain != want.gain || got.loss != want.loss) {
          fail("node " + std::to_string(node) + " cell (" +
               std::to_string(i) + ", " + std::to_string(j) +
               ") is not bit-identical to the cube's recomputation");
        }
      }
    }
  }
}

}  // namespace stagg
