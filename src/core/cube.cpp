#include "core/cube.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "hierarchy/shard_plan.hpp"

namespace stagg {

DataCube::DataCube(const MicroscopicModel& model, const ShardPlan* plan,
                   std::int32_t capacity)
    : model_(&model),
      n_t_(model.slice_count()),
      n_x_(model.state_count()),
      cap_(std::max(capacity, model.slice_count())) {
  const Hierarchy& h = model.hierarchy();
  // A plan partitions one specific hierarchy; a cube over any other (a
  // scoped session's sub-hierarchy) falls back to the serial merge —
  // silently, because the fall-back is bit-identical by contract.
  if (plan != nullptr && plan->hierarchy() == &h) plan_ = plan;
  data_.assign(h.node_count() * 3 * plane_stride(), 0.0);
  recompute_slices(0);
}

void DataCube::recompute_slices(SliceId first_dirty, bool parallel) {
  const Hierarchy& h = model_->hierarchy();
  first_dirty = std::clamp<SliceId>(first_dirty, 0, n_t_);
  if (first_dirty >= n_t_) return;

  // Leaves first (parallel: disjoint output stripes).  Every slice column
  // is a pure per-slice function of the model — no cross-slice
  // accumulation — so recomputing a suffix of columns is exactly the
  // operation the full build performs on them.
  const auto& leaves = h.leaves();
  const std::size_t row = static_cast<std::size_t>(n_x_);
  const auto fill_leaf = [&](std::size_t li) {
    const LeafId s = static_cast<LeafId>(li);
    const NodeId node = leaves[li];
    double* pd = plane_mut(node, kSumD);
    double* pr = plane_mut(node, kSumRho);
    double* pl = plane_mut(node, kSumRhoLog);
    for (SliceId t = first_dirty; t < n_t_; ++t) {
      const double dt_s = model_->grid().slice_duration_s(t);
      const std::size_t off = static_cast<std::size_t>(t) * row;
      for (StateId x = 0; x < n_x_; ++x) {
        const double d = model_->duration(s, t, x);
        const double rho = d / dt_s;
        const std::size_t k = off + static_cast<std::size_t>(x);
        pd[k] = d;
        pr[k] = rho;
        pl[k] = xlog2x(rho);
      }
    }
  };
  if (parallel) {
    parallel_for(leaves.size(), fill_leaf, /*grain=*/8);
  } else {
    for (std::size_t li = 0; li < leaves.size(); ++li) fill_leaf(li);
  }

  // Internal nodes: children precede parents in post-order, so one pass
  // accumulates per-slice triplets bottom-up.  Children are merged in
  // child order per slice — the same addition order as the full build.
  //
  // With a shard plan the pass is partitioned: each shard folds its owned
  // nodes (a post-order-closed subtree set — an owned node's children are
  // owned by the same shard, so shard tasks touch disjoint node stripes
  // and read only within their shard), then a serial pass folds the spine,
  // whose children are all complete by the barrier.  Node visit operations
  // are identical, so the partial-fold result is bit-identical.
  if (plan_ != nullptr && parallel) {
    parallel_for(
        plan_->shard_count(),
        [&](std::size_t k) {
          accumulate_nodes(plan_->owned_nodes(k), first_dirty);
        },
        /*grain=*/1);
    accumulate_nodes(plan_->spine_nodes(), first_dirty);
  } else {
    accumulate_nodes(h.post_order(), first_dirty);
  }
  STAGG_AUDIT(audit());
}

void DataCube::accumulate_nodes(std::span<const NodeId> nodes,
                                SliceId first_dirty) {
  const Hierarchy& h = model_->hierarchy();
  // Per plane, the dirty region is the contiguous row suffix
  // [first_dirty * n_x, n_t * n_x).  Element k of that region is one
  // (slice, state) accumulation chain: chains are merged child-by-child in
  // child order exactly as before, and distinct k are independent, so the
  // f64x4 blocks below vectorize ACROSS chains without reordering any.
  const std::size_t row = static_cast<std::size_t>(n_x_);
  const std::size_t lo = static_cast<std::size_t>(first_dirty) * row;
  const std::size_t hi = static_cast<std::size_t>(n_t_) * row;
  const std::size_t vec_end = lo + ((hi - lo) / 4) * 4;
  for (NodeId id : nodes) {
    const auto& n = h.node(id);
    if (n.children.empty()) continue;
    for (std::size_t p = 0; p < 3; ++p) {
      double* dst = plane_mut(id, p);
      std::fill(dst + lo, dst + hi, 0.0);
    }
    for (NodeId child : n.children) {
      for (std::size_t p = 0; p < 3; ++p) {
        double* dst = plane_mut(id, p);
        const double* src = plane(child, p);
        std::size_t k = lo;
        for (; k < vec_end; k += 4) {
          (simd::f64x4::load(dst + k) + simd::f64x4::load(src + k))
              .store(dst + k);
        }
        for (; k < hi; ++k) dst[k] += src[k];
      }
    }
  }
}

void DataCube::audit() const {
  const auto fail = [](const std::string& what) {
    throw ContractError("DataCube::audit: " + what);
  };
  const Hierarchy& h = hierarchy();
  if (n_t_ != model_->slice_count() || n_x_ != model_->state_count()) {
    fail("cube shape " + std::to_string(n_x_) + "x" + std::to_string(n_t_) +
         " out of step with the model's " +
         std::to_string(model_->state_count()) + "x" +
         std::to_string(model_->slice_count()));
  }
  const std::size_t node_stride = 3 * plane_stride();
  if (data_.size() != h.node_count() * node_stride) {
    fail("storage holds " + std::to_string(data_.size()) +
         " doubles for " + std::to_string(h.node_count()) + " nodes of " +
         std::to_string(node_stride));
  }
  // Only the window rows are checked: spare rows hold stale columns.
  const std::size_t window = static_cast<std::size_t>(n_t_) *
                             static_cast<std::size_t>(n_x_);
  for (std::size_t ni = 0; ni < h.node_count(); ++ni) {
    for (std::size_t p = 0; p < 3; ++p) {
      const double* entries = plane(static_cast<NodeId>(ni), p);
      for (std::size_t k = 0; k < window; ++k) {
        if (!std::isfinite(entries[k])) {
          fail("node " + std::to_string(ni) + " plane " + std::to_string(p) +
               " has a non-finite entry at window index " +
               std::to_string(k));
        }
      }
    }
  }
  // Leaf-additivity, bit-exact: the build merges children in child order
  // starting from zero, so re-summing in that order must reproduce every
  // internal entry to the last bit (this also cross-checks the vectorized
  // merge in accumulate_nodes against a plain scalar re-sum).
  for (std::size_t ni = 0; ni < h.node_count(); ++ni) {
    const NodeId id = static_cast<NodeId>(ni);
    const auto& n = h.node(id);
    if (n.children.empty()) continue;
    for (std::size_t p = 0; p < 3; ++p) {
      const double* parent = plane(id, p);
      for (std::size_t k = 0; k < window; ++k) {
        double acc = 0.0;
        for (NodeId child : n.children) acc += plane(child, p)[k];
        if (parent[k] != acc) {
          fail("node " + std::to_string(id) + " plane " + std::to_string(p) +
               " entry " + std::to_string(k) +
               " is not the child-order sum of its children");
        }
      }
    }
  }
}

std::size_t DataCube::reshape_slices(const TriangularIndex& layout,
                                     std::int32_t src_shift) {
  const std::int32_t new_count = layout.slices();
  if (new_count < 1 || src_shift < 0) {
    throw InvalidArgument("DataCube::reshape_slices: invalid window delta");
  }
  if (new_count != model_->slice_count()) {
    throw InvalidArgument(
        "DataCube::reshape_slices: model window must be updated first");
  }
  const Hierarchy& h = model_->hierarchy();
  const std::size_t row = static_cast<std::size_t>(n_x_);
  // One stripe per (node, plane): a cap x n_x row-major matrix whose slice
  // rows are contiguous, so the surviving column run is one memmove.
  const std::size_t stripes = h.node_count() * 3;
  const SliceId keep = std::max<SliceId>(0, std::min(new_count,
                                                     n_t_ - src_shift));
  const std::size_t run = static_cast<std::size_t>(keep) * row;
  const std::size_t src_row = static_cast<std::size_t>(origin_ + src_shift);
  const std::size_t dst_row = static_cast<std::size_t>(layout.origin());
  const std::size_t moved = h.node_count() * static_cast<std::size_t>(keep);
  if (layout.capacity() == cap_) {
    n_t_ = new_count;
    if (dst_row == src_row) {  // slide into spare rows
      origin_ = layout.origin();
      return 0;
    }
    // Compaction: destinations precede their sources, so one memmove per
    // stripe is safe in place.
    for (std::size_t stripe = 0; run > 0 && stripe < stripes; ++stripe) {
      double* base = data_.data() + stripe * plane_stride();
      std::memmove(base + dst_row * row, base + src_row * row,
                   run * sizeof(double));
    }
    origin_ = layout.origin();
    return moved;
  }
  // Re-layout for a changed capacity: the surviving run of each stripe
  // lands at the new origin of a fresh buffer, the rest of the stripe is
  // zeroed (every element written once).
  const std::size_t new_stride =
      static_cast<std::size_t>(layout.capacity()) * row;
  simd::AlignedVec<double> next;
  next.reserve(stripes * new_stride);
  for (std::size_t stripe = 0; stripe < stripes; ++stripe) {
    next.resize(next.size() + dst_row * row);
    if (run > 0) {
      const double* src =
          data_.data() + stripe * plane_stride() + src_row * row;
      next.insert(next.end(), src, src + run);
    }
    next.resize((stripe + 1) * new_stride);
  }
  data_ = std::move(next);
  n_t_ = new_count;
  cap_ = layout.capacity();
  origin_ = layout.origin();
  return moved;
}

namespace {

// The per-state gain/loss of one area.  Every path that produces measures
// — state_measures, measures, the measures_column_into bulk fill — must
// perform the exact floating-point operations of this helper in the same
// order: the MeasureCache's bit-identity contract with direct
// recomputation rests on it.
inline AreaMeasures state_area_measures(const StateAreaSums& s, double leaves,
                                        double dur, double cells) noexcept {
  const double rho_agg = aggregated_proportion(s.sum_d, leaves, dur);
  return AreaMeasures{state_gain(s, rho_agg, cells),
                      state_loss(s, rho_agg, cells)};
}

// Fused variant computing log2(rho_agg) ONCE and feeding it to both
// measures.  Bit-identical to state_area_measures by construction:
// state_gain's xlog2x(rho_agg) is literally rho_agg * std::log2(rho_agg)
// for rho_agg > 0 and 0.0 otherwise, and state_loss's safe_log2(rho_agg)
// is the same std::log2(rho_agg) (the rho_agg <= 0 early-out makes its
// guarded branch unreachable) — so `lg` substitutes into both without
// changing a single operation.  The column kernel uses this to halve the
// transcendental cost per (slice, state) cell; MeasureCache::audit and
// tests/test_simd.cpp pin the equivalence against the unfused helper.
inline AreaMeasures state_area_measures_fused(const StateAreaSums& s,
                                              double leaves, double dur,
                                              double cells) noexcept {
  const double rho_agg = aggregated_proportion(s.sum_d, leaves, dur);
  const double floor = measure_noise_floor(cells);
  if (rho_agg <= 0.0) {
    double gain = 0.0 - s.sum_rho_log;
    if (cells > 0.0 && std::abs(gain) < floor) gain = 0.0;
    return AreaMeasures{gain, 0.0};
  }
  const double lg = std::log2(rho_agg);
  double gain = rho_agg * lg - s.sum_rho_log;
  double loss = s.sum_rho_log - s.sum_rho * lg;
  if (cells > 0.0 && std::abs(gain) < floor) gain = 0.0;
  if (cells > 0.0 && std::abs(loss) < floor) loss = 0.0;
  return AreaMeasures{gain, loss};
}

}  // namespace

AreaMeasures DataCube::state_measures(NodeId node, SliceId i, SliceId j,
                                      StateId x) const noexcept {
  const double leaves =
      static_cast<double>(hierarchy().node(node).leaf_count);
  return state_area_measures(sums(node, i, j, x), leaves,
                             interval_duration_s(i, j),
                             leaves * static_cast<double>(j - i + 1));
}

AreaMeasures DataCube::measures(NodeId node, SliceId i,
                                SliceId j) const noexcept {
  const double leaves =
      static_cast<double>(hierarchy().node(node).leaf_count);
  const double dur = interval_duration_s(i, j);
  const double cells = leaves * static_cast<double>(j - i + 1);
  AreaMeasures m;
  for (StateId x = 0; x < n_x_; ++x) {
    const AreaMeasures sm =
        state_area_measures(sums(node, i, j, x), leaves, dur, cells);
    m.gain += sm.gain;
    m.loss += sm.loss;
  }
  return m;
}

void DataCube::measures_column_into(NodeId node, SliceId j,
                                    std::span<AreaMeasures> out) const noexcept {
  assert(out.size() == static_cast<std::size_t>(j) + 1);
  const double leaves =
      static_cast<double>(hierarchy().node(node).leaf_count);
  const std::size_t row = static_cast<std::size_t>(n_x_);
  const double* pd = plane(node, kSumD);
  const double* pr = plane(node, kSumRho);
  const double* pl = plane(node, kSumRhoLog);
  const TimeGrid& grid = model_->grid();
  const TimeNs col_end = grid.slice_end(j);
  // Per-state running sums over the descending slice walk.  Each state's
  // chain keeps the canonical j-down-to-i addition order; the f64x4
  // blocks only batch INDEPENDENT state chains, so every chain is
  // bit-identical to the scalar twin below.  thread_local because the
  // MeasureCache build runs one column task per (node, j) across the pool.
  thread_local simd::AlignedVec<double> sd, sr, sl;
  sd.assign(row, 0.0);
  sr.assign(row, 0.0);
  sl.assign(row, 0.0);
  const std::size_t vec_end = (row / 4) * 4;
  for (SliceId i = j; i >= 0; --i) {
    const std::size_t off = static_cast<std::size_t>(i) * row;
    std::size_t x = 0;
    for (; x < vec_end; x += 4) {
      (simd::f64x4::load(sd.data() + x) + simd::f64x4::load(pd + off + x))
          .store(sd.data() + x);
      (simd::f64x4::load(sr.data() + x) + simd::f64x4::load(pr + off + x))
          .store(sr.data() + x);
      (simd::f64x4::load(sl.data() + x) + simd::f64x4::load(pl + off + x))
          .store(sl.data() + x);
    }
    for (; x < row; ++x) {
      sd[x] += pd[off + x];
      sr[x] += pr[off + x];
      sl[x] += pl[off + x];
    }
    const double dur = to_seconds(col_end - grid.slice_begin(i));
    const double cells = leaves * static_cast<double>(j - i + 1);
    AreaMeasures m;
    for (std::size_t xs = 0; xs < row; ++xs) {
      const AreaMeasures sm = state_area_measures_fused(
          StateAreaSums{sd[xs], sr[xs], sl[xs]}, leaves, dur, cells);
      m.gain += sm.gain;
      m.loss += sm.loss;
    }
    out[static_cast<std::size_t>(i)] = m;
  }
}

void DataCube::measures_column_reference_into(
    NodeId node, SliceId j, std::span<AreaMeasures> out) const noexcept {
  assert(out.size() == static_cast<std::size_t>(j) + 1);
  const double leaves =
      static_cast<double>(hierarchy().node(node).leaf_count);
  const std::size_t row = static_cast<std::size_t>(n_x_);
  const double* pd = plane(node, kSumD);
  const double* pr = plane(node, kSumRho);
  const double* pl = plane(node, kSumRhoLog);
  std::fill(out.begin(), out.end(), AreaMeasures{});
  const TimeGrid& grid = model_->grid();
  const TimeNs col_end = grid.slice_end(j);
  for (StateId x = 0; x < n_x_; ++x) {
    StateAreaSums s;
    for (SliceId i = j; i >= 0; --i) {
      const std::size_t k =
          static_cast<std::size_t>(i) * row + static_cast<std::size_t>(x);
      s.sum_d += pd[k];
      s.sum_rho += pr[k];
      s.sum_rho_log += pl[k];
      const double dur = to_seconds(col_end - grid.slice_begin(i));
      const double cells = leaves * static_cast<double>(j - i + 1);
      const AreaMeasures sm = state_area_measures(s, leaves, dur, cells);
      AreaMeasures& m = out[static_cast<std::size_t>(i)];
      m.gain += sm.gain;
      m.loss += sm.loss;
    }
  }
}

DataCube::Mode DataCube::mode(NodeId node, SliceId i, SliceId j) const noexcept {
  Mode best;
  const double leaf_count =
      static_cast<double>(hierarchy().node(node).leaf_count);
  const double dur = interval_duration_s(i, j);
  const std::size_t row = static_cast<std::size_t>(n_x_);
  const double* pd = plane(node, kSumD);
  for (StateId x = 0; x < n_x_; ++x) {
    double sum_d = 0.0;
    for (SliceId t = j; t >= i; --t) {
      sum_d += pd[static_cast<std::size_t>(t) * row +
                  static_cast<std::size_t>(x)];
    }
    const double rho = stagg::aggregated_proportion(sum_d, leaf_count, dur);
    best.proportion_sum += rho;
    if (rho > best.proportion) {
      best.proportion = rho;
      best.state = x;
    }
  }
  return best;
}

}  // namespace stagg
