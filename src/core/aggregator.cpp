#include "core/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace stagg {
SpatiotemporalAggregator::SpatiotemporalAggregator(
    const MicroscopicModel& model, AggregationOptions options)
    : SpatiotemporalAggregator(model, options, model.slice_count()) {}

SpatiotemporalAggregator SpatiotemporalAggregator::sliding_layout(
    const MicroscopicModel& model, AggregationOptions options) {
  const std::int32_t t = model.slice_count();
  return {model, options, t + window_slack(t)};
}

SpatiotemporalAggregator::SpatiotemporalAggregator(
    const MicroscopicModel& model, AggregationOptions options,
    std::int32_t capacity)
    : model_(&model),
      options_(options),
      cube_(model, options.shard_plan, capacity),
      tri_(model.slice_count(), capacity, 0) {
  options_.max_lanes = std::clamp<std::size_t>(options_.max_lanes, 1,
                                               kMaxDpLanes);
  const Hierarchy& h = model.hierarchy();
  levels_.resize(static_cast<std::size_t>(h.max_depth()) + 1);
  for (NodeId id = 0; id < static_cast<NodeId>(h.node_count()); ++id) {
    levels_[static_cast<std::size_t>(h.node(id).depth)].push_back(id);
  }
  pic_.resize(h.node_count());
  mirror_.resize(h.node_count());
  cmirror_.resize(h.node_count());
  cut_.resize(h.node_count());
  cnt_.resize(h.node_count());
}

std::size_t SpatiotemporalAggregator::estimate_bytes(std::size_t node_count,
                                                     std::int32_t slices,
                                                     std::size_t lanes) {
  const TriangularIndex tri(slices);
  // Per cell: per lane pIC (double) + column-major pIC mirror (double) +
  // column-major count mirror + cut + count (int32), plus the lane-shared
  // cached (gain, loss) pair.
  return node_count * tri.size() *
         (lanes * (2 * sizeof(double) + 3 * sizeof(std::int32_t)) +
          sizeof(AreaMeasures));
}

std::size_t SpatiotemporalAggregator::working_set_bytes(
    std::size_t lanes) const noexcept {
  return sliding() ? incremental_sweep_bytes(lanes, tri_) : wave_bytes(lanes);
}

std::size_t SpatiotemporalAggregator::wave_bytes(
    std::size_t lanes) const noexcept {
  const std::size_t cells = tri_.size();
  const std::size_t node_count = model_->hierarchy().node_count();
  if (options_.kernel == DpKernel::kReference) {
    // The original formulation: pIC + cut + count for every node (the
    // reference kernel never lanes).
    return node_count * cells * (sizeof(double) + 2 * sizeof(std::int32_t));
  }
  // pIC + count matrices live for two adjacent levels at a time (the arena
  // recycles grandchildren buffers); the column-major pIC and count
  // mirrors only for the level being computed; cut matrices for all
  // nodes.  All of these carry one value per lane; the shared measure
  // cache does not.
  std::size_t peak_per_cell = 0;
  for (std::size_t d = 0; d < levels_.size(); ++d) {
    const std::size_t two =
        levels_[d].size() + (d + 1 < levels_.size() ? levels_[d + 1].size() : 0);
    peak_per_cell = std::max(
        peak_per_cell,
        two * (sizeof(double) + sizeof(std::int32_t)) +
            levels_[d].size() * (sizeof(double) + sizeof(std::int32_t)));
  }
  return cells * lanes * (node_count * sizeof(std::int32_t) + peak_per_cell) +
         MeasureCache::estimate_bytes(node_count, tri_.capacity());
}

std::size_t SpatiotemporalAggregator::incremental_sweep_bytes(
    std::size_t lanes, const TriangularIndex& layout) const noexcept {
  // The retained pIC/count triangles are the sweep's own matrices (they
  // are charged by incremental_state_bytes); the sweep adds only the
  // column-major mirrors of the level being computed.
  std::size_t widest = 0;
  for (const auto& level : levels_) widest = std::max(widest, level.size());
  return layout.window_cells() * lanes * widest *
             (sizeof(double) + sizeof(std::int32_t)) +
         MeasureCache::estimate_bytes(model_->hierarchy().node_count(),
                                      layout.capacity());
}

void SpatiotemporalAggregator::check_p(double p) const {
  // Negated-range form so NaN (every comparison false) is rejected too.
  if (!(p >= 0.0 && p <= 1.0)) {
    throw InvalidArgument("aggregation parameter p must be in [0,1], got " +
                          std::to_string(p));
  }
}

void SpatiotemporalAggregator::check_budget(std::size_t lanes) const {
  const std::size_t need = wave_bytes(lanes);
  if (need > options_.memory_budget_bytes) {
    throw BudgetError("DP working set needs " + std::to_string(need) +
                      " bytes > budget " +
                      std::to_string(options_.memory_budget_bytes) +
                      "; reduce |T|, the lane width, or raise the budget");
  }
}

std::size_t SpatiotemporalAggregator::lane_width(
    std::size_t probe_count) const noexcept {
  return std::min({options_.max_lanes, kMaxDpLanes,
                   std::max<std::size_t>(probe_count, 1)});
}

void SpatiotemporalAggregator::ensure_measure_cache() {
  if (cache_.built()) return;
  Stopwatch watch;
  cache_.build(cube_, tri_, options_.parallel, options_.shard_plan);
  cache_build_seconds_ = watch.seconds();
}

AreaMeasures SpatiotemporalAggregator::area_measures(
    NodeId node, SliceId i, SliceId j) const noexcept {
  return cache_.built() ? cache_.at(node, i, j) : cube_.measures(node, i, j);
}

void SpatiotemporalAggregator::fill_quality(AggregationResult& result) const {
  const Hierarchy& h = model_->hierarchy();
  const AreaMeasures root = area_measures(h.root(), 0, tri_.slices() - 1);
  result.quality.area_count = result.partition.size();
  result.quality.microscopic_count =
      h.leaf_count() * static_cast<std::size_t>(tri_.slices());
  result.quality.gain = result.measures.gain;
  result.quality.loss = result.measures.loss;
  result.quality.max_gain = root.gain;
  result.quality.max_loss = root.loss;
}

// ---------------------------------------------------------------------------
// Buffer arena.
// ---------------------------------------------------------------------------

simd::AlignedVec<double> SpatiotemporalAggregator::acquire_dbl(
    std::size_t n) {
  if (!dbl_pool_.empty()) {
    simd::AlignedVec<double> buf = std::move(dbl_pool_.back());
    dbl_pool_.pop_back();
    buf.resize(n);
    return buf;
  }
  return simd::AlignedVec<double>(n);
}

simd::AlignedVec<std::int32_t> SpatiotemporalAggregator::acquire_i32(
    std::size_t n) {
  if (!i32_pool_.empty()) {
    simd::AlignedVec<std::int32_t> buf = std::move(i32_pool_.back());
    i32_pool_.pop_back();
    buf.resize(n);
    return buf;
  }
  return simd::AlignedVec<std::int32_t>(n);
}

void SpatiotemporalAggregator::release(simd::AlignedVec<double>&& buf) {
  // Moved-from (already released) vectors are empty; only pool live ones.
  if (!buf.empty()) dbl_pool_.push_back(std::move(buf));
}

void SpatiotemporalAggregator::release(simd::AlignedVec<std::int32_t>&& buf) {
  if (!buf.empty()) i32_pool_.push_back(std::move(buf));
}

// ---------------------------------------------------------------------------
// Traceback.
// ---------------------------------------------------------------------------

template <class CutOf>
void SpatiotemporalAggregator::extract_partition(Partition& out,
                                                 const CutOf& cut_of) const {
  const Hierarchy& h = model_->hierarchy();
  struct Item {
    NodeId node;
    SliceId i, j;
  };
  std::vector<Item> stack;
  stack.push_back({h.root(), 0, tri_.slices() - 1});
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    const std::int32_t cut = cut_of(it.node, it.i, it.j);
    if (cut == it.j) {
      out.add(it.node, it.i, it.j);
    } else if (cut == -1) {
      for (NodeId c : h.node(it.node).children) {
        stack.push_back({c, it.i, it.j});
      }
    } else {
      stack.push_back({it.node, it.i, static_cast<SliceId>(cut)});
      stack.push_back({it.node, static_cast<SliceId>(cut + 1), it.j});
    }
  }
}

// ---------------------------------------------------------------------------
// Cached lane kernel.
// ---------------------------------------------------------------------------

SpatiotemporalAggregator::LaneScan SpatiotemporalAggregator::make_scan(
    NodeId node, std::span<const double> ps, double gain_scale,
    double loss_scale, bool store_cuts, std::vector<const double*>& child_pic,
    std::vector<const std::int32_t*>& child_cnt) {
  const auto& children = model_->hierarchy().node(node).children;
  child_pic.clear();
  child_cnt.clear();
  child_pic.reserve(children.size());
  child_cnt.reserve(children.size());
  for (NodeId c : children) {
    child_pic.push_back(pic_[static_cast<std::size_t>(c)].data());
    child_cnt.push_back(cnt_[static_cast<std::size_t>(c)].data());
  }
  LaneScan scan;
  scan.meas = cache_.node_data(node);
  scan.pic = pic_[static_cast<std::size_t>(node)].data();
  scan.mirror = mirror_[static_cast<std::size_t>(node)].data();
  scan.cnt = cnt_[static_cast<std::size_t>(node)].data();
  scan.cnt_mirror = cmirror_[static_cast<std::size_t>(node)].data();
  scan.cut =
      store_cuts ? cut_[static_cast<std::size_t>(node)].data() : nullptr;
  scan.child_pic = child_pic.data();
  scan.child_cnt = child_cnt.data();
  scan.n_children = children.size();
  scan.p = ps.data();
  scan.lanes = ps.size();
  scan.gain_scale = gain_scale;
  scan.loss_scale = loss_scale;
  return scan;
}

template <int W, bool Vec>
void SpatiotemporalAggregator::compute_cell_lanes(const LaneScan& scan,
                                                  SliceId i,
                                                  SliceId j) const noexcept {
  // Vec only instantiates meaningfully at widths divisible by 4; the
  // dispatcher never selects it otherwise.  Every Vec block below batches
  // the SAME elementwise operations in the same per-lane order as its
  // scalar twin — lanes are independent, no accumulation chain is
  // reordered, and the build forbids FP contraction — so the two
  // instantiations are bit-identical (pinned by tests/test_simd.cpp).
  constexpr bool kVec = Vec && W % 4 == 0;
  const std::size_t row = tri_.row_offset(i);
  const std::size_t cell = row + static_cast<std::size_t>(j - i);

  // "No cut": the area itself is one aggregate (Eq. 4) — a multiply-add of
  // every lane's p over the one cached p-independent (gain, loss) pair.
  // The expression (operand order included) is the reference kernel's, so
  // each lane stays bit-identical to a solo run at its p.
  const AreaMeasures& m = scan.meas[cell];
  double best[W];
  std::int32_t best_cut[W];
  std::int32_t best_count[W];
  if constexpr (kVec) {
    const simd::f64x4 one = simd::f64x4::broadcast(1.0);
    const simd::f64x4 g = simd::f64x4::broadcast(m.gain);
    const simd::f64x4 gs = simd::f64x4::broadcast(scan.gain_scale);
    const simd::f64x4 l = simd::f64x4::broadcast(m.loss);
    const simd::f64x4 ls = simd::f64x4::broadcast(scan.loss_scale);
    for (int w = 0; w < W; w += 4) {
      const simd::f64x4 pv = simd::f64x4::load(scan.p + w);
      (pv * g * gs - (one - pv) * l * ls).store(best + w);
    }
  } else {
    for (int w = 0; w < W; ++w) {
      best[w] = scan.p[w] * m.gain * scan.gain_scale -
                (1.0 - scan.p[w]) * m.loss * scan.loss_scale;
    }
  }
  for (int w = 0; w < W; ++w) {
    best_cut[w] = j;
    best_count[w] = 1;
  }

  // Ties (within accumulated rounding noise) are broken toward the
  // *smallest area count*, so among equally-optimal partitions the
  // coarsest representation is returned — a homogeneous phase stays one
  // aggregate instead of fragmenting into equal-pIC slices.  The
  // acceptance logic is the reference kernel's challenge, restructured so
  // the common path is a lane-parallel compare.

  // Spatial cut: partition into the children over the same interval.  The
  // children's per-lane optima sit adjacent in memory, so the sum is a
  // contiguous W-wide accumulation per child.
  if (scan.n_children != 0) {
    double sum[W];
    std::int32_t count[W];
    for (int w = 0; w < W; ++w) {
      sum[w] = 0.0;
      count[w] = 0;
    }
    for (std::size_t k = 0; k < scan.n_children; ++k) {
      const double* cp = scan.child_pic[k] + cell * W;
      const std::int32_t* cc = scan.child_cnt[k] + cell * W;
      if constexpr (kVec) {
        // Child-order accumulation per lane is unchanged — the vector add
        // batches the W independent per-lane chains, it does not reorder
        // any one of them.
        for (int w = 0; w < W; w += 4) {
          (simd::f64x4::load(sum + w) + simd::f64x4::load(cp + w))
              .store(sum + w);
          (simd::i32x4::load(count + w) + simd::i32x4::load(cc + w))
              .store(count + w);
        }
      } else {
        for (int w = 0; w < W; ++w) {
          sum[w] += cp[w];
          count[w] += cc[w];
        }
      }
    }
    for (int w = 0; w < W; ++w) {
      if (detail::reference_accepts(best[w], best_count[w], sum[w],
                                    count[w])) {
        best[w] = std::max(best[w], sum[w]);
        best_cut[w] = -1;
        best_count[w] = count[w];
      }
    }
  }

  // Temporal cuts: split [i,j] into [i,c] + [c+1,j].  The left operand
  // pIC(i, c) is row-contiguous, the right operand pIC(c+1, j) is read from
  // the column-major mirror where column j is contiguous — with the lane
  // interleave both are flat W-wide streams.
  //
  // Screened scan: each lane keeps the two bounds of the candidate screen
  // (header comment) for its current (best, count) state.  The hot loop
  // over cut positions is a bare add-and-compare against the loose floor
  // per lane; only a cut above some lane's floor loads its area counts for
  // the full screen, and only lanes passing that run the exact reference
  // predicate (same cut order, same operations — bit-identical).  The
  // screen never drops a state-changing candidate.  The W lanes'
  // independent compare chains are what the batching buys: one pass over
  // the streams feeds W superscalar-parallel per-lane pipelines, where a
  // one-lane sweep re-walks the streams per probe.
  double loose_thr[W];
  double strict_thr[W];
  for (int w = 0; w < W; ++w) {
    loose_thr[w] = detail::screen_floor(best[w]);
    strict_thr[w] = detail::screen_strict(best[w]);
  }
  const double* left = scan.pic + row * W;
  const double* right =
      scan.mirror + (col_offset(j) + static_cast<std::size_t>(i) + 1) * W;
  const std::int32_t* left_cnt = scan.cnt + row * W;
  const std::int32_t* right_cnt =
      scan.cnt_mirror + (col_offset(j) + static_cast<std::size_t>(i) + 1) * W;
  const std::int32_t len = j - i;

  // Exact reference challenge of cut i+k against lane w's state.
  const auto challenge = [&](std::int32_t k, int w, double v,
                             std::int32_t count) {
    if (!detail::reference_accepts(best[w], best_count[w], v, count)) return;
    best[w] = std::max(best[w], v);
    best_cut[w] = i + k;
    best_count[w] = count;
    loose_thr[w] = detail::screen_floor(best[w]);
    strict_thr[w] = detail::screen_strict(best[w]);
  };

  for (std::int32_t k = 0; k < len; ++k) {
    const std::size_t at = static_cast<std::size_t>(k) * W;
    // Branch-free W-wide screen: candidate values and screen masks for
    // the whole wave are computed before any lane's challenge runs (the
    // adds and compares vectorize over the lane-interleaved pIC and
    // count streams).  A lane's challenge can only move its own bounds,
    // and each lane is screened against its state before cut k — so
    // hoisting the compares never changes which cuts are evaluated.
    // The vector masks match the scalar compares exactly (ordered,
    // quiet-NaN false; signed int32), so pass/fail decisions are
    // identical in both twins.
    double v[W];
    int loose = 0;
    if constexpr (kVec) {
      for (int w = 0; w < W; w += 4) {
        const simd::f64x4 vv = simd::f64x4::load(left + at + w) +
                               simd::f64x4::load(right + at + w);
        vv.store(v + w);
        loose |= vv.ge_mask(simd::f64x4::load(loose_thr + w)) << w;
      }
    } else {
      for (int w = 0; w < W; ++w) {
        v[w] = left[at + w] + right[at + w];
        loose |= static_cast<int>(v[w] >= loose_thr[w]) << w;
      }
    }
    if (loose == 0) continue;
    std::int32_t count[W];
    int pass = 0;
    if constexpr (kVec) {
      for (int w = 0; w < W; w += 4) {
        const simd::i32x4 cc = simd::i32x4::load(left_cnt + at + w) +
                               simd::i32x4::load(right_cnt + at + w);
        cc.store(count + w);
        const int fewer = cc.lt_mask(simd::i32x4::load(best_count + w));
        const int above = simd::f64x4::load(v + w).ge_mask(
            simd::f64x4::load(strict_thr + w));
        pass |= (above | (fewer & (loose >> w))) << w;
      }
    } else {
      for (int w = 0; w < W; ++w) {
        count[w] = left_cnt[at + w] + right_cnt[at + w];
        pass |= static_cast<int>(v[w] >= strict_thr[w] ||
                                 (v[w] >= loose_thr[w] &&
                                  count[w] < best_count[w]))
                << w;
      }
    }
    for (int w = 0; w < W; ++w) {
      if (((pass >> w) & 1) != 0) challenge(k, w, v[w], count[w]);
    }
  }

  double* out_pic = scan.pic + cell * W;
  double* out_mirror =
      scan.mirror + (col_offset(j) + static_cast<std::size_t>(i)) * W;
  std::int32_t* out_cnt = scan.cnt + cell * W;
  std::int32_t* out_cmirror =
      scan.cnt_mirror + (col_offset(j) + static_cast<std::size_t>(i)) * W;
  if constexpr (kVec) {
    for (int w = 0; w < W; w += 4) {
      const simd::f64x4 b = simd::f64x4::load(best + w);
      b.store(out_pic + w);
      b.store(out_mirror + w);
      const simd::i32x4 c = simd::i32x4::load(best_count + w);
      c.store(out_cnt + w);
      c.store(out_cmirror + w);
    }
  } else {
    for (int w = 0; w < W; ++w) {
      out_pic[w] = best[w];
      out_mirror[w] = best[w];
      out_cnt[w] = best_count[w];
      out_cmirror[w] = best_count[w];
    }
  }
  // Offline waves store the cut for the traceback; incremental sweeps do
  // not (recompute_cut replays the decision for the cells it visits).
  if (scan.cut != nullptr) {
    std::int32_t* out_cut = scan.cut + cell * W;
    for (int w = 0; w < W; ++w) out_cut[w] = best_cut[w];
  }
}

template <int W, bool Vec>
void SpatiotemporalAggregator::compute_node_lanes_w(const LaneScan& scan,
                                                    SliceId first_dirty) {
  // i descending / j ascending: a cell (i, j) reads (i, c) with c < j (this
  // row, already swept — or a retained clean column) and (c+1, j) with
  // c+1 > i (deeper rows, already swept).  Restricting j to the dirty
  // columns therefore preserves every dependency: clean cells are read,
  // never written.
  const SliceId n_t = tri_.slices();
  for (SliceId i = n_t - 1; i >= 0; --i) {
    for (SliceId j = std::max(i, first_dirty); j < n_t; ++j) {
      compute_cell_lanes<W, Vec>(scan, i, j);
    }
  }
}

void SpatiotemporalAggregator::compute_node_lanes(const LaneScan& scan,
                                                  SliceId first_dirty) {
  // One instantiation per width keeps the per-cell lane loops at a
  // compile-time trip count the optimizer can unroll.  Vector
  // instantiations exist only at the widths divisible by the f64x4
  // lane count; use_simd = false (or a scalar-forced build, where the
  // wrappers alias their scalar twins) routes those widths to the scalar
  // twin — the baseline bench_simd measures against.
  const bool vec = options_.use_simd;
  switch (scan.lanes) {
    case 1: compute_node_lanes_w<1, false>(scan, first_dirty); break;
    case 2: compute_node_lanes_w<2, false>(scan, first_dirty); break;
    case 3: compute_node_lanes_w<3, false>(scan, first_dirty); break;
    case 4:
      if (vec) compute_node_lanes_w<4, true>(scan, first_dirty);
      else compute_node_lanes_w<4, false>(scan, first_dirty);
      break;
    case 5: compute_node_lanes_w<5, false>(scan, first_dirty); break;
    case 6: compute_node_lanes_w<6, false>(scan, first_dirty); break;
    case 7: compute_node_lanes_w<7, false>(scan, first_dirty); break;
    case 8:
      if (vec) compute_node_lanes_w<8, true>(scan, first_dirty);
      else compute_node_lanes_w<8, false>(scan, first_dirty);
      break;
    default: break;  // unreachable: lane_width clamps to kMaxDpLanes
  }
}

void SpatiotemporalAggregator::run_wave(std::span<const double> ps,
                                        std::vector<AggregationResult>& out) {
  const Hierarchy& h = model_->hierarchy();
  const std::size_t lanes = ps.size();
  const std::size_t lane_cells = tri_.size() * lanes;
  const std::size_t mirror_cells = tri_.window_cells() * lanes;

  double gain_scale = 1.0;
  double loss_scale = 1.0;
  if (options_.normalize) {
    const AreaMeasures root = area_measures(h.root(), 0, tri_.slices() - 1);
    if (root.gain > 0.0) gain_scale = 1.0 / root.gain;
    if (root.loss > 0.0) loss_scale = 1.0 / root.loss;
  }

  // Level-synchronous bottom-up sweep: all nodes of one depth are mutually
  // independent, and their children (depth+1) are complete.
  for (std::size_t d = levels_.size(); d-- > 0;) {
    const auto& nodes = levels_[d];
    // Grandchildren pIC/count matrices are no longer read (level d+1 is
    // complete); recycle them *before* acquiring this level's buffers so at
    // no point more than two adjacent levels hold live DP matrices — the
    // invariant working_set_bytes() charges for.
    if (d + 2 < levels_.size()) {
      for (NodeId n : levels_[d + 2]) {
        release(std::move(pic_[static_cast<std::size_t>(n)]));
        release(std::move(cnt_[static_cast<std::size_t>(n)]));
      }
    }
    for (NodeId n : nodes) {
      const auto idx = static_cast<std::size_t>(n);
      pic_[idx] = acquire_dbl(lane_cells);
      mirror_[idx] = acquire_dbl(mirror_cells);
      cnt_[idx] = acquire_i32(lane_cells);
      cmirror_[idx] = acquire_i32(mirror_cells);
      if (cut_[idx].size() != lane_cells) cut_[idx].resize(lane_cells);
    }
    sweep_level(nodes, ps, gain_scale, loss_scale, /*first_dirty=*/0,
                /*store_cuts=*/true);
    // The mirrors are only read by the node's own temporal scans.
    for (NodeId n : nodes) {
      release(std::move(mirror_[static_cast<std::size_t>(n)]));
      release(std::move(cmirror_[static_cast<std::size_t>(n)]));
    }
  }

  extract_wave_results(ps, out, options_.parallel, /*stored_cuts=*/true);

  // Return the last two levels' buffers to the arena; nothing is freed, so
  // the next wave (same |T| and width) allocates nothing.
  for (auto& buf : pic_) release(std::move(buf));
  for (auto& buf : cnt_) release(std::move(buf));
}

void SpatiotemporalAggregator::sweep_level(std::span<const NodeId> nodes,
                                           std::span<const double> ps,
                                           double gain_scale,
                                           double loss_scale,
                                           SliceId first_dirty,
                                           bool store_cuts) {
  const auto sweep = [&](std::size_t k) {
    std::vector<const double*> child_pic;
    std::vector<const std::int32_t*> child_cnt;
    const LaneScan scan = make_scan(nodes[k], ps, gain_scale, loss_scale,
                                    store_cuts, child_pic, child_cnt);
    compute_node_lanes(scan, first_dirty);
  };
  // A single-node level (notably the root) runs on the caller thread:
  // splitting one node's triangle costs a pool dispatch per anti-diagonal,
  // more than the node's whole serial sweep.
  if (options_.parallel && nodes.size() > 1) {
    parallel_for(nodes.size(), sweep, /*grain=*/1);
  } else {
    for (std::size_t k = 0; k < nodes.size(); ++k) sweep(k);
  }
}

void SpatiotemporalAggregator::extract_wave_results(
    std::span<const double> ps, std::vector<AggregationResult>& out,
    bool parallel, bool stored_cuts) {
  const Hierarchy& h = model_->hierarchy();
  const std::size_t lanes = ps.size();
  const std::size_t root_cell = tri_(0, tri_.slices() - 1);
  const auto root_idx = static_cast<std::size_t>(h.root());
  const std::size_t base = out.size();
  out.resize(base + lanes);
  // Lanes only read the finished DP matrices and write their own result.
  const auto extract = [&](std::size_t lane) {
    AggregationResult& result = out[base + lane];
    result.p = ps[lane];
    result.optimal_pic = pic_[root_idx][root_cell * lanes + lane];
    if (stored_cuts) {
      extract_partition(result.partition,
                        [&](NodeId node, SliceId i, SliceId j) {
                          return cut_[static_cast<std::size_t>(node)]
                                     [tri_(i, j) * lanes + lane];
                        });
    } else {
      extract_partition(result.partition,
                        [&](NodeId node, SliceId i, SliceId j) {
                          return recompute_cut(node, i, j, lane, lanes,
                                               ps[lane]);
                        });
    }
    result.partition.canonicalize(h);
    for (const auto& a : result.partition.areas()) {
      result.measures += area_measures(a.node, a.time.i, a.time.j);
    }
    fill_quality(result);
  };
  if (parallel && lanes > 1) {
    parallel_for(lanes, extract, /*grain=*/1);
  } else {
    for (std::size_t lane = 0; lane < lanes; ++lane) extract(lane);
  }
}

AggregationResult SpatiotemporalAggregator::run_cached(double p) {
  std::vector<AggregationResult> out;
  out.reserve(1);
  run_wave({&p, 1}, out);
  return std::move(out.front());
}

// ---------------------------------------------------------------------------
// Incremental re-aggregation: window splicing + dirty-column DP sweeps.
// ---------------------------------------------------------------------------

TriangularIndex SpatiotemporalAggregator::next_layout(
    std::int32_t new_t, std::int32_t dropped_front) const {
  const std::int32_t cap = sliding() ? new_t + window_slack(new_t) : new_t;
  if (new_t == tri_.slices() && cap == tri_.capacity() &&
      tri_.origin() + dropped_front + new_t <= cap) {
    return TriangularIndex(new_t, cap, tri_.origin() + dropped_front);
  }
  return TriangularIndex(new_t, cap, 0);
}

void SpatiotemporalAggregator::apply_window_update(std::int32_t dropped_front,
                                                   SliceId first_dirty) {
  const std::int32_t old_t = tri_.slices();
  const std::int32_t new_t = model_->slice_count();
  if (dropped_front < 0 || dropped_front > old_t) {
    throw InvalidArgument("apply_window_update: invalid dropped_front");
  }
  // Cells whose column has no old counterpart (appended slices) are dirty
  // regardless of what the caller reports; so are all columns at or past
  // the first changed model column.
  const SliceId fresh_from =
      std::max<SliceId>(0, old_t - dropped_front);
  const SliceId dirty =
      std::clamp<SliceId>(std::min(first_dirty, fresh_from), 0, new_t);

  // Every structure follows the same layout decision, so the cube, the
  // cache and the retained triangles compact on the same slide.
  const TriangularIndex next = next_layout(new_t, dropped_front);
  relocated_cells_ += cube_.reshape_slices(next, dropped_front);
  cube_.recompute_slices(dirty, options_.parallel);
  relocated_cells_ += cache_.reshape(next, dropped_front);
  cache_.update(cube_, dirty, options_.parallel, options_.shard_plan);

  if (inc_ && inc_->valid) {
    for (WaveDpState& wave : inc_->waves) {
      for (auto& buf : wave.pic) {
        relocated_cells_ +=
            relocate_triangles(buf, tri_, next, dropped_front, wave.lanes, 1);
      }
      for (auto& buf : wave.cnt) {
        relocated_cells_ +=
            relocate_triangles(buf, tri_, next, dropped_front, wave.lanes, 1);
      }
    }
    // Prior staleness shifts with the window; combine with this update.
    const SliceId prior = std::clamp<SliceId>(
        inc_dirty_ - dropped_front, 0, new_t);
    inc_dirty_ = std::min(prior, dirty);
    if (dropped_front != 0 || new_t != old_t || dirty < new_t) {
      inc_->results_current = false;
    }
  } else {
    inc_dirty_ = 0;
  }
  tri_ = next;
}

std::size_t SpatiotemporalAggregator::incremental_state_bytes()
    const noexcept {
  if (!inc_) return 0;
  std::size_t bytes = 0;
  for (const WaveDpState& wave : inc_->waves) {
    for (const auto& buf : wave.pic) bytes += buf.size() * sizeof(double);
    for (const auto& buf : wave.cnt) bytes += buf.size() * sizeof(std::int32_t);
  }
  return bytes;
}

std::int32_t SpatiotemporalAggregator::recompute_cut(
    NodeId node, SliceId i, SliceId j, std::size_t lane, std::size_t lanes,
    double p) const noexcept {
  // The sweep's candidates in the sweep's order and arithmetic (see
  // compute_cell_lanes): the aggregate term (gain/loss scales are 1 —
  // incremental runs reject normalize — and x * 1.0 is exact), the
  // spatial sum over the children in child order, then the temporal cuts
  // ascending as pIC(i, c) + pIC(c + 1, j), skipping those below the
  // candidate screen's loose floor as the sweep does.  Every state change
  // goes through detail::reference_accepts, and the screen never drops a
  // state-changing candidate, so this returns the cut the sweep chose.
  const auto idx = static_cast<std::size_t>(node);
  const std::size_t row = tri_.row_offset(i);
  const std::size_t cell = row + static_cast<std::size_t>(j - i);
  const AreaMeasures& m = cache_.node_data(node)[cell];
  double best = p * m.gain - (1.0 - p) * m.loss;
  std::int32_t best_cut = j;
  std::int32_t best_count = 1;
  double floor = detail::screen_floor(best);
  const auto challenge = [&](double v, std::int32_t count,
                             std::int32_t cut) {
    if (!detail::reference_accepts(best, best_count, v, count)) return;
    best = std::max(best, v);
    best_cut = cut;
    best_count = count;
    floor = detail::screen_floor(best);
  };
  const auto& children = model_->hierarchy().node(node).children;
  if (!children.empty()) {
    double sum = 0.0;
    std::int32_t count = 0;
    for (NodeId c : children) {
      const auto ci = static_cast<std::size_t>(c);
      sum += pic_[ci][cell * lanes + lane];
      count += cnt_[ci][cell * lanes + lane];
    }
    challenge(sum, count, -1);
  }
  const double* pic = pic_[idx].data();
  const std::int32_t* cnt = cnt_[idx].data();
  for (SliceId c = i; c < j; ++c) {
    const std::size_t left =
        (row + static_cast<std::size_t>(c - i)) * lanes + lane;
    const std::size_t right = tri_(c + 1, j) * lanes + lane;
    const double v = pic[left] + pic[right];
    if (v >= floor) challenge(v, cnt[left] + cnt[right], c);
  }
  return best_cut;
}

void SpatiotemporalAggregator::run_wave_incremental(
    std::span<const double> ps, WaveDpState& state, SliceId first_dirty,
    std::vector<AggregationResult>& out) {
  const Hierarchy& h = model_->hierarchy();
  const std::size_t lanes = ps.size();
  const std::size_t lane_cells = tri_.size() * lanes;
  const std::size_t mirror_cells = tri_.window_cells() * lanes;
  const std::size_t node_count = h.node_count();

  state.lanes = lanes;
  state.pic.resize(node_count);
  state.cnt.resize(node_count);
  // Adopt the retained buffers into the member slots the scan builders
  // read; vectors move by pointer swap.  Fresh (empty) buffers are sized
  // here — their cells are all covered by a first_dirty == 0 sweep.
  for (std::size_t n = 0; n < node_count; ++n) {
    pic_[n] = std::move(state.pic[n]);
    cnt_[n] = std::move(state.cnt[n]);
    if (pic_[n].size() != lane_cells) pic_[n].resize(lane_cells);
    if (cnt_[n].size() != lane_cells) cnt_[n].resize(lane_cells);
  }

  if (first_dirty < tri_.slices()) {
    for (std::size_t d = levels_.size(); d-- > 0;) {
      const auto& nodes = levels_[d];
      for (NodeId n : nodes) {
        const auto idx = static_cast<std::size_t>(n);
        mirror_[idx] = acquire_dbl(mirror_cells);
        cmirror_[idx] = acquire_i32(mirror_cells);
      }
      sweep_level(nodes, ps, /*gain_scale=*/1.0, /*loss_scale=*/1.0,
                  first_dirty, /*store_cuts=*/false);
      for (NodeId n : nodes) {
        release(std::move(mirror_[static_cast<std::size_t>(n)]));
        release(std::move(cmirror_[static_cast<std::size_t>(n)]));
      }
    }
  }

  // Serial: SessionManager already advances sessions in parallel, and a
  // live window's partitions are too small to repay a pool dispatch.
  extract_wave_results(ps, out, /*parallel=*/false, /*stored_cuts=*/false);

  // Return the matrices to the retained checkpoint for the next advance.
  for (std::size_t n = 0; n < node_count; ++n) {
    state.pic[n] = std::move(pic_[n]);
    state.cnt[n] = std::move(cnt_[n]);
  }
}

std::vector<AggregationResult> SpatiotemporalAggregator::run_incremental(
    std::span<const double> ps) {
  for (const double p : ps) check_p(p);
  if (options_.kernel == DpKernel::kReference) {
    throw InvalidArgument(
        "run_incremental: the reference kernel has no retained form; use a "
        "cached kernel");
  }
  if (options_.normalize) {
    throw InvalidArgument(
        "run_incremental: normalization rescales every cell on each window "
        "update; incremental sessions require normalize = false");
  }
  std::vector<AggregationResult> results;
  if (ps.empty()) return results;
  const std::size_t width = lane_width(ps.size());
  const std::size_t waves = (ps.size() + width - 1) / width;
  const bool fresh =
      !inc_ || !inc_->valid || inc_->width != width ||
      inc_->ps.size() != ps.size() ||
      !std::equal(inc_->ps.begin(), inc_->ps.end(), ps.begin());
  if (!fresh && inc_->results_current) return inc_->results;

  // Budget: the sweep working set plus the retained checkpoint (pIC +
  // count per storage cell per lane, every node, every wave), both over
  // the sliding layout they will occupy.
  const std::int32_t t = tri_.slices();
  const TriangularIndex layout =
      sliding() ? tri_ : TriangularIndex(t, t + window_slack(t), 0);
  const std::size_t retained = model_->hierarchy().node_count() *
                               layout.size() * ps.size() *
                               (sizeof(double) + sizeof(std::int32_t));
  const std::size_t need = incremental_sweep_bytes(width, layout) + retained;
  if (need > options_.memory_budget_bytes) {
    throw BudgetError("incremental DP working set + retained state need " +
                      std::to_string(need) + " bytes > budget " +
                      std::to_string(options_.memory_budget_bytes) +
                      "; reduce |T|, the lane width, or raise the budget");
  }
  if (!sliding()) {
    // Switch to the sliding layout once; offline structures re-lay out.
    relocated_cells_ += cube_.reshape_slices(layout, 0);
    relocated_cells_ += cache_.reshape(layout, 0);
    tri_ = layout;
  }
  ensure_measure_cache();

  if (fresh) {
    inc_ = std::make_unique<IncrementalDp>();
    inc_->ps.assign(ps.begin(), ps.end());
    inc_->width = width;
    inc_->waves.resize(waves);
    inc_dirty_ = 0;
  }
  const SliceId first_dirty = fresh ? 0 : inc_dirty_;
  // Invalidate while waves are in flight: if a sweep throws (allocation
  // failure past the budget check, cancellation), the retained buffers are
  // partially moved out and must not be spliced from on a retry.
  inc_->valid = false;
  inc_->results_current = false;

  results.reserve(ps.size());
  for (std::size_t w = 0; w < waves; ++w) {
    const std::size_t offset = w * width;
    run_wave_incremental(
        ps.subspan(offset, std::min(width, ps.size() - offset)),
        inc_->waves[w], first_dirty, results);
  }
  inc_->valid = true;
  inc_->results = results;
  inc_->results_current = true;
  inc_dirty_ = tri_.slices();
  return results;
}

// ---------------------------------------------------------------------------
// Reference kernel: the original per-cell formulation (measures recomputed
// from the cube inside the innermost loop, buffers freed after the run).
// Kept as the equivalence-test oracle and the bench baseline.
// ---------------------------------------------------------------------------

void SpatiotemporalAggregator::compute_node_reference(NodeId node, double p,
                                                      double gain_scale,
                                                      double loss_scale) {
  const Hierarchy& h = model_->hierarchy();
  const auto& children = h.node(node).children;
  const SliceId n_t = tri_.slices();

  auto& pic_cells = pic_[static_cast<std::size_t>(node)];
  auto& cut_cells = cut_[static_cast<std::size_t>(node)];
  auto& cnt_cells = cnt_[static_cast<std::size_t>(node)];
  pic_cells.resize(tri_.size());
  cut_cells.resize(tri_.size());
  cnt_cells.resize(tri_.size());

  // Cache children cell arrays (computed at the deeper level already).
  std::vector<const double*> child_pic;
  std::vector<const std::int32_t*> child_cnt;
  child_pic.reserve(children.size());
  child_cnt.reserve(children.size());
  for (NodeId c : children) {
    child_pic.push_back(pic_[static_cast<std::size_t>(c)].data());
    child_cnt.push_back(cnt_[static_cast<std::size_t>(c)].data());
  }

  // Column-major sweep (j ascending, i descending): column j's measures
  // are produced by one descending per-state accumulation over the cube's
  // per-slice data — bit-identical to per-cell cube_.measures() calls (the
  // MeasureCache equivalence suite pins this), but O(|X|) amortized per
  // cell instead of O(|X| (j-i)), preserving the original formulation's
  // O(|S| |T|^2 |X|) measure cost.  The order is DP-valid: cell (i, j)
  // reads (i, c) with c < j (earlier columns) and (c+1, j) deeper in the
  // current column (already computed, i descends).
  std::vector<AreaMeasures> col(static_cast<std::size_t>(n_t));
  for (SliceId j = 0; j < n_t; ++j) {
    cube_.measures_column_into(
        node, j, std::span(col.data(), static_cast<std::size_t>(j) + 1));
    for (SliceId i = j; i >= 0; --i) {
      const std::size_t row = tri_.row_offset(i);
      const std::size_t cell = row + static_cast<std::size_t>(j - i);

      // "No cut": the area itself is one aggregate (Eq. 4).
      const AreaMeasures m = col[static_cast<std::size_t>(i)];
      double best = p * m.gain * gain_scale - (1.0 - p) * m.loss * loss_scale;
      std::int32_t best_cut = j;
      std::int32_t best_count = 1;

      const auto challenge = [&](double v, std::int32_t count,
                                 std::int32_t cut) {
        if (detail::reference_accepts(best, best_count, v, count)) {
          best = std::max(best, v);
          best_cut = cut;
          best_count = count;
        }
      };

      // Spatial cut: partition into the children over the same interval.
      if (!child_pic.empty()) {
        double sum = 0.0;
        std::int32_t count = 0;
        for (std::size_t k = 0; k < child_pic.size(); ++k) {
          sum += child_pic[k][cell];
          count += child_cnt[k][cell];
        }
        challenge(sum, count, -1);
      }

      // Temporal cuts: split [i,j] into [i,c] + [c+1,j]; both sub-cells are
      // already optimal (j ascending covers [i,c], i descending [c+1,j]).
      const double* my = pic_cells.data();
      const std::int32_t* my_cnt = cnt_cells.data();
      for (SliceId c = i; c < j; ++c) {
        const std::size_t left = row + static_cast<std::size_t>(c - i);
        const std::size_t right = tri_(c + 1, j);
        challenge(my[left] + my[right], my_cnt[left] + my_cnt[right], c);
      }

      pic_cells[cell] = best;
      cut_cells[cell] = best_cut;
      cnt_cells[cell] = best_count;
    }
  }
}

AggregationResult SpatiotemporalAggregator::run_reference(double p) {
  const Hierarchy& h = model_->hierarchy();

  double gain_scale = 1.0;
  double loss_scale = 1.0;
  if (options_.normalize) {
    const AreaMeasures root = cube_.root_measures();
    if (root.gain > 0.0) gain_scale = 1.0 / root.gain;
    if (root.loss > 0.0) loss_scale = 1.0 / root.loss;
  }

  for (auto level = levels_.rbegin(); level != levels_.rend(); ++level) {
    const auto& nodes = *level;
    if (options_.parallel && nodes.size() > 1) {
      parallel_for(
          nodes.size(),
          [&](std::size_t k) {
            compute_node_reference(nodes[k], p, gain_scale, loss_scale);
          },
          /*grain=*/1);
    } else {
      for (NodeId n : nodes) {
        compute_node_reference(n, p, gain_scale, loss_scale);
      }
    }
    const std::size_t depth =
        static_cast<std::size_t>(levels_.rend() - level - 1);
    if (depth + 2 <= levels_.size() - 1) {
      for (NodeId n : levels_[depth + 2]) {
        pic_[static_cast<std::size_t>(n)] = {};
        cnt_[static_cast<std::size_t>(n)] = {};
      }
    }
  }

  AggregationResult result;
  result.p = p;
  result.optimal_pic = pic_[static_cast<std::size_t>(h.root())]
                           [tri_(0, tri_.slices() - 1)];
  extract_partition(result.partition, [&](NodeId node, SliceId i, SliceId j) {
    return cut_[static_cast<std::size_t>(node)][tri_(i, j)];
  });
  result.partition.canonicalize(h);
  for (const auto& a : result.partition.areas()) {
    result.measures += cube_.measures(a.node, a.time.i, a.time.j);
  }
  fill_quality(result);

  // Release the DP buffers (the original behaviour); the cube stays.
  for (auto& v : pic_) v = {};
  for (auto& v : cnt_) v = {};
  return result;
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

AggregationResult SpatiotemporalAggregator::run(double p) {
  check_p(p);
  check_budget(/*lanes=*/1);
  if (options_.kernel == DpKernel::kReference) return run_reference(p);
  ensure_measure_cache();
  return run_cached(p);
}

std::vector<AggregationResult> SpatiotemporalAggregator::run_many(
    std::span<const double> ps) {
  for (const double p : ps) check_p(p);
  std::vector<AggregationResult> results;
  results.reserve(ps.size());
  if (options_.kernel == DpKernel::kReference) {
    check_budget(/*lanes=*/1);
    for (const double p : ps) results.push_back(run_reference(p));
    return results;
  }
  const std::size_t width = lane_width(ps.size());
  check_budget(width);
  ensure_measure_cache();
  // Waves of `width` lanes; the remainder wave uses its exact (possibly
  // odd) width — every width in [1, kMaxDpLanes] has an instantiation.
  for (std::size_t offset = 0; offset < ps.size(); offset += width) {
    run_wave(ps.subspan(offset, std::min(width, ps.size() - offset)),
             results);
  }
  return results;
}

AggregationResult SpatiotemporalAggregator::evaluate(
    const Partition& partition, double p) const {
  const Hierarchy& h = model_->hierarchy();
  AggregationResult result;
  result.p = p;
  result.partition = partition;
  result.partition.canonicalize(h);

  double gain_scale = 1.0;
  double loss_scale = 1.0;
  const AreaMeasures root = area_measures(h.root(), 0, tri_.slices() - 1);
  if (options_.normalize) {
    if (root.gain > 0.0) gain_scale = 1.0 / root.gain;
    if (root.loss > 0.0) loss_scale = 1.0 / root.loss;
  }

  for (const auto& a : partition.areas()) {
    result.measures += area_measures(a.node, a.time.i, a.time.j);
  }
  result.optimal_pic = p * result.measures.gain * gain_scale -
                       (1.0 - p) * result.measures.loss * loss_scale;
  fill_quality(result);
  return result;
}

}  // namespace stagg
