// The spatiotemporal aggregation algorithm (paper §III-E, Algorithm 1).
//
// Exact dynamic program over the tree of packed upper-triangular matrices:
// for every hierarchy node S_k and slice interval T_(i,j) it computes
//   pIC[i,j]  — the criterion of an *optimal* partition of (S_k, T_(i,j))
//   cut[i,j]  — the first step of a cut sequence realizing it:
//                 cut == j        the area itself is an aggregate ("no cut")
//                 cut == -1       spatial cut into the children of S_k
//                 cut in [i, j)   temporal cut between slices cut and cut+1
// Offline runs store cut[] for every node and trace the partition back
// through it.  Incremental (sliding-window) runs keep only pIC and the
// area count and recompute the cut of each cell the traceback visits —
// see the incremental section below.
// Children are processed before parents (post-order); sibling subtrees are
// independent and processed in parallel, level by level.  A level with a
// single node (notably the root) is swept serially on the caller thread.
//
// Complexity: the p-independent gain/loss of every cell is computed once
// into a MeasureCache — O(|S|·|T|²·|X|), shared by all subsequent runs —
// after which each run(p) is a pure multiply-add DP, O(|S|·|T|³) time and
// O(|S|·|T|²) space as derived in the paper.  A p-sweep therefore pays the
// measure pass once; use run_many() (or find_significant_levels, which is
// built on it) to amortize the cache build and the DP arena across probes:
//
//   SpatiotemporalAggregator agg(model);
//   const double ps[] = {0.0, 0.25, 0.5, 0.75, 1.0};
//   std::vector<AggregationResult> sweep = agg.run_many(ps);
//
// Lane batching: run_many() additionally groups its probes into *lanes* —
// waves of up to kMaxDpLanes (8, default 4) parameters evaluated by a
// single DP sweep.  Every DP matrix (pIC, its column-major mirror, cut,
// count and its mirror) gains a lane dimension, stored cell-major with the
// W lane values of one cell adjacent (`pic[cell * W + lane]`), so the
// per-cell kernel is a fixed-width loop
//   best[lane] = p[lane] * gain - (1 - p[lane]) * loss        (no-cut term)
//   v[lane]    = left_pic[lane] + right_pic[lane]             (temporal cut)
// over W contiguous doubles: one pass over the shared p-independent
// (gain, loss) cell and the cut-candidate streams feeds W independent
// per-lane compare chains (superscalar-parallel, with a per-lane candidate
// screen keeping the epsilon tie-break arithmetic off the hot path) where
// a one-lane sweep per probe re-walks the streams and re-derives the
// epsilon bounds once per probe.
//
// Candidate screen: a temporal cut v with area count `count` can only
// change a lane's state (best, best_count) if
//   v >= best + 0.5e-12 * (1 + |best|)                            (strict)
//   || (v >= best - 4e-12 * (1 + |best|) && count < best_count)   (tie)
// (detail::screen_passes).  The hot loop compares v with the loose tie
// bound only; cuts above it take the full screen, and cuts passing that
// run the exact reference predicate, detail::reference_accepts
// (eps = 1e-12 + 1e-12 * max(|best|, |v|)).  Soundness:
// - strict: the reference needs v > best + eps, and eps >= 1e-12 *
//   (1 + |best|) is twice the strict margin; rounding is monotone, so the
//   computed best + eps never falls below the computed strict bound.
// - tie: any v >= best - eps lies within ~1.1e-12 * (1 + |best|) of best
//   in every sign case, well inside the 4e-12 bound, and the reference
//   also needs count < best_count.
// Every cut has count >= 2, so while best_count <= 2 only the strict
// branch can pass.  Near ties — a sub-interval whose optimum is a fine
// partition, where every cut gives the same pIC up to rounding — thus
// cost an integer compare per lane, not the reference predicate.
//
// Bit-identity guarantee: each lane performs exactly the reference kernel's
// arithmetic (same expressions, same operand order, same epsilon-guarded
// tie-breaking; the candidate screen provably never drops a state-changing
// candidate), so every lane of every wave is bit-identical in pIC and
// identical in partition to a solo DpKernel::kReference run at that p —
// regardless of lane width, wave grouping, duplicate parameters, or arena
// reuse.  tests/test_measure_cache.cpp asserts this with EXPECT_EQ on
// doubles across W ∈ {1, 4, 8}.
//
// The DP buffers are pooled and reused between runs and waves (no per-run
// allocation); the kernel keeps a column-major mirror of each node's pIC
// matrix so the temporal-cut right operand pIC(c+1, j) is read contiguously.
//
// Tie-breaking: when an aggregate and a cut have equal pIC, the aggregate
// wins (strict '>' in Algorithm 1), so the coarsest optimal partition is
// returned — e.g. at p = 0 a fully homogeneous trace collapses to one area
// even though the microscopic partition is equally optimal.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/simd.hpp"
#include "core/cube.hpp"
#include "core/measure_cache.hpp"
#include "core/partition.hpp"
#include "metrics/quality.hpp"

namespace stagg {

/// DP kernel selection.  kCached is the production kernel (MeasureCache +
/// lane batching + screened candidate scan + pooled buffers).  kReference
/// recomputes every cell's measures from the cube and frees its buffers
/// after each run — the original per-cell formulation and the equivalence
/// oracle.  Both produce bit-identical pIC values and identical partitions.
enum class DpKernel : std::uint8_t {
  kCached,
  kReference,
};

/// Hard upper bound on the lane width of one DP wave: 8 doubles = one
/// 64-byte cache line of per-lane state per cell, and a trip count short
/// enough for full unrolling at every instantiated width.
inline constexpr std::size_t kMaxDpLanes = 8;

namespace detail {

/// The reference kernel's accept predicate for a challenger (v, count)
/// against the state (best, best_count); every kernel decides state
/// changes with this one expression.
[[nodiscard]] inline bool reference_accepts(double best,
                                            std::int32_t best_count,
                                            double v,
                                            std::int32_t count) noexcept {
  const double eps = 1e-12 + 1e-12 * std::max(std::abs(best), std::abs(v));
  return v > best + eps || (v >= best - eps && count < best_count);
}

/// Loose (tie) bound of the candidate screen.
[[nodiscard]] inline double screen_floor(double best) noexcept {
  return best - 4e-12 * (1.0 + std::abs(best));
}

/// Strict bound of the candidate screen.
[[nodiscard]] inline double screen_strict(double best) noexcept {
  return best + 0.5e-12 * (1.0 + std::abs(best));
}

/// The candidate screen (header comment): true for every challenger
/// reference_accepts(best, best_count, v, count) accepts.
[[nodiscard]] inline bool screen_passes(double best, std::int32_t best_count,
                                        double v,
                                        std::int32_t count) noexcept {
  return v >= screen_strict(best) ||
         (v >= screen_floor(best) && count < best_count);
}

}  // namespace detail

/// Knobs of the spatiotemporal aggregation.
struct AggregationOptions {
  /// Upper bound on the peak working set: the pooled DP matrices of two
  /// adjacent levels + cut matrices + the p-independent MeasureCache,
  /// at the lane width the run will use.
  std::size_t memory_budget_bytes = std::size_t{6} << 30;
  /// Process sibling subtrees on the shared thread pool.
  bool parallel = true;
  /// Normalize gain and loss by their full-aggregation (root area) values
  /// before the trade-off, making p scales comparable across traces — the
  /// behaviour of the Ocelotl tool.  Off reproduces Eq. 4 verbatim.
  bool normalize = false;
  /// DP kernel; see DpKernel.
  DpKernel kernel = DpKernel::kCached;
  /// Lane-width cap for run_many(): probes are evaluated in waves of
  /// min(max_lanes, kMaxDpLanes, probes left).  1 reproduces a solo
  /// per-probe sweep; results are bit-identical at any width.  The default
  /// of 4 is the measured sweet spot — the per-lane state of wider waves
  /// spills out of registers and gives the win back.
  std::size_t max_lanes = 4;
  /// Run the lane-batched DP's per-cell kernel through the simd.hpp vector
  /// wrappers at lane widths divisible by 4 (the no-cut multiply-add, the
  /// spatial child fold, the temporal candidate screen, and the cell
  /// writeback each batch 4 lanes per vector op).  The wrappers only ever
  /// vectorize ACROSS independent lanes — no accumulation chain is
  /// reordered — so results are bit-identical to the scalar twin at every
  /// width; `false` forces the scalar twin (the bench_simd baseline).  On
  /// scalar-only builds (STAGG_SIMD=OFF) both settings execute scalar code.
  bool use_simd = true;
  /// Resource-shard partition (hierarchy/shard_plan.hpp): when set (and
  /// built for this aggregator's hierarchy), the DataCube's bottom-up fold
  /// runs per shard with a serial spine pass, and the MeasureCache build
  /// schedules per shard.  Values are bit-identical with or without a
  /// plan; the plan must outlive the aggregator (the ShardedTraceStore
  /// owns it in the session stack).  nullptr = monolithic fold.
  const ShardPlan* shard_plan = nullptr;
};

/// Output of one aggregation run.
struct AggregationResult {
  double p = 0.0;
  Partition partition;
  /// pIC of the optimal partition (root cell of the DP), in the same
  /// normalization as the run.
  double optimal_pic = 0.0;
  /// Raw (unnormalized) gain/loss summed over the chosen areas.
  AreaMeasures measures;
  PartitionQuality quality;
};

/// Reusable aggregator: builds the DataCube once; the measure cache is
/// built lazily on the first cached-kernel run; run(p) executes the DP.
class SpatiotemporalAggregator {
 public:
  explicit SpatiotemporalAggregator(const MicroscopicModel& model,
                                    AggregationOptions options = {});

  /// An aggregator built directly in the sliding layout (capacity
  /// |T| + window_slack(|T|), origin 0) that run_incremental otherwise
  /// switches to on its first call — for sliding sessions, whose cube is
  /// then folded once and never re-laid out at attach.
  [[nodiscard]] static SpatiotemporalAggregator sliding_layout(
      const MicroscopicModel& model, AggregationOptions options = {});

  /// Runs Algorithm 1 for a given trade-off parameter p in [0, 1].
  /// Throws InvalidArgument on out-of-range p, BudgetError when the peak
  /// working set would exceed the memory budget.
  [[nodiscard]] AggregationResult run(double p);

  /// Batched sweep: one result per parameter, in order.  Equivalent to
  /// calling run() per element but validates every p and checks the budget
  /// up front, shares the measure cache and the DP buffer arena across all
  /// probes, and evaluates the probes in lanes of up to
  /// options.max_lanes per DP sweep — the intended API for dichotomic level
  /// searches and Ocelotl-style exploration.
  [[nodiscard]] std::vector<AggregationResult> run_many(
      std::span<const double> ps);

  [[nodiscard]] const DataCube& cube() const noexcept { return cube_; }
  [[nodiscard]] const MicroscopicModel& model() const noexcept {
    return cube_.model();
  }
  [[nodiscard]] const AggregationOptions& options() const noexcept {
    return options_;
  }

  /// The p-independent (gain, loss) cache; built() is false until the
  /// first cached-kernel run.
  [[nodiscard]] const MeasureCache& measure_cache() const noexcept {
    return cache_;
  }
  /// Wall seconds the (one-time) measure-cache build took; 0 until built.
  [[nodiscard]] double cache_build_seconds() const noexcept {
    return cache_build_seconds_;
  }

  /// Conservative upper bound on the cached kernel's working set for
  /// `node_count` nodes over `slices` slices at lane width `lanes`: per
  /// packed triangular cell, per lane pIC (double) + column-major pIC and
  /// count mirrors (double + int32) + cut + count (int32) — 28
  /// bytes/cell/lane — plus the shared cached (gain, loss) pair (2
  /// doubles) — 16 bytes/cell.  The instance working_set_bytes() is
  /// tighter (it knows the level shape).
  [[nodiscard]] static std::size_t estimate_bytes(std::size_t node_count,
                                                  std::int32_t slices,
                                                  std::size_t lanes = 1);

  /// Precise peak working set of this aggregator's next run at lane width
  /// `lanes`, as allocated:
  ///   * offline (cached kernel): cut matrices for all nodes + the measure
  ///     cache + pooled pIC/count matrices of the two widest adjacent
  ///     levels + the mirrors of the widest level (the per-cell DP state
  ///     scales with `lanes`, the measure cache does not);
  ///   * reference kernel: the whole-tree pIC/cut/count set (lane-
  ///     oblivious);
  ///   * sliding (after the first run_incremental): the mirrors of the
  ///     widest level over the window's cells + the measure cache over its
  ///     capacity triangle.  The retained pIC/count triangles are reported
  ///     apart, by incremental_state_bytes(), and no cut matrix is held.
  [[nodiscard]] std::size_t working_set_bytes(
      std::size_t lanes = 1) const noexcept;

  /// Evaluates an arbitrary partition against this model: raw gain/loss
  /// sums and normalized quality.  Used to score baseline partitions
  /// (uniform, Cartesian) with identical measures.  Reads the measure
  /// cache when built, the cube otherwise — bit-identical either way.
  [[nodiscard]] AggregationResult evaluate(const Partition& partition,
                                           double p) const;

  // -------------------------------------------------------------------------
  // Incremental re-aggregation (sliding-window sessions).
  //
  // Contract: the referenced model's window was mutated in place so that
  //   * `dropped_front` leading slices were dropped (column c of the new
  //     window held column c + dropped_front of the old one, bit-exactly),
  //   * every per-slice column >= `first_dirty` (new indexing) may differ,
  //     every column before it is bit-identical,
  // and |T| may have changed (extension/contraction).  apply_window_update
  // then splices all derived state: the cube's per-slice columns, the
  // measure cache's triangle and the retained DP triangles all follow the
  // window (new cell (i, j) = old cell (i+k, j+k), exact under the
  // translation-invariant convention of cube.hpp), and the cube's and the
  // cache's dirty columns are recomputed.
  //
  // Layout: the first run_incremental switches the aggregator to the
  // sliding layout (sliding_layout() builds one there) — the cube, the
  // measure cache and every retained triangle span
  // C = |T| + window_slack(|T|) columns addressed through a shared window
  // origin (core/interval.hpp).  A slide by k moves the
  // origin and touches no retained cell; when the origin would run past
  // the capacity, one in-place compaction moves the surviving cells back to
  // origin 0 (once every ceil((s + 1) / k) slides of k columns).  Only a
  // changed |T| (extend/contract) re-lays everything out into the new
  // |T|'s layout.  relocated_cells() counts what was moved.  Offline runs
  // (run/run_many) keep capacity |T| and origin 0.
  //
  // run_incremental(ps) then re-runs the DP **only over cells whose column
  // is dirty** — the dirty-column invariant: a DP cell (i, j) depends
  // solely on measures and sub-cells inside [i, j], so every cell with
  // j < first_dirty is provably bit-identical to its previous value and is
  // kept from the retained state instead of recomputed.  The retained
  // state is pIC + area count for every node, per wave; cut is not kept.
  // The traceback recomputes the cut of each cell it visits by replaying
  // the sweep's candidates in the sweep's order and arithmetic (aggregate,
  // spatial child sum in child order, temporal cuts ascending, each
  // decided by detail::reference_accepts), so it picks the sweep's cut by
  // construction.  Results are bit-identical to a from-scratch
  // run_many(ps) on the new window at any lane width.  When the window
  // did not move and nothing is dirty, run_incremental returns the
  // retained results without a sweep or a traceback.
  //
  // Requires a cached kernel (kReference has no retained form) and
  // normalize == false (the root normalization scales change with every
  // window update, which would dirty every cell).
  // -------------------------------------------------------------------------

  /// Splices cube, measure cache and retained DP state after an in-place
  /// model-window mutation; see the contract above.  Costs the dirty
  /// suffix (cube columns and cache columns); a slide moves no retained
  /// cell except at a compaction.  Performs no DP run.
  void apply_window_update(std::int32_t dropped_front, SliceId first_dirty);

  /// Batched sweep reusing the previous sweep's DP state: recomputes only
  /// dirty columns (everything, on the first call or when `ps`/the lane
  /// width change) and returns one result per parameter — bit-identical to
  /// run_many(ps) on the current window.  Throws InvalidArgument on the
  /// reference kernel or normalize == true; BudgetError when the sliding
  /// working set + the retained state (working_set_bytes(width) +
  /// incremental_state_bytes() as they will be allocated) exceed the
  /// budget.
  [[nodiscard]] std::vector<AggregationResult> run_incremental(
      std::span<const double> ps);

  /// True between the first run_incremental() and reset_incremental().
  [[nodiscard]] bool incremental_active() const noexcept {
    return inc_ != nullptr && inc_->valid;
  }
  /// Releases the retained per-wave DP state (the next run_incremental
  /// recomputes everything).
  void reset_incremental() noexcept { inc_.reset(); }
  /// Bytes held by the retained incremental DP state: pIC (8 B) + count
  /// (4 B) per storage cell per lane — the triangle over the window's
  /// capacity |T| + window_slack(|T|) — every node, every wave.
  [[nodiscard]] std::size_t incremental_state_bytes() const noexcept;

  /// Cumulative number of cells moved by window compactions and re-layouts:
  /// (node, cell) positions summed over the measure cache and every
  /// retained pIC and count triangle, plus (node, slice) columns of the
  /// cube.  A slide into free capacity adds 0.
  [[nodiscard]] std::size_t relocated_cells() const noexcept {
    return relocated_cells_;
  }

 private:
  /// Pointers and parameters of one node's DP sweep over one wave of W
  /// lanes (cached kernel).  The shared (gain, loss) triangle is read once
  /// per cell for all lanes; every per-lane matrix is cell-major with the
  /// W lane values of a cell adjacent.
  struct LaneScan {
    const AreaMeasures* meas = nullptr;     ///< shared (gain, loss) cells
    double* pic = nullptr;                  ///< row-major pIC, lane-interleaved
    double* mirror = nullptr;               ///< column-major pIC mirror
    std::int32_t* cnt = nullptr;
    std::int32_t* cnt_mirror = nullptr;     ///< column-major count mirror
    std::int32_t* cut = nullptr;            ///< nullptr: cuts not stored
    const double* const* child_pic = nullptr;
    const std::int32_t* const* child_cnt = nullptr;
    std::size_t n_children = 0;
    const double* p = nullptr;              ///< W trade-off parameters
    std::size_t lanes = 1;                  ///< W, in [1, kMaxDpLanes]
    double gain_scale = 1.0;
    double loss_scale = 1.0;
  };

  /// Offset of column j in the packed column-major triangle: cells
  /// (0..j, j) are contiguous at [col_offset(j), col_offset(j) + j].
  [[nodiscard]] static constexpr std::size_t col_offset(SliceId j) noexcept {
    const auto jj = static_cast<std::size_t>(j);
    return jj * (jj + 1) / 2;
  }

  /// Retained DP matrices of one lane wave (incremental sessions): the
  /// row-major pIC and count triangles of every node, in the aggregator's
  /// origin-addressed sliding layout (tri_: capacity |T| + slack, shared
  /// window origin).  No cut is kept — the traceback recomputes the cuts
  /// it visits (recompute_cut).  The column-major mirrors are not retained
  /// either — a dirty column's mirror entries are always rewritten before
  /// they are read, so mirrors live in the pooled arena only while a level
  /// is being swept.
  struct WaveDpState {
    std::size_t lanes = 0;
    std::vector<simd::AlignedVec<double>> pic;        ///< per node
    std::vector<simd::AlignedVec<std::int32_t>> cnt;  ///< per node
  };
  struct IncrementalDp {
    std::vector<double> ps;           ///< session probe list, wave-ordered
    std::size_t width = 1;            ///< full-wave lane width
    std::vector<WaveDpState> waves;
    /// Results of the latest run; returned as-is while they are current
    /// (no window move and no dirty column since).
    std::vector<AggregationResult> results;
    bool results_current = false;
    bool valid = false;
  };

  SpatiotemporalAggregator(const MicroscopicModel& model,
                           AggregationOptions options,
                           std::int32_t capacity);

  /// True once run_incremental switched to the origin-addressed layout
  /// (capacity |T| + window_slack(|T|) > |T|).
  [[nodiscard]] bool sliding() const noexcept {
    return tri_.capacity() > tri_.slices();
  }
  /// Layout after a window change to `new_t` slices that dropped
  /// `dropped_front`: the origin advances when the window still fits the
  /// capacity; otherwise (compaction, or a changed |T|) it restarts at 0.
  [[nodiscard]] TriangularIndex next_layout(std::int32_t new_t,
                                            std::int32_t dropped_front) const;
  /// Working set of an offline wave (run/run_many) at the current layout.
  [[nodiscard]] std::size_t wave_bytes(std::size_t lanes) const noexcept;
  /// Working set of an incremental sweep over `layout`: mirrors of the
  /// widest level over the window cells + the measure cache.
  [[nodiscard]] std::size_t incremental_sweep_bytes(
      std::size_t lanes, const TriangularIndex& layout) const noexcept;

  void ensure_measure_cache();
  void check_p(double p) const;
  void check_budget(std::size_t lanes) const;
  [[nodiscard]] std::size_t lane_width(std::size_t probe_count) const noexcept;
  [[nodiscard]] AreaMeasures area_measures(NodeId node, SliceId i,
                                           SliceId j) const noexcept;
  void fill_quality(AggregationResult& result) const;

  AggregationResult run_cached(double p);
  AggregationResult run_reference(double p);
  /// One DP sweep for ps.size() (<= kMaxDpLanes) parameters; appends one
  /// result per lane, in order.
  void run_wave(std::span<const double> ps,
                std::vector<AggregationResult>& out);
  /// One retained DP sweep over cells with j >= first_dirty, splicing the
  /// unchanged prefix from `state`; appends one result per lane.
  void run_wave_incremental(std::span<const double> ps, WaveDpState& state,
                            SliceId first_dirty,
                            std::vector<AggregationResult>& out);
  /// Assembles one AggregationResult per lane from the member DP matrices
  /// (shared tail of run_wave and run_wave_incremental); `parallel` runs
  /// one pool task per lane.  `stored_cuts` traces back through cut_;
  /// otherwise each visited cut is recomputed (recompute_cut).
  void extract_wave_results(std::span<const double> ps,
                            std::vector<AggregationResult>& out,
                            bool parallel, bool stored_cuts);
  /// Sweeps one level's nodes over the cells with j >= first_dirty:
  /// sibling subtrees in parallel, single-node levels (notably the root)
  /// serially on the caller thread — the shared scheduling of run_wave and
  /// run_wave_incremental.  `store_cuts` writes cut_ (offline waves).
  void sweep_level(std::span<const NodeId> nodes, std::span<const double> ps,
                   double gain_scale, double loss_scale, SliceId first_dirty,
                   bool store_cuts);

  /// One cell of a W-lane wave: the no-cut term, the spatial cut and the
  /// screened temporal-cut scan (header comment).  Vec = true (lane widths
  /// divisible by 4 only, selected by options_.use_simd) routes the
  /// across-lane batches — the no-cut multiply-add, the spatial child
  /// fold, the temporal screen and the writeback — through the simd.hpp
  /// wrappers; Vec = false is the always-instantiated scalar twin,
  /// bit-identical by the across-chains vectorization rule.
  template <int W, bool Vec>
  void compute_cell_lanes(const LaneScan& scan, SliceId i,
                          SliceId j) const noexcept;
  /// Sweeps the cells with j >= first_dirty (0 = the full triangle) in a
  /// dependency-respecting order.
  template <int W, bool Vec>
  void compute_node_lanes_w(const LaneScan& scan, SliceId first_dirty);
  void compute_node_lanes(const LaneScan& scan, SliceId first_dirty);
  void compute_node_reference(NodeId node, double p, double gain_scale,
                              double loss_scale);
  [[nodiscard]] LaneScan make_scan(NodeId node, std::span<const double> ps,
                                   double gain_scale, double loss_scale,
                                   bool store_cuts,
                                   std::vector<const double*>& child_pic,
                                   std::vector<const std::int32_t*>& child_cnt);
  /// Traces the optimal partition back from the root cell; `cut_of(node,
  /// i, j)` yields the first cut of a visited cell.
  template <class CutOf>
  void extract_partition(Partition& out, const CutOf& cut_of) const;
  /// The sweep's cut decision for lane `lane` of window cell (node, i, j),
  /// replayed from the retained pIC/count of the node, its children and
  /// its sub-cells (incremental runs, scales 1).
  [[nodiscard]] std::int32_t recompute_cut(NodeId node, SliceId i, SliceId j,
                                           std::size_t lane,
                                           std::size_t lanes,
                                           double p) const noexcept;

  // Buffer pool: pIC/mirror/count matrices hold tri_.size() * W cells, so a
  // released buffer is recycled with at most a cheap resize when the lane
  // width changes between waves — the arena survives across runs, bounding
  // live pIC/count buffers to two adjacent levels while eliminating the
  // per-run allocation churn of the original code.  All pooled buffers are
  // 64-byte aligned (simd::AlignedVec): with the cell-major lane
  // interleave, a W = 4 cell's f64x4 load is 32-byte aligned and a W = 8
  // cell's per-lane state is exactly one cache line — vector accesses
  // never split a line.
  [[nodiscard]] simd::AlignedVec<double> acquire_dbl(std::size_t n);
  [[nodiscard]] simd::AlignedVec<std::int32_t> acquire_i32(std::size_t n);
  void release(simd::AlignedVec<double>&& buf);
  void release(simd::AlignedVec<std::int32_t>&& buf);

  const MicroscopicModel* model_;
  AggregationOptions options_;
  DataCube cube_;
  /// Cell layout shared by the measure cache and every DP matrix:
  /// capacity |T| and origin 0 offline, the origin-addressed sliding
  /// layout once run_incremental ran.  Column-major mirrors are indexed by
  /// window cell (col_offset) and sized by tri_.window_cells().
  TriangularIndex tri_;
  std::vector<std::vector<NodeId>> levels_;  ///< nodes grouped by depth
  MeasureCache cache_;                       ///< p-independent (gain, loss)
  double cache_build_seconds_ = 0.0;
  std::vector<simd::AlignedVec<double>> pic_;  ///< per-node packed pIC
  /// Column-major pIC mirrors.
  std::vector<simd::AlignedVec<double>> mirror_;
  /// Column-major mirrors of cnt_, so the tie-breaker's right operand
  /// count(c+1, j) is a contiguous read like the pIC mirror's.
  std::vector<simd::AlignedVec<std::int32_t>> cmirror_;
  /// Per-node packed cuts (offline runs only).
  std::vector<simd::AlignedVec<std::int32_t>> cut_;
  /// Area count of the optimal sub-partition per cell; used only as the
  /// tie-breaker that keeps equal-pIC partitions maximally coarse.
  std::vector<simd::AlignedVec<std::int32_t>> cnt_;
  std::vector<simd::AlignedVec<double>> dbl_pool_;
  std::vector<simd::AlignedVec<std::int32_t>> i32_pool_;
  std::unique_ptr<IncrementalDp> inc_;  ///< retained per-wave DP state
  /// First column whose DP state is stale relative to the retained
  /// checkpoint; tri_.slices() when clean.  Maintained by
  /// apply_window_update, reset by run_incremental.
  SliceId inc_dirty_ = 0;
  std::size_t relocated_cells_ = 0;  ///< see relocated_cells()
};

}  // namespace stagg
