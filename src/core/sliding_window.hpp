// SlidingWindowSession: incremental spatiotemporal aggregation over a
// moving time window of a live trace.
//
// The batch pipeline (trace -> model -> DataCube -> MeasureCache -> DP) is
// an offline, whole-trace analysis; this session turns it into a streaming
// one by exploiting the *dirty-column invariant*:
//
//   Every derived cell — a cube per-slice column, a cached (gain, loss)
//   triangle cell (i, j), a DP cell pIC/cut/count(i, j) — is a pure
//   function of the per-slice trace data inside its interval [i, j]
//   (translation-invariant accumulation, see cube.hpp).  When only a time
//   suffix of the window changes, every cell whose column j precedes the
//   first dirty slice is therefore *bit-identical* to its previous value
//   and is spliced from the retained state; only cells with j >= the first
//   dirty column are recomputed.  When the window slides by k slices, cell
//   (i, j) of the new window equals cell (i+k, j+k) of the old one and is
//   remapped by a pure relocation instead of recomputed.
//
// Since the multi-session refactor the session no longer owns a mutable
// event blob: it reads an immutable chunked TraceStore through zero-copy
// TraceViews (chunk-fence pruning selects the window, a merge cursor
// yields the sorted interval stream).  A session either *owns* its store
// exclusively (the classic single-analysis mode: it may append, seal and
// evict) or *shares* it with other sessions under a SessionManager, which
// then owns ingest, sealing and eviction — N sessions with different
// windows, slice counts, hierarchy scopes and probe sets read the same
// chunks, so the trace bytes are paid once, not N times.
//
// Half-open edge convention (shared with the trace readers and the model
// builder): a state occupies [begin, end).  An event whose end lies
// exactly on a slice edge or on the window end contributes nothing past
// it; one whose begin lies exactly on an edge contributes nothing before
// it; a zero-duration event contributes nowhere.  During append() the
// convention is what guarantees an event's mass lands in exactly one of
// the old-suffix / new-suffix partitions — never in both.
//
// Usage (exclusive store):
//   SlidingWindowSession session(hierarchy, std::move(trace),
//                                TimeGrid(t0, t0 + span, 96), {0.25, 0.5});
//   session.append(resource, state, begin_ns, end_ns);  // stage events
//   const auto& results = session.slide(4);  // drop 4 slices, append 4
//
// Windows must have a uniform slice width (span divisible by the count) so
// slice edges of derived windows stay exact; see TimeGrid::advanced.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregator.hpp"
#include "model/microscopic_model.hpp"
#include "trace/trace.hpp"
#include "trace/trace_store.hpp"
#include "trace/trace_view.hpp"

namespace stagg {

class ShardedTraceStore;

/// Who may mutate the session's TraceStore.
enum class StoreOwnership : std::uint8_t {
  /// The session owns the store: append() stages events, every advance
  /// seals them and (optionally) evicts dead chunks.
  kExclusive,
  /// The store is shared with other sessions (a SessionManager owns
  /// ingest, sealing and eviction); append() throws, advances require the
  /// store to be sealed.
  kShared,
};

/// Knobs of a sliding-window session.
struct SlidingWindowOptions {
  /// Aggregation options of the retained DP; the kernel must be a cached
  /// one and normalize must stay false (run_incremental's requirements).
  AggregationOptions aggregation;
  /// Match trace resources to hierarchy leaves by path (see build_model).
  bool match_by_path = true;
  /// Evict chunks that can no longer overlap the window after a slide
  /// (bounds the session's trace memory; never affects results).
  /// Exclusive stores only — a SessionManager evicts centrally.
  bool prune_trace = true;
  /// Byte budget for the store's *resident* sealed chunk columns.  When
  /// non-zero, every advance additionally spills the coldest chunks to
  /// `spill_path` (required alongside) and maps them back on view
  /// selection — eviction bounds what is retained, the budget bounds what
  /// of it stays in anonymous memory.  Never affects results.  Exclusive
  /// stores only: shared-store sessions must leave this 0 (attach throws
  /// otherwise) — the SessionManager owns the shared memory policy.
  std::size_t memory_budget_bytes = 0;
  std::string spill_path;
  /// Seal-time chunk compression policy of the session's store (kAuto:
  /// sealed chunks keep delta/dictionary-encoded columns whenever that
  /// shrinks them; views streaming-decode them — never affects results).
  /// Composes with the budget: compressed chunks count their encoded
  /// bytes, so the same budget retains 3-5x more trace before spilling.
  /// Exclusive stores only — shared-store sessions must leave kNone
  /// (attach throws otherwise); set the policy on the SessionManager.
  ChunkCompression compression = ChunkCompression::kNone;
};

class SlidingWindowSession {
 public:
  /// Takes ownership of the initial trace's store and aggregates it over
  /// `window` (which must have a uniform slice width) for the probe
  /// parameters `ps`.  Results are available immediately via results().
  SlidingWindowSession(const Hierarchy& hierarchy, Trace trace,
                       const TimeGrid& window, std::vector<double> ps,
                       SlidingWindowOptions options = {});

  /// Aggregates over a store, exclusively owned or shared (see
  /// StoreOwnership).  With a shared store the hierarchy may *scope* the
  /// session to a subset of store resources: every hierarchy leaf path
  /// must name a store resource; other resources are outside the view.
  SlidingWindowSession(const Hierarchy& hierarchy,
                       std::shared_ptr<TraceStore> store,
                       const TimeGrid& window, std::vector<double> ps,
                       SlidingWindowOptions options = {},
                       StoreOwnership ownership = StoreOwnership::kExclusive);

  /// Aggregates over a sharded store — always shared (a SessionManager or
  /// test harness owns ingest, sealing and eviction).  Hierarchy scoping
  /// works as in the shared single-store ctor; every view routes each
  /// resource to its owning shard, so results are bit-identical to the
  /// same intervals held in one monolithic store.  Unless
  /// options.aggregation.shard_plan is already set, the session adopts the
  /// store's ShardPlan for its aggregator (partitioned cube fold and
  /// per-shard cache schedule).  store()/trace() resolve to shard 0.
  SlidingWindowSession(const Hierarchy& hierarchy,
                       std::shared_ptr<const ShardedTraceStore> sharded,
                       const TimeGrid& window, std::vector<double> ps,
                       SlidingWindowOptions options = {});

  SlidingWindowSession(const SlidingWindowSession&) = delete;
  SlidingWindowSession& operator=(const SlidingWindowSession&) = delete;

  /// Stages one state occurrence [begin, end); it becomes visible at the
  /// next slide/extend/contract/refresh.  The state must already be
  /// registered (a new state would change the model dimensions — start a
  /// new session for that).  Events may land anywhere, but only events
  /// confined to the window's time suffix keep the next advance
  /// incremental; an event reaching back dirties every column from its
  /// begin slice on.  Exclusive stores only — shared-store sessions
  /// ingest through their SessionManager.
  void append(ResourceId resource, StateId state, TimeNs begin, TimeNs end);
  /// Convenience overload resolving an *existing* state by name (throws
  /// InvalidArgument on unknown names instead of interning).
  void append(ResourceId resource, std::string_view state_name, TimeNs begin,
              TimeNs end);

  /// Tells a shared-store session that events were ingested into the
  /// store externally (by the SessionManager), the earliest beginning at
  /// `earliest_begin` — the next advance recomputes from that timestamp's
  /// column.  No-op for timestamps at or past the current window end.
  void note_external_ingest(TimeNs earliest_begin) noexcept;

  /// Slides the window forward by `slices` (fixed |T|): the leading
  /// `slices` columns are dropped, the surviving ones remapped by column
  /// shift, and only the appended suffix recomputed.
  const std::vector<AggregationResult>& slide(std::int32_t slices);
  /// Grows the window by `slices` new trailing slices (|T| increases).
  const std::vector<AggregationResult>& extend(std::int32_t slices);
  /// Shrinks the window by `slices` trailing slices (|T| decreases).  A
  /// pure truncation: no cell is recomputed unless staged events dirtied
  /// the surviving suffix.
  const std::vector<AggregationResult>& contract(std::int32_t slices);
  /// Re-aggregates the current window with the staged events folded in.
  const std::vector<AggregationResult>& refresh();

  /// Results of the latest advance, one per probe parameter, in order.
  [[nodiscard]] const std::vector<AggregationResult>& results() const noexcept {
    return results_;
  }
  [[nodiscard]] std::span<const double> probes() const noexcept { return ps_; }
  [[nodiscard]] const TimeGrid& window() const noexcept {
    return model_.grid();
  }
  [[nodiscard]] const MicroscopicModel& model() const noexcept {
    return model_;
  }
  /// Row-facade over the session's store (compatibility accessor; copying
  /// it yields an independent trace sharing the sealed chunks).
  [[nodiscard]] const Trace& trace() const noexcept { return facade_; }
  [[nodiscard]] const TraceStore& store() const noexcept { return *store_; }
  [[nodiscard]] const std::shared_ptr<TraceStore>& store_ptr() const noexcept {
    return store_;
  }
  [[nodiscard]] StoreOwnership ownership() const noexcept {
    return ownership_;
  }
  /// The sharded store this session reads, or null for single-store
  /// sessions (store() then returns the whole store, not a shard).
  [[nodiscard]] const std::shared_ptr<const ShardedTraceStore>&
  sharded_store_ptr() const noexcept {
    return sharded_;
  }
  /// Store resources this session reads (empty = all, in store order).
  [[nodiscard]] std::span<const ResourceId> scope() const noexcept {
    return scope_;
  }
  [[nodiscard]] const SpatiotemporalAggregator& aggregator() const noexcept {
    return agg_;
  }

  /// First dirty column the *next* advance would recompute from
  /// (slice_count() when the retained state is clean) — exposed for tests
  /// and instrumentation of the dirty-column invariant.
  [[nodiscard]] SliceId pending_dirty_slice() const noexcept;

  /// From-scratch oracle: builds a fresh model over the current window
  /// from a sealed snapshot of the store (same scope) and runs
  /// run_many(ps) on a fresh aggregator with the given kernel.  The
  /// splice tests assert bit-identity of results() against this at every
  /// step.
  [[nodiscard]] std::vector<AggregationResult> run_from_scratch(
      DpKernel kernel = DpKernel::kCachedWavefront) const;

 private:
  const std::vector<AggregationResult>& advance_to(const TimeGrid& new_grid,
                                                   std::int32_t dropped_front);
  [[nodiscard]] TraceView make_view(const TimeGrid& grid) const;
  [[nodiscard]] std::vector<LeafId> map_leaves() const;
  /// Spills cold chunks down to options_.memory_budget_bytes (exclusive
  /// stores with a budget; no-op otherwise).
  void enforce_memory_budget();

  const Hierarchy* hierarchy_;
  SlidingWindowOptions options_;
  /// Sharded-store mode: non-null for sessions over a ShardedTraceStore;
  /// store_ then aliases shard 0 (its registry mirrors the facade's) and
  /// every view routes resources through the facade.
  std::shared_ptr<const ShardedTraceStore> sharded_;
  std::shared_ptr<TraceStore> store_;
  StoreOwnership ownership_ = StoreOwnership::kExclusive;
  /// Store resources backing the hierarchy's leaves; empty when the
  /// hierarchy covers the whole store (full view).
  std::vector<ResourceId> scope_;
  /// Their paths in scope order, computed once and shared with every view
  /// this session builds (one per advance); null for full views.
  std::shared_ptr<const std::vector<std::string>> scope_paths_;
  Trace facade_;
  MicroscopicModel model_;
  /// View resource -> hierarchy leaf, resolved once at attach: the
  /// hierarchy and scope are fixed, and store resources are append-only,
  /// so refold_suffix only has to check the view's resource count.
  std::vector<LeafId> leaf_of_;
  SpatiotemporalAggregator agg_;
  std::vector<double> ps_;
  std::vector<AggregationResult> results_;
  /// Earliest timestamp whose fold state is not yet reflected in the
  /// model: min begin of staged events, or the window end when only the
  /// not-yet-visible tail beyond the window is outstanding.
  TimeNs dirty_from_ns_ = 0;
};

}  // namespace stagg
