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
// The session reads an immutable chunked ShardedTraceStore through
// zero-copy TraceViews (chunk-fence pruning selects the window, a merge
// cursor yields the sorted interval stream).  A session built from a Trace
// is *exclusive*: it wraps the trace's store in a one-shard facade, stages
// append()ed events into it and, at every advance, seals them and evicts
// the chunks behind the window.  A session built from a ShardedTraceStore
// is *shared*: a SessionManager owns ingest, sealing, eviction, the memory
// budget and the compression policy, and N sessions with different
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
#include "trace/sharded_store.hpp"
#include "trace/trace.hpp"
#include "trace/trace_view.hpp"

namespace stagg {

/// Analysis knobs of a sliding-window session.  Store policy — memory
/// budget, spill file, compression — belongs to the SessionManager (a
/// one-session manager gives a single analysis the same policy).
struct SlidingWindowOptions {
  /// Aggregation options of the retained DP; the kernel must be a cached
  /// one and normalize must stay false (run_incremental's requirements).
  AggregationOptions aggregation;
  /// Match trace resources to hierarchy leaves by path (see build_model).
  bool match_by_path = true;
};

class SlidingWindowSession {
 public:
  /// Exclusive: wraps the initial trace's store in a one-shard facade,
  /// writes through it, and aggregates it over `window` (which must have a
  /// uniform slice width) for the probe parameters `ps`.  Results are
  /// available immediately via results().
  SlidingWindowSession(const Hierarchy& hierarchy, Trace trace,
                       const TimeGrid& window, std::vector<double> ps,
                       SlidingWindowOptions options = {});

  /// Shared: reads `store`, whose owner (a SessionManager or a test
  /// harness) ingests, seals and evicts; the store must be sealed at
  /// attach and at every advance.  The hierarchy may *scope* the session
  /// to a subset of store resources: every hierarchy leaf path must name a
  /// store resource; other resources are outside the view.  Every view
  /// routes each resource to its owning shard, so results are
  /// bit-identical at every shard count.  When the store has more than one
  /// shard and options.aggregation.shard_plan is unset, the session adopts
  /// the store's ShardPlan (partitioned cube fold and per-shard cache
  /// schedule); one shard keeps the flat schedule.
  SlidingWindowSession(const Hierarchy& hierarchy,
                       std::shared_ptr<ShardedTraceStore> store,
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
  /// begin slice on.  Exclusive sessions only — shared sessions ingest
  /// through their SessionManager.
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
  /// Row-facade over shard 0 — the whole store of an exclusive session
  /// (compatibility accessor; copying it yields an independent trace
  /// sharing the sealed chunks).
  [[nodiscard]] const Trace& trace() const noexcept { return facade_; }
  /// Shard 0: the Trace's store for an exclusive session, the caller's
  /// store under a SessionManager built from a TraceStore.
  [[nodiscard]] const TraceStore& store() const noexcept {
    return store_->shard(0);
  }
  [[nodiscard]] const std::shared_ptr<TraceStore>& store_ptr() const noexcept {
    return store_->shard_ptr(0);
  }
  /// The facade this session reads.
  [[nodiscard]] std::shared_ptr<const ShardedTraceStore> sharded_store_ptr()
      const noexcept {
    return store_;
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
      DpKernel kernel = DpKernel::kCached) const;

 private:
  SlidingWindowSession(const Hierarchy& hierarchy,
                       std::shared_ptr<ShardedTraceStore> store,
                       bool exclusive, const TimeGrid& window,
                       std::vector<double> ps, SlidingWindowOptions options);

  const std::vector<AggregationResult>& advance_to(const TimeGrid& new_grid,
                                                   std::int32_t dropped_front);
  /// Readies the store for a fold over `grid`: an exclusive session seals
  /// its staged events (evicting behind the window first when
  /// `evict`); a shared one checks that its owner sealed them.
  void sync_store(const TimeGrid& grid, bool evict);
  [[nodiscard]] TraceView make_view(TimeNs begin, TimeNs end) const;
  [[nodiscard]] std::vector<LeafId> map_leaves() const;

  const Hierarchy* hierarchy_;
  SlidingWindowOptions options_;
  std::shared_ptr<ShardedTraceStore> store_;
  /// Built from a Trace: the session is the store's only writer.
  bool exclusive_;
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
