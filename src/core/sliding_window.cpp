#include "core/sliding_window.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "model/builder.hpp"
#include "trace/sharded_store.hpp"

namespace stagg {

namespace {

TimeGrid make_initial_grid(const TimeGrid& window) {
  if (window.uniform_dt_ns() == 0) {
    throw InvalidArgument(
        "SlidingWindowSession: the window span must be divisible by the "
        "slice count (uniform dt) so derived windows stay exact");
  }
  return window;
}

/// Store resources backing the hierarchy's leaves, in leaf order; empty
/// when the hierarchy spans the whole store (full view — the classic
/// one-trace-one-analysis case).  Scoping is a *shared-store* feature: an
/// exclusive session keeps the historical contract that a hierarchy/trace
/// resource-count mismatch is an error (map_resources throws), never a
/// silent subset analysis.  A scoped session requires path matching: leaf
/// order has no meaning against a larger store.
std::vector<ResourceId> compute_scope(const Hierarchy& hierarchy,
                                      const ShardedTraceStore& store,
                                      bool match_by_path, bool exclusive) {
  if (exclusive || hierarchy.leaf_count() == store.resource_count()) {
    return {};
  }
  if (!match_by_path) {
    throw DimensionError(
        "session scope: a hierarchy covering a subset of store resources "
        "requires match_by_path");
  }
  std::vector<ResourceId> scope;
  scope.reserve(hierarchy.leaf_count());
  for (LeafId leaf = 0; leaf < static_cast<LeafId>(hierarchy.leaf_count());
       ++leaf) {
    const std::string path = hierarchy.path(hierarchy.leaf_node(leaf));
    const ResourceId r = store.find_resource(path);
    if (r == kInvalidResource) {
      throw DimensionError("session scope: hierarchy leaf '" + path +
                           "' is not a store resource");
    }
    scope.push_back(r);
  }
  return scope;
}

/// The one place the S = 1 schedule rule lives: a multi-shard store lends
/// the aggregator its ShardPlan (partitioned cube fold + per-shard cache
/// schedule), while one shard keeps the flat schedule — a one-shard plan
/// would only coarsen the cache update to one task per node.  Both are
/// bit-identical by the cube/cache contracts.  Also the null check: it
/// must run before any member initializer dereferences the handle.
SlidingWindowOptions adopt_shard_plan(
    SlidingWindowOptions options,
    const std::shared_ptr<ShardedTraceStore>& store) {
  if (!store) {
    throw InvalidArgument("SlidingWindowSession: null trace store");
  }
  if (options.aggregation.shard_plan == nullptr &&
      store->shard_count() > 1) {
    options.aggregation.shard_plan = &store->plan();
  }
  return options;
}

}  // namespace

SlidingWindowSession::SlidingWindowSession(const Hierarchy& hierarchy,
                                           Trace trace, const TimeGrid& window,
                                           std::vector<double> ps,
                                           SlidingWindowOptions options)
    : SlidingWindowSession(
          hierarchy,
          std::make_shared<ShardedTraceStore>(hierarchy, trace.store()),
          /*exclusive=*/true, window, std::move(ps), std::move(options)) {}

SlidingWindowSession::SlidingWindowSession(
    const Hierarchy& hierarchy, std::shared_ptr<ShardedTraceStore> store,
    const TimeGrid& window, std::vector<double> ps,
    SlidingWindowOptions options)
    : SlidingWindowSession(hierarchy, std::move(store), /*exclusive=*/false,
                           window, std::move(ps), std::move(options)) {}

SlidingWindowSession::SlidingWindowSession(
    const Hierarchy& hierarchy, std::shared_ptr<ShardedTraceStore> store,
    bool exclusive, const TimeGrid& window, std::vector<double> ps,
    SlidingWindowOptions options)
    : hierarchy_(&hierarchy),
      options_(adopt_shard_plan(std::move(options), store)),
      store_(std::move(store)),
      exclusive_(exclusive),
      scope_(compute_scope(hierarchy, *store_, options_.match_by_path,
                           exclusive)),
      scope_paths_([&]() -> std::shared_ptr<const std::vector<std::string>> {
        if (scope_.empty()) return nullptr;
        auto paths = std::make_shared<std::vector<std::string>>();
        paths->reserve(scope_.size());
        for (const ResourceId r : scope_) {
          paths->push_back(store_->resource_path(r));
        }
        return paths;
      }()),
      facade_(store_->shard_ptr(0)),
      model_([&]() -> MicroscopicModel {
        const TimeGrid grid = make_initial_grid(window);
        sync_store(grid, /*evict=*/false);
        // A window reaching behind the eviction horizon would silently
        // aggregate over already-unlinked chunks and break the
        // bit-identity-with-a-private-copy contract.
        if (grid.begin() < store_->evict_horizon()) {
          throw InvalidArgument(
              "SlidingWindowSession: window begins at " +
              std::to_string(grid.begin()) +
              " ns, before the store's eviction horizon (" +
              std::to_string(store_->evict_horizon()) +
              " ns) — events there are already evicted");
        }
        ModelBuildOptions build;
        build.slice_count = grid.slice_count();
        build.match_by_path = options_.match_by_path;
        build.window_begin = grid.begin();
        build.window_end = grid.end();
        return build_model(make_view(grid.begin(), grid.end()), hierarchy,
                           build);
      }()),
      leaf_of_(map_leaves()),
      agg_(SpatiotemporalAggregator::sliding_layout(model_,
                                                    options_.aggregation)),
      ps_(std::move(ps)) {
  results_ = agg_.run_incremental(ps_);
  dirty_from_ns_ = window.end();
}

void SlidingWindowSession::sync_store(const TimeGrid& grid, bool evict) {
  if (!exclusive_) {
    if (!store_->tails_sealed()) {
      throw InvalidArgument(
          "SlidingWindowSession: shared store has unsealed events (its "
          "owner seals before attaching or advancing sessions)");
    }
    return;
  }
  if (evict) store_->evict_before(grid.begin());
  store_->set_window(grid.begin(), grid.end());
  store_->seal_chunk();
}

TraceView SlidingWindowSession::make_view(TimeNs begin, TimeNs end) {
  ++views_built_;
  return TraceView(store_, begin, end, scope_, scope_paths_);
}

std::vector<LeafId> SlidingWindowSession::map_leaves() const {
  return map_resources(
      scope_paths_ != nullptr ? *scope_paths_ : *store_->resource_paths_ptr(),
      *hierarchy_, options_.match_by_path);
}

void SlidingWindowSession::append(ResourceId resource, StateId state,
                                  TimeNs begin, TimeNs end) {
  if (!exclusive_) {
    throw InvalidArgument(
        "SlidingWindowSession::append: shared-store sessions ingest through "
        "their SessionManager");
  }
  if (state < 0 ||
      static_cast<std::size_t>(state) >= store_->states().size()) {
    throw InvalidArgument(
        "SlidingWindowSession::append: unknown state id " +
        std::to_string(state) +
        " (new states require a new session: they change |X|)");
  }
  store_->add_state(resource, state, begin, end);
  dirty_from_ns_ = std::min(dirty_from_ns_, begin);
}

void SlidingWindowSession::append(ResourceId resource,
                                  std::string_view state_name, TimeNs begin,
                                  TimeNs end) {
  const auto id = store_->states().find(state_name);
  if (!id) {
    throw InvalidArgument(
        "SlidingWindowSession::append: unknown state '" +
        std::string(state_name) +
        "' (new states require a new session: they change |X|)");
  }
  append(resource, *id, begin, end);
}

void SlidingWindowSession::note_external_ingest(TimeNs earliest_begin) noexcept {
  dirty_from_ns_ = std::min(dirty_from_ns_, earliest_begin);
}

SliceId SlidingWindowSession::pending_dirty_slice() const noexcept {
  const TimeGrid& grid = model_.grid();
  if (dirty_from_ns_ >= grid.end()) return grid.slice_count();
  if (dirty_from_ns_ <= grid.begin()) return 0;
  return grid.slice_of(dirty_from_ns_);
}

const std::vector<AggregationResult>& SlidingWindowSession::advance_to(
    const TimeGrid& new_grid, std::int32_t dropped_front) {
  const std::int32_t old_t = model_.slice_count();
  dropped_front = std::min(dropped_front, old_t);

  // 1. Re-layout the tensor: surviving columns relocate bit-exactly.
  model_.reshape_window(new_grid, dropped_front);

  // 2. First dirty column of the new window: the earliest of (a) the first
  // column with no relocated counterpart (appended suffix) and (b) the
  // column holding the earliest staged-event timestamp.
  const auto new_t = new_grid.slice_count();
  const SliceId fresh_from =
      std::clamp<SliceId>(old_t - dropped_front, 0, new_t);
  SliceId staged_from = new_t;
  if (dirty_from_ns_ < new_grid.end()) {
    staged_from = dirty_from_ns_ <= new_grid.begin()
                      ? 0
                      : new_grid.slice_of(dirty_from_ns_);
  }
  const SliceId first_dirty = std::min(fresh_from, staged_from);

  // 3. Unlink chunks that can never overlap the window again and seal
  // staged events into chunks (exclusive sessions; a SessionManager does
  // both centrally for shared stores), then re-fold the dirty suffix
  // through a fresh window view — none when nothing is dirty.
  sync_store(new_grid, /*evict=*/true);
  // The view needs only the chunks that can touch the dirty suffix:
  // selecting from the first dirty slice (not the window begin) lets the
  // chunk fences prune everything wholly behind it — intervals ending
  // before the suffix fold to nothing anyway, and for compressed chunks
  // fence pruning is what skips the stream-decode of cold blocks.
  if (first_dirty < new_t) {
    refold_suffix(model_,
                  make_view(new_grid.slice_begin(first_dirty), new_grid.end()),
                  leaf_of_, first_dirty);
  }

  // 4. Splice every derived structure and re-run the DP over the dirty
  // columns only.
  agg_.apply_window_update(dropped_front, first_dirty);
  results_ = agg_.run_incremental(ps_);
  dirty_from_ns_ = new_grid.end();
  return results_;
}

const std::vector<AggregationResult>& SlidingWindowSession::slide(
    std::int32_t slices) {
  if (slices < 0) {
    throw InvalidArgument("SlidingWindowSession::slide: negative slide");
  }
  return advance_to(model_.grid().advanced(slices), slices);
}

const std::vector<AggregationResult>& SlidingWindowSession::extend(
    std::int32_t slices) {
  return advance_to(model_.grid().extended(slices), 0);
}

const std::vector<AggregationResult>& SlidingWindowSession::contract(
    std::int32_t slices) {
  return advance_to(model_.grid().contracted(slices), 0);
}

const std::vector<AggregationResult>& SlidingWindowSession::refresh() {
  return advance_to(model_.grid(), 0);
}

std::vector<AggregationResult> SlidingWindowSession::run_from_scratch(
    DpKernel kernel) const {
  // Sealed snapshot of every shard: shares the immutable chunks, seals any
  // staged tail (the original also folded staged-but-unadvanced events).
  const TimeGrid& grid = model_.grid();
  const TraceView view(store_->snapshot(), grid.begin(), grid.end(), scope_,
                       scope_paths_);
  ModelBuildOptions build;
  build.slice_count = grid.slice_count();
  build.match_by_path = options_.match_by_path;
  build.window_begin = grid.begin();
  build.window_end = grid.end();
  const MicroscopicModel fresh = build_model(view, *hierarchy_, build);
  AggregationOptions opt = options_.aggregation;
  opt.kernel = kernel;
  SpatiotemporalAggregator agg(fresh, opt);
  return agg.run_many(ps_);
}

}  // namespace stagg
