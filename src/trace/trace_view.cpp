#include "trace/trace_view.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "trace/sharded_store.hpp"

namespace stagg {

namespace {

void check_store(const std::shared_ptr<const TraceStore>& store) {
  if (!store) throw InvalidArgument("TraceView: null store");
  if (!store->tails_sealed()) {
    throw InvalidArgument(
        "TraceView: store has unsealed tail intervals (call seal_chunk() "
        "before taking views)");
  }
}

}  // namespace

TraceView::TraceView(std::shared_ptr<const TraceStore> store)
    : store_(std::move(store)) {
  check_store(store_);
  if (!store_->sealed()) {
    throw InvalidArgument(
        "TraceView: full-window view requires a sealed store "
        "(call seal_chunk() first)");
  }
  t0_ = store_->begin();
  t1_ = store_->end();
  init({}, nullptr);
}

TraceView::TraceView(std::shared_ptr<const TraceStore> store, TimeNs t0,
                     TimeNs t1)
    : TraceView(std::move(store), t0, t1, {}, nullptr) {}

TraceView::TraceView(std::shared_ptr<const TraceStore> store, TimeNs t0,
                     TimeNs t1, std::span<const ResourceId> scope,
                     std::shared_ptr<const std::vector<std::string>>
                         scope_paths)
    : store_(std::move(store)), t0_(t0), t1_(t1) {
  check_store(store_);
  if (t1_ < t0_) throw InvalidArgument("TraceView: window end < begin");
  init(scope, std::move(scope_paths));
}

TraceView::TraceView(std::shared_ptr<const ShardedTraceStore> sharded,
                     TimeNs t0, TimeNs t1, std::span<const ResourceId> scope,
                     std::shared_ptr<const std::vector<std::string>>
                         scope_paths)
    : t0_(t0), t1_(t1) {
  if (!sharded) throw InvalidArgument("TraceView: null sharded store");
  sharded_ = std::move(sharded);
  store_ = sharded_->shard_ptr(0);
  if (!sharded_->tails_sealed()) {
    throw InvalidArgument(
        "TraceView: sharded store has unsealed tail intervals (call "
        "seal_chunk() before taking views)");
  }
  if (t1_ < t0_) throw InvalidArgument("TraceView: window end < begin");
  init(scope, std::move(scope_paths));
}

void TraceView::init(
    std::span<const ResourceId> scope,
    std::shared_ptr<const std::vector<std::string>> scope_paths) {
  const auto n = sharded_ != nullptr ? sharded_->resource_count()
                                     : store_->resource_count();
  if (scope.empty()) {
    store_ids_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      store_ids_[r] = static_cast<ResourceId>(r);
    }
    // COW-pinned, zero copies (the facade's global table when sharded).
    paths_ = sharded_ != nullptr ? sharded_->resource_paths_ptr()
                                 : store_->resource_paths_ptr();
    select_runs();
    return;
  }
  store_ids_.assign(scope.begin(), scope.end());
  for (const ResourceId r : store_ids_) {
    if (r < 0 || static_cast<std::size_t>(r) >= n) {
      throw InvalidArgument("TraceView: scope references unknown resource " +
                            std::to_string(r));
    }
  }
  if (scope_paths != nullptr) {
    if (scope_paths->size() != store_ids_.size()) {
      throw InvalidArgument(
          "TraceView: scope_paths size does not match the scope");
    }
    paths_ = std::move(scope_paths);
  } else {
    auto paths = std::make_shared<std::vector<std::string>>();
    paths->reserve(store_ids_.size());
    for (const ResourceId r : store_ids_) {
      paths->push_back(sharded_ != nullptr ? sharded_->resource_path(r)
                                           : store_->resource_path(r));
    }
    paths_ = std::move(paths);
  }
  select_runs();
}

std::span<const TraceChunkPtr> TraceView::chunks_of(
    std::size_t view_resource) const {
  const ResourceId id = store_ids_[view_resource];
  if (sharded_ != nullptr) {
    const ShardedTraceStore::Route rt = sharded_->route(id);
    return sharded_->shard(rt.shard).chunks(rt.local);
  }
  return store_->chunks(id);
}

void TraceView::select_runs() {
  runs_.resize(store_ids_.size());
  concat_ok_.assign(store_ids_.size(), 1);
  for (std::size_t r = 0; r < store_ids_.size(); ++r) {
    auto& runs = runs_[r];
    runs.clear();
    for (const TraceChunkPtr& chunk : chunks_of(r)) {
      // Fence test: can any interval of this chunk overlap [t0, t1)?
      if (chunk->min_begin() >= t1_ || chunk->max_end() <= t0_) continue;
      Run run{chunk, 0, chunk->first(), chunk->first(), 0};
      if (chunk->lead_max_end() <= t0_) {
        // Lead fence: only the last interval (which ends past t0) can.
        if (chunk->last().begin >= t1_) continue;
        run.size = 1;
        run.first = run.last = chunk->last();
        run.last_only = true;
      } else if (!chunk->addressable() && chunk->last().begin >= t1_) {
        // A compressed chunk reaching past t1: finding its prefix would
        // decode it once here and again in for_each, so the cursor stops
        // at the first begin >= t1 instead (min_begin < t1, so the prefix
        // is not empty).
        run.size = chunk->size();
        run.last = chunk->last();
        run.to_t1 = true;
      } else {
        // Begins are sorted: entries with begin >= t1 are a prunable
        // suffix.
        run.size = chunk->prefix_below(t1_, &run.last);
        if (run.size == 0) continue;
      }
      if (!chunk->resident() && !run.last_only) {
        // The cursors read this file-backed run front-to-back, starting
        // now: tell the pager.
        chunk->advise(MapAdvice::kSequential);
        chunk->advise(MapAdvice::kWillNeed);
      }
      if (!chunk->addressable()) {
        // A last-only run holds no cursor on the concatenation path but
        // streams its chunk on the merge path (see for_each).
        run.scratch = ChunkCursor(*chunk, 1).scratch_bytes();
      }
      runs.push_back(std::move(run));
    }
    for (std::size_t k = 0; k + 1 < runs.size(); ++k) {
      if (interval_key_less(runs[k + 1].first, runs[k].last)) {
        concat_ok_[r] = 0;
        break;
      }
    }
  }
}

std::uint64_t TraceView::selected_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& runs : runs_) {
    for (const Run& run : runs) n += run.size;
  }
  return n;
}

std::size_t TraceView::spilled_run_count() const noexcept {
  std::size_t n = 0;
  for (const auto& runs : runs_) {
    for (const Run& run : runs) n += run.chunk->resident() ? 0 : 1;
  }
  return n;
}

std::size_t TraceView::compressed_run_count() const noexcept {
  std::size_t n = 0;
  for (const auto& runs : runs_) {
    for (const Run& run : runs) n += run.chunk->addressable() ? 0 : 1;
  }
  return n;
}

std::size_t TraceView::cursor_scratch_bytes() const noexcept {
  // for_each streams one resource at a time; the merge path holds every
  // run's cursor of that resource at once, so the worst resource bounds
  // the live scratch.
  std::size_t worst = 0;
  for (const auto& runs : runs_) {
    std::size_t total = 0;
    for (const Run& run : runs) total += run.scratch;
    worst = std::max(worst, total);
  }
  return worst;
}

}  // namespace stagg
