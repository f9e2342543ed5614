// Zero-copy window/scope selection over a shared TraceStore.
//
// A TraceView is an immutable snapshot: it pins the sealed chunks that can
// overlap a half-open time window [t0, t1) — selected by the chunks'
// min/max-time fences without touching the columns — for an optional subset
// of the store's resources (a hierarchy scope).  The store may keep
// mutating (append, seal, evict, compact) after the view is taken; the
// view's shared_ptr chunk references keep exactly its snapshot alive.
//
// for_each(r) streams resource r's selected intervals in (begin, end,
// state) order: a single run degenerates to a linear scan, time-ordered
// runs to sequential scans (straight off the column spans for addressable
// chunks), and overlapping runs to a k-way merge — in all cases the same
// unique sorted sequence a single-chunk store would yield, which is what
// makes model folds bit-identical across chunk layouts.
//
// Entries whose begin lies at or past t1 are pruned per run (begins are
// sorted); entries ending at or before t0 are delivered and clip to
// nothing in the fold — pruning is an optimization, never a semantic.
// One such pruning reads the chunks' lead fence: when every interval of a
// chunk but its last ends at or before t0 (an in-order chunk whose last
// interval straddles into the window), its run is that last interval
// alone, served from the chunk's cache without streaming the columns.
//
// Storage backends: selection *pins* every chunk it keeps — the shared_ptr
// holds the chunk's payload, and a file-backed (spilled) payload holds its
// mmap region — so a view streams resident, spilled and compressed chunks
// through the same ChunkCursors, bit-identically, and survives the store
// spilling, pinning, evicting or compacting any of them mid-stream.
// Selection nudges the pager for file-backed runs (MADV_SEQUENTIAL +
// MADV_WILLNEED: cursors read front-to-back and are about to).
// spilled_run_count() / compressed_run_count() report how many selected
// runs read file-backed / encoded columns, and cursor_scratch_bytes() the
// decoder scratch one full streaming pass holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_store.hpp"

namespace stagg {

class ShardedTraceStore;

class TraceView {
 public:
  TraceView() = default;

  /// Full-window, all-resources view.  Requires a sealed store (the
  /// observation window must be valid).
  explicit TraceView(std::shared_ptr<const TraceStore> store);

  /// Selects [t0, t1) over all resources.  Requires every tail sealed.
  TraceView(std::shared_ptr<const TraceStore> store, TimeNs t0, TimeNs t1);

  /// Selects [t0, t1) over a subset of store resources (a hierarchy
  /// scope), re-indexed densely in the given order.  An empty scope means
  /// all resources.  `scope_paths`, when provided, must hold the paths of
  /// the scope resources in scope order — long-lived scoped readers (a
  /// sliding session building one view per advance) compute them once and
  /// share them across views instead of re-copying strings each time.
  TraceView(std::shared_ptr<const TraceStore> store, TimeNs t0, TimeNs t1,
            std::span<const ResourceId> scope,
            std::shared_ptr<const std::vector<std::string>> scope_paths =
                nullptr);

  /// Selects [t0, t1) over a sharded store (trace/sharded_store.hpp).
  /// Resource ids are the facade's *global* ids; each resource's runs are
  /// selected from its owning shard's chunks, so the view merges the same
  /// per-resource interval sequences a monolithic store holding the same
  /// intervals would yield — folds over a sharded view are bit-identical.
  /// Pins every shard; states()/store() resolve to shard 0 (whose registry
  /// mirrors the facade's).
  TraceView(std::shared_ptr<const ShardedTraceStore> sharded, TimeNs t0,
            TimeNs t1, std::span<const ResourceId> scope = {},
            std::shared_ptr<const std::vector<std::string>> scope_paths =
                nullptr);

  [[nodiscard]] bool valid() const noexcept { return store_ != nullptr; }

  /// Selected window.
  [[nodiscard]] TimeNs begin() const noexcept { return t0_; }
  [[nodiscard]] TimeNs end() const noexcept { return t1_; }

  /// View-local dense resources (the scope), and their paths.  Unscoped
  /// views pin the store's copy-on-write path table (a shared_ptr copy,
  /// no string copies, stable under later add_resource); scoped views
  /// hold — or share via the scope_paths constructor argument — their
  /// re-indexed subset.
  [[nodiscard]] std::size_t resource_count() const noexcept {
    return store_ids_.size();
  }
  [[nodiscard]] const std::vector<std::string>& resource_paths()
      const noexcept {
    return *paths_;
  }
  /// Store id backing view resource `r`.
  [[nodiscard]] ResourceId store_resource(std::size_t r) const {
    return store_ids_[r];
  }

  [[nodiscard]] const StateRegistry& states() const noexcept {
    return store_->states();
  }
  [[nodiscard]] const TraceStore& store() const noexcept { return *store_; }
  [[nodiscard]] const std::shared_ptr<const TraceStore>& store_ptr()
      const noexcept {
    return store_;
  }

  /// Number of intervals selected for delivery (upper bound on the
  /// window's population: per-run begin-pruned, not end-filtered; a
  /// compressed run reaching past t1 counts whole, its cursor stopping at
  /// the first begin >= t1).
  [[nodiscard]] std::uint64_t selected_count() const noexcept;

  /// Number of selected runs whose chunk is file-backed (spilled) rather
  /// than resident — instrumentation for tests and memory accounting.
  [[nodiscard]] std::size_t spilled_run_count() const noexcept;

  /// Number of selected runs whose chunk holds encoded (compressed)
  /// columns and therefore streams through a decoding cursor.
  [[nodiscard]] std::size_t compressed_run_count() const noexcept;

  /// Decoder scratch bytes a full for_each pass over every resource holds
  /// live at once (one fixed-size cursor per compressed run in the
  /// resource currently streaming; this reports the worst resource for
  /// the merge path, i.e. the accounting upper bound).
  [[nodiscard]] std::size_t cursor_scratch_bytes() const noexcept;

  /// Streams view resource `r`'s selected intervals to `f(StateInterval)`
  /// in (begin, end, state) order.
  template <class F>
  void for_each(std::size_t r, F&& f) const {
    const auto& runs = runs_[r];
    if (runs.empty()) return;
    if (runs.size() == 1 || concat_ok_[r] != 0) {
      // Time-ordered runs: sequential scans.  Addressable runs read their
      // column spans directly; compressed runs stream through a decoding
      // cursor (one decoder live at a time).
      for (const Run& run : runs) {
        const TraceChunk& chunk = *run.chunk;
        if (run.last_only || chunk.addressable()) {
          // A last-only run reads its one interval from the run itself,
          // through the same loop (one call site keeps `f` inlined once).
          const TimeNs* begins =
              run.last_only ? &run.last.begin : chunk.begins().data();
          const TimeNs* ends =
              run.last_only ? &run.last.end : chunk.ends().data();
          const StateId* states =
              run.last_only ? &run.last.state : chunk.states().data();
          for (std::size_t i = 0; i < run.size; ++i) {
            f(StateInterval{begins[i], ends[i], states[i]});
          }
          continue;
        }
        for (ChunkCursor c(chunk, run.size); c.valid(); c.next()) {
          if (run.to_t1 && c.current().begin >= t1_) break;
          f(c.current());
        }
      }
      return;
    }
    // Overlapping runs: the canonical k-way merge (k is bounded by the
    // store's per-lane chunk bound, and this path only triggers for
    // genuinely out-of-order ingest).  A last-only run merges as its
    // whole chunk: every begin lies below t1, and the rest clips to
    // nothing.  A to_t1 run merges its exact prefix.
    std::vector<ChunkRun> merge_runs;
    merge_runs.reserve(runs.size());
    for (const Run& run : runs) {
      std::size_t size = run.size;
      if (run.last_only) size = run.chunk->size();
      if (run.to_t1) size = run.chunk->prefix_below(t1_, nullptr);
      merge_runs.push_back({run.chunk.get(), size});
    }
    merge_chunk_runs(std::span<const ChunkRun>(merge_runs),
                     std::forward<F>(f));
  }

 private:
  /// Selected prefix [0, size) of one pinned chunk, with its boundary
  /// intervals (recorded at selection so the concatenation check never
  /// re-decodes compressed chunks) and the cursor scratch one streaming
  /// pass over it holds.  A `last_only` run is the chunk's cached last
  /// interval alone (size 1; see the lead fence above).  A `to_t1` run is
  /// a whole compressed chunk whose cursor stops at the first begin >= t1
  /// (`last` is then the chunk's last, an upper bound of the prefix's).
  struct Run {
    TraceChunkPtr chunk;
    std::size_t size = 0;
    StateInterval first{};
    StateInterval last{};
    std::size_t scratch = 0;
    bool last_only = false;
    bool to_t1 = false;
  };

  void init(std::span<const ResourceId> scope,
            std::shared_ptr<const std::vector<std::string>> scope_paths);
  void select_runs();
  [[nodiscard]] std::span<const TraceChunkPtr> chunks_of(
      std::size_t view_resource) const;

  std::shared_ptr<const TraceStore> store_;
  /// Set for views over a ShardedTraceStore; store_ then aliases shard 0
  /// and chunk selection routes per resource through the facade.
  std::shared_ptr<const ShardedTraceStore> sharded_;
  TimeNs t0_ = 0;
  TimeNs t1_ = 0;
  std::vector<ResourceId> store_ids_;
  /// Pinned path snapshot: the store's COW table for full views, the
  /// re-indexed subset (shareable across one reader's views) when scoped.
  std::shared_ptr<const std::vector<std::string>> paths_;
  std::vector<std::vector<Run>> runs_;
  /// Per view resource: runs are pairwise key-ordered, so concatenation
  /// is already the merged order.
  std::vector<std::uint8_t> concat_ok_;
};

}  // namespace stagg
