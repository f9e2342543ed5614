// SessionManager: N concurrent sliding-window analyses over ONE immutable
// chunked store — the multi-view server shape of the paper's workflow,
// where an analyst probes the same execution at several windows,
// hierarchy scopes and trade-off parameters at once.
//
// The store is always a ShardedTraceStore: S shards, or the caller's one
// TraceStore wrapped as the single shard of an S = 1 facade.  The manager
// owns the single-writer side of it and is the only owner of store
// policy: it ingests events into the mutable tails, seals them into
// immutable chunks before every advance, evicts chunks no session can ever
// read again (fence eviction below the minimum window begin across
// sessions), and holds the memory budget and the compression policy.
// Sessions are pure readers: each holds its own model + retained DP state
// but selects the shared chunks through zero-copy TraceViews, so the trace
// bytes are paid once for all N sessions instead of once per session.
//
// Advances run the sessions in parallel on the shared thread pool; the
// pool's help-while-waiting parallel_for makes the sessions' inner DP
// parallelism compose with the outer per-session fan-out (no idle-worker
// deadlock, one pool for everything).
//
// Results are bit-identical to N sessions each owning a private copy of
// the trace: a view merges chunk cursors into the exact sorted interval
// sequence a single-owner trace folds, and each session's incremental DP
// is already bit-identical to its from-scratch oracle.
//
// Usage:
//   auto store = read_binary_trace_store("run.stgt");
//   SessionManager mgr(platform, store);
//   mgr.add_session({TimeGrid(0, seconds(60), 60), {0.25, 0.5}});
//   mgr.add_session({TimeGrid(0, seconds(120), 48), {0.5}, &cluster0});
//   mgr.append(resource, state, begin_ns, end_ns);   // live ingest
//   mgr.slide_all(4);                                // everyone advances
//   mgr.session(0).results();
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/sliding_window.hpp"
#include "hierarchy/hierarchy.hpp"
#include "trace/sharded_store.hpp"
#include "trace/stream_decode.hpp"
#include "trace/trace_store.hpp"

namespace stagg {

/// One session to attach to the shared store.
struct SessionSpec {
  /// Analysis window (uniform slice width required); windows and slice
  /// counts may differ freely between sessions.
  TimeGrid window;
  /// Trade-off probes swept on every advance.
  std::vector<double> ps;
  /// Hierarchy scope; nullptr selects the manager's default hierarchy.  A
  /// hierarchy whose leaves name a subset of store resources scopes the
  /// session to those resources.
  const Hierarchy* hierarchy = nullptr;
  /// Per-session analysis knobs.  Store policy (eviction, memory budget,
  /// compression) is the manager's alone.
  SlidingWindowOptions options;
};

class SessionManager {
 public:
  /// Shares `store` between the sessions to come: seals it and wraps that
  /// same object as the one shard of an S = 1 facade (no chunk is copied;
  /// its spill file, compression policy, window and eviction horizon carry
  /// over, and store()/store_ptr() return it).  `hierarchy` is the default
  /// scope; it must outlive the manager, as must any per-spec hierarchy.
  SessionManager(const Hierarchy& hierarchy,
                 std::shared_ptr<TraceStore> store);

  /// Spans the S shards of `sharded` transparently — ingest routes per
  /// shard, sealing/eviction/compression fan out one task per shard, the
  /// memory budget splits across shards proportionally to their resident
  /// bytes (the global cap still holds exactly after every round), and
  /// sessions attach with global resource ids (plus the store's ShardPlan
  /// for their aggregators when S > 1).  Results are bit-identical at
  /// every shard count.  The store's hierarchy must be `hierarchy` (throws
  /// otherwise).
  SessionManager(const Hierarchy& hierarchy,
                 std::shared_ptr<ShardedTraceStore> sharded);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Attaches a session and runs its initial window; returns its index.
  /// Events already staged via append() become visible to it (they are
  /// sealed first), but to *existing* sessions only at their next advance.
  std::size_t add_session(SessionSpec spec);

  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size();
  }
  [[nodiscard]] SlidingWindowSession& session(std::size_t i) {
    return *sessions_[i];
  }
  [[nodiscard]] const SlidingWindowSession& session(std::size_t i) const {
    return *sessions_[i];
  }

  /// Stages one state occurrence into the shared store; it becomes
  /// visible to every session at its next advance.  The state must
  /// already be registered (sessions pin |X| at creation).
  void append(ResourceId resource, StateId state, TimeNs begin, TimeNs end);
  /// Convenience overload resolving an *existing* state by name.
  void append(ResourceId resource, std::string_view state_name, TimeNs begin,
              TimeNs end);

  /// Seals staged events, slides every session forward by `slices` of its
  /// *own* slice width (parallel over sessions), then evicts dead chunks.
  void slide_all(std::int32_t slices);

  /// Seals staged events and advances every session so its window end
  /// reaches as close to `frontier` as whole slices allow (sessions whose
  /// window already touches the frontier refresh in place) — the live
  /// ingest pattern where one event stream drives differently-paced
  /// windows.  Then evicts dead chunks.  Equivalent to ingest_round().
  void advance_to(TimeNs frontier);

  /// Seals staged events and re-aggregates every current window in place.
  void refresh_all();

  // --- Pipeline stage functions -------------------------------------------
  //
  // The staged ingest pipeline (core/ingest_pipeline.hpp) splits one
  // ingest round into the same three stages the synchronous entry points
  // above compose on the calling thread: bulk ingest (seal worker, the
  // sole TraceStore write side), seal_staged (publishes the sealed
  // watermark), and advance_to_watermark (session fan-out over data
  // guaranteed sealed).  All of these mutate manager or store state and
  // must be externally serialized — the pipeline interleaves its seal and
  // advance workers under one stage mutex; synchronous callers get the
  // serialization for free by staying on one thread.  Only the sessions'
  // inner DP work fans out onto the shared pool.

  /// Appends a batch of id-resolved records to the shared store (the seal
  /// stage's bulk ingest; same visibility semantics as append()).
  void ingest(std::span<const EventRecord> records);

  /// Seals everything staged into immutable chunks and raises the sealed
  /// watermark to `frontier` — the caller's promise that every event
  /// beginning before `frontier` has been ingested.  Monotone (a lower
  /// frontier never lowers the watermark); returns the new watermark.
  TimeNs seal_staged(TimeNs frontier);

  /// The sealed watermark: every event with begin < watermark() is sealed
  /// into immutable chunks and selectable by views.  Starts at the store
  /// end (a freshly attached recorded prefix is complete), raised by
  /// seal_staged().
  [[nodiscard]] TimeNs watermark() const noexcept { return watermark_; }

  /// Advances every session's window end toward `wm` exactly like
  /// advance_to(), but over *already sealed* data only: throws
  /// InvalidArgument when `wm` exceeds watermark(), and seals nothing —
  /// sessions advance only over data guaranteed immutable, which is what
  /// lets a pipeline run this stage while parse workers decode ahead.
  /// Evicts dead chunks and re-enforces the memory budget afterwards.
  void advance_to_watermark(TimeNs wm);

  /// One full synchronous ingest round on the calling thread:
  /// seal_staged(frontier) then advance_to_watermark(frontier).  This is
  /// the pipeline's parse->seal->advance composition collapsed to a
  /// single-threaded shim — advance_to() is an alias, so the historical
  /// entry points and the pipelined path share the exact same stage code
  /// (and stay bit-identical).
  void ingest_round(TimeNs frontier);

  /// Shard 0: the caller's store under the TraceStore ctor; under a
  /// sharded manager only shard 0 (whose registry mirrors the facade's —
  /// use the global accessors below for resources).
  [[nodiscard]] const TraceStore& store() const noexcept {
    return store_->shard(0);
  }
  [[nodiscard]] const std::shared_ptr<TraceStore>& store_ptr()
      const noexcept {
    return store_->shard_ptr(0);
  }
  /// The facade every session reads and every policy acts on.
  [[nodiscard]] const std::shared_ptr<ShardedTraceStore>& sharded_store()
      const noexcept {
    return store_;
  }

  // Global name tables — what pipelines freeze their resolution maps from
  // (store() would expose only shard 0's local table when S > 1).
  [[nodiscard]] std::size_t resource_count() const noexcept {
    return store_->resource_count();
  }
  [[nodiscard]] const std::string& resource_path(ResourceId r) const {
    return store_->resource_path(r);
  }
  [[nodiscard]] const StateRegistry& states() const noexcept {
    return store_->states();
  }

  /// Payload bytes of the shared store — counted once, however many
  /// sessions read it.
  [[nodiscard]] std::size_t store_bytes() const noexcept {
    return store_->store_bytes();
  }

  /// Caps the resident sealed-chunk bytes of the shared store.  When the
  /// budget is non-zero, every advance — after central sealing and fence
  /// eviction — spills the coldest chunks (ascending fence max-end: data
  /// at or just above the minimum live-window begin goes first) to the
  /// store's spill file and maps them back until resident_chunk_bytes()
  /// fits; the cap is also enforced right here and whenever a session
  /// attaches.  Sessions stream spilled chunks through the same view
  /// cursors, so results stay bit-identical to an all-resident run.
  /// `spill_path` configures the store's spill file (`path` at S = 1,
  /// `path.s<k>` per shard otherwise) when it has none yet (required
  /// then); 0 disables the budget.
  void set_memory_budget(std::size_t budget_bytes,
                         const std::string& spill_path = {});
  [[nodiscard]] std::size_t memory_budget() const noexcept {
    return memory_budget_;
  }
  /// Resident (anonymous-heap) split of the shared sealed chunk bytes —
  /// the number the budget bounds (summed across shards); the rest is
  /// file-backed.
  [[nodiscard]] std::size_t resident_chunk_bytes() const noexcept {
    return store_->resident_chunk_bytes();
  }
  /// Earliest window begin across sessions (the eviction horizon); the
  /// store window begin when no session is attached.
  [[nodiscard]] TimeNs min_window_begin() const noexcept;

  /// Structural audit of the manager and its shared store: runs
  /// ShardedTraceStore::audit() and additionally checks the manager's own
  /// contracts — the eviction horizon never past the minimum live window
  /// begin (central eviction must not outrun the sessions), and unsealed
  /// tails only ever paired with a tracked staged frontier (a staged event
  /// the dirty accounting missed would stay invisible to every session).
  /// Throws ContractError on the first violation.  O(store data) — called
  /// at the seal/advance stage boundaries by STAGG_AUDIT in audit builds,
  /// callable directly by tests in any build.
  void audit() const;

  /// Sets the shared store's seal-time compression policy (kAuto keeps
  /// sealed chunks delta/dictionary-encoded whenever that shrinks them,
  /// and re-encodes what is already sealed; views streaming-decode, so
  /// session results never change).  Composes with set_memory_budget:
  /// the budget counts encoded bytes, so it retains 3-5x more shared
  /// trace before spilling.
  void set_compression(ChunkCompression policy);
  [[nodiscard]] ChunkCompression compression() const noexcept {
    return store_->compression();
  }

 private:
  /// The advance stage: distributes the sealed dirty frontier, runs
  /// `advance` over the sessions in parallel, evicts dead chunks and
  /// re-enforces the memory budget.  Callers seal first.
  template <class Advance>
  void run_advance_stage(const Advance& advance);
  void enforce_memory_budget();

  const Hierarchy* hierarchy_;
  /// The shared store (S >= 1 shards; never null).
  std::shared_ptr<ShardedTraceStore> store_;
  std::vector<std::unique_ptr<SlidingWindowSession>> sessions_;
  /// Min begin of events staged since the last seal (ingest dirty
  /// frontier distributed to sessions at the next advance).
  TimeNs staged_min_;
  /// Min begin of events sealed but not yet distributed to the sessions
  /// (accumulates across seal_staged calls between advances).
  TimeNs sealed_dirty_min_;
  /// The sealed watermark (see watermark()).
  TimeNs watermark_ = 0;
  /// Resident-chunk-byte cap enforced after every advance; 0 = unlimited.
  std::size_t memory_budget_ = 0;
};

}  // namespace stagg
