// ShardedTraceStore: S per-shard TraceStores under one routing facade.
//
// Resources are assigned to shards by the hierarchy subtree partition of a
// ShardPlan (a resource whose path names a hierarchy leaf lands on that
// leaf's shard; paths outside the hierarchy hash deterministically), so
// every resource lives in exactly one shard.  The facade keeps a global
// resource table — stable global ResourceIds, a COW path table and a
// path index — and a per-resource (shard, local id) route; state
// registries are mirrored into every shard in global intern order, so
// StateIds are identical in every shard and in the facade.
//
// Write routing preserves the single-writer rule *per shard*: ingest()
// buckets a record batch by shard and appends each bucket from exactly one
// parallel task; seal_chunk(), evict_before(), set_compression() and
// spill_cold() fan out with one task (or one serial call) per shard.
// spill_cold() is where the manager's global memory budget becomes a
// per-shard policy: the budget is split proportionally to each shard's
// resident sealed-chunk bytes (floor division, so the shares never sum
// past the cap) and each shard spills to its own file — the global cap
// holds exactly after every enforcement round.  The last split is kept
// for audit()/test accounting.
//
// Read aggregates (begin/end/tails_sealed/byte accounting) fold over the
// shards; because every shard orders its chunks by the same total key and
// a TraceView merges per-resource sequences independent of chunking, a
// sharded store holding the same interval multiset as a monolithic one is
// bit-identical under every view, fold and DP — at every shard count,
// including S = 1.
//
// S = 1 is also how the session stack holds a plain TraceStore: the
// wrapping constructor makes the caller's store object itself shard 0 of a
// one-shard facade (no chunk is copied or re-linked), so SessionManager and
// SlidingWindowSession see one store type whatever they were given, and
// the caller's spill file, compression policy, set window and eviction
// horizon stay in force.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hierarchy/shard_plan.hpp"
#include "trace/stream_decode.hpp"
#include "trace/trace_store.hpp"

namespace stagg {

class ShardedTraceStore {
 public:
  struct Route {
    std::size_t shard;
    ResourceId local;
  };

  /// Empty sharded store: one fresh TraceStore per plan shard.  The
  /// hierarchy must outlive the store and match the plan's.
  ShardedTraceStore(const Hierarchy& hierarchy,
                    std::shared_ptr<const ShardPlan> plan);

  /// One-shard facade over `store`: the caller's object becomes shard 0
  /// as is (shard_ptr(0) returns it), global ids equal its resource ids,
  /// and the plan is a one-shard plan of `hierarchy`.  The facade takes
  /// the store's resource table here, so register resources first; later
  /// writes go through the facade.
  ShardedTraceStore(const Hierarchy& hierarchy,
                    std::shared_ptr<TraceStore> store);

  /// Re-shards an existing store: registers every source resource (global
  /// ids keep the source order), mirrors its state registry, and adopts
  /// the source's sealed chunks zero-copy into the owning shards.  The
  /// source must have sealed tails (seal_chunk first).
  ShardedTraceStore(const Hierarchy& hierarchy,
                    std::shared_ptr<const ShardPlan> plan,
                    const TraceStore& source);

  ShardedTraceStore(const ShardedTraceStore&) = delete;
  ShardedTraceStore& operator=(const ShardedTraceStore&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const ShardPlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] const Hierarchy& hierarchy() const noexcept {
    return *hierarchy_;
  }
  [[nodiscard]] const TraceStore& shard(std::size_t k) const {
    return *shards_[k];
  }
  /// Shard k's store handle (sessions and views pin shards with these).
  [[nodiscard]] const std::shared_ptr<TraceStore>& shard_ptr(
      std::size_t k) const {
    return shards_[k];
  }

  [[nodiscard]] Route route(ResourceId global) const {
    return {static_cast<std::size_t>(
                shard_of_[static_cast<std::size_t>(global)]),
            local_of_[static_cast<std::size_t>(global)]};
  }
  [[nodiscard]] std::size_t shard_of(ResourceId global) const {
    return static_cast<std::size_t>(
        shard_of_[static_cast<std::size_t>(global)]);
  }

  // --- Global resource table (same contract as TraceStore) ---------------
  ResourceId add_resource(std::string_view path);
  [[nodiscard]] std::size_t resource_count() const noexcept {
    return resource_paths_->size();
  }
  [[nodiscard]] const std::string& resource_path(ResourceId r) const {
    return (*resource_paths_)[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const std::shared_ptr<std::vector<std::string>>&
  resource_paths_ptr() const noexcept {
    return resource_paths_;
  }
  [[nodiscard]] ResourceId find_resource(std::string_view path) const;

  /// The global state registry (shard 0's; every shard mirrors it).
  [[nodiscard]] const StateRegistry& states() const noexcept {
    return shards_[0]->states();
  }
  /// Registers a state in the facade and every shard; returns the global
  /// (== every shard's local) id.
  StateId intern_state(std::string_view name);

  // --- Write side (routed; single writer per shard) -----------------------
  void add_state(ResourceId global, StateId state, TimeNs begin, TimeNs end);
  /// Bulk append: buckets by shard, then appends each shard's records from
  /// exactly one parallel task (per-shard arrival order preserved).
  void ingest(std::span<const EventRecord> records);
  void seal_chunk();
  void evict_before(TimeNs cutoff);
  /// Overrides every shard's observation window (see TraceStore).
  void set_window(TimeNs begin, TimeNs end);
  void set_compression(ChunkCompression policy);
  [[nodiscard]] ChunkCompression compression() const noexcept {
    return shards_[0]->compression();
  }
  /// Configures per-shard spill files `path` (S == 1) or `path.s<k>`.
  void enable_spill(const std::string& path);
  [[nodiscard]] bool spill_enabled() const noexcept {
    return shards_[0]->spill_enabled();
  }
  /// Splits `budget_bytes` across shards proportionally to their resident
  /// sealed-chunk bytes (floor shares, so the shares sum to <= budget) and
  /// spills each shard to its share.  Returns chunks spilled.
  std::size_t spill_cold(std::size_t budget_bytes);
  /// Per-shard budget shares of the last spill_cold round (empty before
  /// the first round) — the split-accounting record audit() checks.
  [[nodiscard]] std::span<const std::size_t> last_spill_split()
      const noexcept {
    return last_split_;
  }
  [[nodiscard]] std::size_t last_spill_budget() const noexcept {
    return last_split_budget_;
  }

  // --- Read aggregates ----------------------------------------------------
  /// Observation window folded over every shard that holds intervals or
  /// a set window; [0, 0) when none does (an empty TraceStore's window).
  [[nodiscard]] TimeNs begin() const noexcept;
  [[nodiscard]] TimeNs end() const noexcept;
  [[nodiscard]] bool sealed() const noexcept;
  [[nodiscard]] bool tails_sealed() const noexcept;
  [[nodiscard]] TimeNs evict_horizon() const noexcept {
    return shards_[0]->evict_horizon();
  }
  [[nodiscard]] std::uint64_t state_count() const noexcept;
  [[nodiscard]] std::size_t store_bytes() const noexcept;
  [[nodiscard]] std::size_t resident_chunk_bytes() const noexcept;
  [[nodiscard]] std::size_t spilled_chunk_bytes() const noexcept;
  /// Intervals written by compaction, summed over the shards.
  [[nodiscard]] std::uint64_t compaction_copies() const noexcept;

  /// Sealed copy sharing all chunks (the from-scratch oracle snapshot:
  /// copies each shard's store — chunk lists share payloads — and seals).
  [[nodiscard]] std::shared_ptr<ShardedTraceStore> snapshot() const;

  /// Router + shard audit: per-shard TraceStore::audit(), every global
  /// resource routed to exactly one shard with matching paths and counts,
  /// registries mirrored, eviction horizons and compression policies
  /// consistent across shards, and the last budget split summing within
  /// its budget.  Throws ContractError on violation.
  void audit() const;

 private:
  ShardedTraceStore(const Hierarchy& hierarchy,
                    std::shared_ptr<const ShardPlan> plan, bool make_stores);

  /// Shard for a new resource: the plan's shard when `path` names a
  /// hierarchy leaf, else a deterministic spread by global id.
  [[nodiscard]] std::size_t route_path(std::string_view path,
                                       ResourceId global) const;

  const Hierarchy* hierarchy_;
  std::shared_ptr<const ShardPlan> plan_;
  std::vector<std::shared_ptr<TraceStore>> shards_;
  std::vector<std::int32_t> shard_of_;
  std::vector<ResourceId> local_of_;
  std::shared_ptr<std::vector<std::string>> resource_paths_ =
      std::make_shared<std::vector<std::string>>();
  std::unordered_map<std::string, ResourceId> resource_ids_;
  std::vector<std::size_t> last_split_;
  std::size_t last_split_budget_ = 0;
};

}  // namespace stagg
