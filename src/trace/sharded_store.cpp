#include "trace/sharded_store.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace stagg {

ShardedTraceStore::ShardedTraceStore(const Hierarchy& hierarchy,
                                     std::shared_ptr<const ShardPlan> plan,
                                     bool make_stores)
    : hierarchy_(&hierarchy), plan_(std::move(plan)) {
  if (!plan_) throw InvalidArgument("ShardedTraceStore: null shard plan");
  if (plan_->hierarchy() != hierarchy_) {
    throw InvalidArgument(
        "ShardedTraceStore: the plan partitions a different hierarchy");
  }
  if (make_stores) {
    shards_.reserve(plan_->shard_count());
    for (std::size_t k = 0; k < plan_->shard_count(); ++k) {
      shards_.push_back(std::make_shared<TraceStore>());
    }
  }
}

ShardedTraceStore::ShardedTraceStore(const Hierarchy& hierarchy,
                                     std::shared_ptr<const ShardPlan> plan)
    : ShardedTraceStore(hierarchy, std::move(plan), /*make_stores=*/true) {}

ShardedTraceStore::ShardedTraceStore(const Hierarchy& hierarchy,
                                     std::shared_ptr<TraceStore> store)
    : ShardedTraceStore(hierarchy,
                        std::make_shared<const ShardPlan>(hierarchy, 1),
                        /*make_stores=*/false) {
  if (!store) throw InvalidArgument("ShardedTraceStore: null trace store");
  *resource_paths_ = store->resource_paths();
  const std::size_t n = resource_paths_->size();
  resource_ids_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    resource_ids_.emplace((*resource_paths_)[r], static_cast<ResourceId>(r));
  }
  shard_of_.assign(n, 0);
  local_of_.resize(n);
  std::iota(local_of_.begin(), local_of_.end(), ResourceId{0});
  shards_.push_back(std::move(store));
}

ShardedTraceStore::ShardedTraceStore(const Hierarchy& hierarchy,
                                     std::shared_ptr<const ShardPlan> plan,
                                     const TraceStore& source)
    : ShardedTraceStore(hierarchy, std::move(plan), /*make_stores=*/true) {
  if (!source.tails_sealed()) {
    throw InvalidArgument(
        "ShardedTraceStore: the source store has unsealed tails "
        "(seal_chunk first)");
  }
  // Global ids keep the source's order; states mirror in source intern
  // order, so every id in an adopted chunk is valid in its shard.
  for (const std::string& name : source.states().names()) {
    (void)intern_state(name);
  }
  for (std::size_t r = 0; r < source.resource_count(); ++r) {
    const ResourceId global =
        add_resource(source.resource_path(static_cast<ResourceId>(r)));
    const Route rt = route(global);
    for (const TraceChunkPtr& chunk :
         source.chunks(static_cast<ResourceId>(r))) {
      shards_[rt.shard]->adopt_chunk(rt.local, chunk);
    }
  }
  // Seal derives each shard's window and audit state.  The source's spill
  // configuration and eviction horizon are deliberately not inherited:
  // spill files must be per shard (enable_spill), and the horizon re-forms
  // at the first central eviction.
  seal_chunk();
  set_compression(source.compression());
}

std::size_t ShardedTraceStore::route_path(std::string_view path,
                                          ResourceId global) const {
  const NodeId node = hierarchy_->find(path);
  if (node != kNoNode && hierarchy_->is_leaf(node)) {
    return plan_->shard_of_leaf(hierarchy_->node(node).first_leaf);
  }
  return static_cast<std::size_t>(global) % shards_.size();
}

ResourceId ShardedTraceStore::add_resource(std::string_view path) {
  if (const auto it = resource_ids_.find(std::string(path));
      it != resource_ids_.end()) {
    return it->second;
  }
  if (resource_paths_.use_count() > 1) {  // pinned by a view or a copy
    resource_paths_ =
        std::make_shared<std::vector<std::string>>(*resource_paths_);
  }
  const ResourceId global = static_cast<ResourceId>(resource_paths_->size());
  const std::size_t shard = route_path(path, global);
  const ResourceId local = shards_[shard]->add_resource(path);
  resource_paths_->emplace_back(path);
  resource_ids_.emplace(resource_paths_->back(), global);
  shard_of_.push_back(static_cast<std::int32_t>(shard));
  local_of_.push_back(local);
  return global;
}

ResourceId ShardedTraceStore::find_resource(std::string_view path) const {
  const auto it = resource_ids_.find(std::string(path));
  return it == resource_ids_.end() ? kInvalidResource : it->second;
}

StateId ShardedTraceStore::intern_state(std::string_view name) {
  const StateId id = shards_[0]->states().intern(name);
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    const StateId mirrored = shards_[k]->states().intern(name);
    if (mirrored != id) {
      throw ContractError(
          "ShardedTraceStore::intern_state: shard registries diverged");
    }
  }
  return id;
}

void ShardedTraceStore::add_state(ResourceId global, StateId state,
                                  TimeNs begin, TimeNs end) {
  if (global < 0 ||
      static_cast<std::size_t>(global) >= resource_paths_->size()) {
    throw InvalidArgument("ShardedTraceStore::add_state: unknown resource " +
                          std::to_string(global));
  }
  const Route rt = route(global);
  shards_[rt.shard]->add_state(rt.local, state, begin, end);
}

void ShardedTraceStore::ingest(std::span<const EventRecord> records) {
  const std::size_t n_shards = shards_.size();
  if (n_shards == 1) {
    for (const EventRecord& rec : records) {
      add_state(rec.resource, rec.state, rec.begin, rec.end);
    }
    return;
  }
  // Counting sort by shard: one pass to count, one to scatter indices,
  // then each shard's bucket is appended by exactly one task — the
  // single-writer rule holds per shard and per-shard arrival order is
  // preserved (the scatter is stable).
  std::vector<std::size_t> counts(n_shards, 0);
  for (const EventRecord& rec : records) {
    if (rec.resource < 0 ||
        static_cast<std::size_t>(rec.resource) >= resource_paths_->size()) {
      throw InvalidArgument(
          "ShardedTraceStore::ingest: unknown resource " +
          std::to_string(rec.resource));
    }
    ++counts[shard_of(rec.resource)];
  }
  std::vector<std::size_t> offsets(n_shards + 1, 0);
  for (std::size_t k = 0; k < n_shards; ++k) {
    offsets[k + 1] = offsets[k] + counts[k];
  }
  std::vector<std::uint32_t> order(records.size());
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < records.size(); ++i) {
      order[cursor[shard_of(records[i].resource)]++] =
          static_cast<std::uint32_t>(i);
    }
  }
  parallel_for(
      n_shards,
      [&](std::size_t k) {
        TraceStore& store = *shards_[k];
        for (std::size_t pos = offsets[k]; pos < offsets[k + 1]; ++pos) {
          const EventRecord& rec = records[order[pos]];
          const Route rt = route(rec.resource);
          store.add_state(rt.local, rec.state, rec.begin, rec.end);
        }
      },
      /*grain=*/1);
}

void ShardedTraceStore::seal_chunk() {
  parallel_for(
      shards_.size(), [&](std::size_t k) { shards_[k]->seal_chunk(); },
      /*grain=*/1);
}

void ShardedTraceStore::evict_before(TimeNs cutoff) {
  for (const auto& shard : shards_) shard->evict_before(cutoff);
}

void ShardedTraceStore::set_window(TimeNs begin, TimeNs end) {
  for (const auto& shard : shards_) shard->set_window(begin, end);
}

void ShardedTraceStore::set_compression(ChunkCompression policy) {
  for (const auto& shard : shards_) shard->set_compression(policy);
}

void ShardedTraceStore::enable_spill(const std::string& path) {
  if (shards_.size() == 1) {
    shards_[0]->enable_spill(path);
    return;
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->enable_spill(path + ".s" + std::to_string(k));
  }
}

std::size_t ShardedTraceStore::spill_cold(std::size_t budget_bytes) {
  if (!spill_enabled()) {
    throw InvalidArgument(
        "ShardedTraceStore::spill_cold: no spill files configured "
        "(call enable_spill first)");
  }
  const std::size_t n_shards = shards_.size();
  last_split_budget_ = budget_bytes;
  if (n_shards == 1) {
    // The one shard's share is the whole budget, and its own spill pass
    // measures what is resident — a second pass here would only repeat it.
    last_split_.assign(1, budget_bytes);
    return shards_[0]->spill_cold(budget_bytes);
  }
  std::vector<std::size_t> resident(n_shards, 0);
  std::size_t total = 0;
  for (std::size_t k = 0; k < n_shards; ++k) {
    resident[k] = shards_[k]->resident_chunk_bytes();
    total += resident[k];
  }
  if (total <= budget_bytes) {
    // Every shard already fits inside its own footprint: record the
    // trivially-holding split and spill nothing.
    last_split_ = std::move(resident);
    return 0;
  }
  // Proportional-to-resident floor shares: floor(budget * r_k / total)
  // summed over k never exceeds the budget, so enforcing each share
  // per shard enforces the global cap exactly.  128-bit intermediate —
  // budget * resident can overflow 64 bits for large stores.
  last_split_.assign(n_shards, 0);
  for (std::size_t k = 0; k < n_shards; ++k) {
    last_split_[k] = static_cast<std::size_t>(
        static_cast<unsigned __int128>(budget_bytes) * resident[k] / total);
  }
  std::vector<std::size_t> spilled(n_shards, 0);
  parallel_for(
      n_shards,
      [&](std::size_t k) {
        if (resident[k] > last_split_[k]) {
          spilled[k] = shards_[k]->spill_cold(last_split_[k]);
        }
      },
      /*grain=*/1);
  return std::accumulate(spilled.begin(), spilled.end(), std::size_t{0});
}

namespace {
/// A shard takes part in the facade window when it holds intervals or a
/// set window; an empty shard with neither reports TraceStore's [0, 0).
bool has_window(const TraceStore& shard) noexcept {
  return shard.state_count() != 0 || shard.begin() != 0 || shard.end() != 0;
}
}  // namespace

TimeNs ShardedTraceStore::begin() const noexcept {
  TimeNs lo = std::numeric_limits<TimeNs>::max();
  bool any = false;
  for (const auto& shard : shards_) {
    if (!has_window(*shard)) continue;
    lo = std::min(lo, shard->begin());
    any = true;
  }
  return any ? lo : 0;
}

TimeNs ShardedTraceStore::end() const noexcept {
  TimeNs hi = std::numeric_limits<TimeNs>::min();
  bool any = false;
  for (const auto& shard : shards_) {
    if (!has_window(*shard)) continue;
    hi = std::max(hi, shard->end());
    any = true;
  }
  return any ? hi : 0;
}

bool ShardedTraceStore::sealed() const noexcept {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const auto& s) { return s->sealed(); });
}

bool ShardedTraceStore::tails_sealed() const noexcept {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const auto& s) { return s->tails_sealed(); });
}

std::uint64_t ShardedTraceStore::state_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->state_count();
  return n;
}

std::size_t ShardedTraceStore::store_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->store_bytes();
  return n;
}

std::size_t ShardedTraceStore::resident_chunk_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->resident_chunk_bytes();
  return n;
}

std::size_t ShardedTraceStore::spilled_chunk_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->spilled_chunk_bytes();
  return n;
}

std::shared_ptr<ShardedTraceStore> ShardedTraceStore::snapshot() const {
  auto snap = std::shared_ptr<ShardedTraceStore>(new ShardedTraceStore(
      *hierarchy_, plan_, /*make_stores=*/false));
  snap->shards_.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // Copying a TraceStore shares its sealed chunks; sealing freezes any
    // tails so the snapshot is a stable from-scratch substrate.
    auto copy = std::make_shared<TraceStore>(*shard);
    copy->seal_chunk();
    snap->shards_.push_back(std::move(copy));
  }
  snap->shard_of_ = shard_of_;
  snap->local_of_ = local_of_;
  snap->resource_paths_ = resource_paths_;
  snap->resource_ids_ = resource_ids_;
  return snap;
}

void ShardedTraceStore::audit() const {
  const auto fail = [](const std::string& what) {
    throw ContractError("ShardedTraceStore::audit: " + what);
  };
  if (shards_.empty()) fail("no shards");
  if (shards_.size() != plan_->shard_count()) {
    fail("shard count disagrees with the plan");
  }
  plan_->audit();
  for (const auto& shard : shards_) shard->audit();

  // Router: every global resource routed to exactly one shard, the local
  // lane exists and names the same path, and the per-shard resource
  // counts sum back to the global table (no orphan lanes).
  if (shard_of_.size() != resource_paths_->size() ||
      local_of_.size() != resource_paths_->size()) {
    fail("route tables and the resource table disagree in size");
  }
  std::vector<std::size_t> routed(shards_.size(), 0);
  for (std::size_t g = 0; g < resource_paths_->size(); ++g) {
    const std::int32_t shard = shard_of_[g];
    if (shard < 0 || static_cast<std::size_t>(shard) >= shards_.size()) {
      fail("resource " + std::to_string(g) + " routed to a bogus shard");
    }
    const ResourceId local = local_of_[g];
    const TraceStore& store = *shards_[static_cast<std::size_t>(shard)];
    if (local < 0 ||
        static_cast<std::size_t>(local) >= store.resource_count()) {
      fail("resource " + std::to_string(g) + " routed to a bogus lane");
    }
    if (store.resource_path(local) != (*resource_paths_)[g]) {
      fail("resource " + std::to_string(g) +
           " path disagrees with its shard lane");
    }
    ++routed[static_cast<std::size_t>(shard)];
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (routed[k] != shards_[k]->resource_count()) {
      fail("shard " + std::to_string(k) + " holds " +
           std::to_string(shards_[k]->resource_count()) +
           " lanes but routes " + std::to_string(routed[k]) + " resources");
    }
  }

  // Shard consistency: registries mirror shard 0, and the knobs the
  // facade fans out (horizon, compression, spill) agree everywhere.
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    if (!(shards_[k]->states() == shards_[0]->states())) {
      fail("shard " + std::to_string(k) + " state registry diverged");
    }
    if (shards_[k]->evict_horizon() != shards_[0]->evict_horizon()) {
      fail("shard " + std::to_string(k) + " eviction horizon diverged");
    }
    if (shards_[k]->compression() != shards_[0]->compression()) {
      fail("shard " + std::to_string(k) + " compression policy diverged");
    }
    if (shards_[k]->spill_enabled() != shards_[0]->spill_enabled()) {
      fail("shard " + std::to_string(k) + " spill configuration diverged");
    }
  }

  // Budget split accounting: the last recorded split never sums past its
  // budget (the floor-share guarantee the global cap rests on).
  if (!last_split_.empty()) {
    if (last_split_.size() != shards_.size()) {
      fail("budget split record has the wrong shard count");
    }
    std::size_t sum = 0;
    for (const std::size_t share : last_split_) sum += share;
    if (sum > last_split_budget_) {
      fail("budget split sums past the budget it enforced");
    }
  }
}

}  // namespace stagg
