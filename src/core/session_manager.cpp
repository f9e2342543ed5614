#include "core/session_manager.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace stagg {

namespace {
constexpr TimeNs kNoStagedEvents = std::numeric_limits<TimeNs>::max();

/// window_end + dt * slices without signed overflow: a far-future slide
/// saturates to the representable max — the watermark only needs an upper
/// bound on where the windows land.
TimeNs slide_target(TimeNs window_end, TimeNs dt, std::int32_t slices) {
  constexpr TimeNs lim = std::numeric_limits<TimeNs>::max();
  if (slices <= 0 || dt <= 0) return window_end;
  const TimeNs advance = dt > lim / slices ? lim : dt * slices;
  return window_end > lim - advance ? lim : window_end + advance;
}

std::shared_ptr<ShardedTraceStore> wrap_store(
    const Hierarchy& hierarchy, std::shared_ptr<TraceStore> store) {
  if (!store) throw InvalidArgument("SessionManager: null trace store");
  return std::make_shared<ShardedTraceStore>(hierarchy, std::move(store));
}
}  // namespace

SessionManager::SessionManager(const Hierarchy& hierarchy,
                               std::shared_ptr<TraceStore> store)
    : SessionManager(hierarchy, wrap_store(hierarchy, std::move(store))) {}

SessionManager::SessionManager(const Hierarchy& hierarchy,
                               std::shared_ptr<ShardedTraceStore> sharded)
    : hierarchy_(&hierarchy),
      store_(std::move(sharded)),
      staged_min_(kNoStagedEvents),
      sealed_dirty_min_(kNoStagedEvents) {
  if (!store_) {
    throw InvalidArgument("SessionManager: null sharded trace store");
  }
  if (&store_->hierarchy() != &hierarchy) {
    throw InvalidArgument(
        "SessionManager: the sharded store partitions a different "
        "hierarchy than the manager's default scope");
  }
  store_->seal_chunk();
  // A freshly attached store is a complete recorded prefix: everything in
  // it is sealed, so the watermark starts at its end.
  watermark_ = store_->end();
}

std::size_t SessionManager::add_session(SessionSpec spec) {
  store_->seal_chunk();
  const Hierarchy* scope = spec.hierarchy != nullptr ? spec.hierarchy
                                                     : hierarchy_;
  sessions_.push_back(std::make_unique<SlidingWindowSession>(
      *scope, store_, spec.window, std::move(spec.ps), spec.options));
  // The initial run may have rehydrated nothing, but attaching usually
  // follows fresh ingest; re-establish the cap before the next caller
  // looks at resident bytes.
  enforce_memory_budget();
  return sessions_.size() - 1;
}

void SessionManager::set_memory_budget(std::size_t budget_bytes,
                                       const std::string& spill_path) {
  if (budget_bytes != 0) {
    if (!spill_path.empty()) {
      store_->enable_spill(spill_path);
    } else if (!store_->spill_enabled()) {
      throw InvalidArgument(
          "SessionManager::set_memory_budget: the store has no spill file "
          "(pass spill_path or call enable_spill on the store)");
    }
  }
  memory_budget_ = budget_bytes;
  enforce_memory_budget();
}

void SessionManager::enforce_memory_budget() {
  if (memory_budget_ == 0) return;
  // The facade splits the global budget across shards proportionally to
  // their resident bytes (floor shares, Σ shares <= budget), so one
  // manager-level cap bounds the whole fleet exactly.
  (void)store_->spill_cold(memory_budget_);
}

void SessionManager::set_compression(ChunkCompression policy) {
  store_->set_compression(policy);
  // Re-encoding may have freed resident bytes; nothing to spill beyond
  // the standing budget, but re-check so callers observe the cap holding.
  enforce_memory_budget();
}

void SessionManager::append(ResourceId resource, StateId state, TimeNs begin,
                            TimeNs end) {
  if (state < 0 ||
      static_cast<std::size_t>(state) >= store_->states().size()) {
    throw InvalidArgument(
        "SessionManager::append: unknown state id " + std::to_string(state) +
        " (sessions pin |X|; new states require a new store)");
  }
  store_->add_state(resource, state, begin, end);
  staged_min_ = std::min(staged_min_, begin);
}

void SessionManager::append(ResourceId resource, std::string_view state_name,
                            TimeNs begin, TimeNs end) {
  const auto id = store_->states().find(state_name);
  if (!id) {
    throw InvalidArgument("SessionManager::append: unknown state '" +
                          std::string(state_name) +
                          "' (sessions pin |X|; new states require a new "
                          "store)");
  }
  append(resource, *id, begin, end);
}

void SessionManager::ingest(std::span<const EventRecord> records) {
  // Track the whole batch's dirty frontier before appending: if the store
  // rejects a record mid-batch, an over-conservative note costs one
  // refresh, while a missed note would hide already-appended events from
  // the sessions.  The facade then appends every shard's share from its
  // own task.
  for (const EventRecord& rec : records) {
    staged_min_ = std::min(staged_min_, rec.begin);
  }
  store_->ingest(records);
}

TimeNs SessionManager::seal_staged(TimeNs frontier) {
  store_->seal_chunk();
  const TimeNs staged = std::exchange(staged_min_, kNoStagedEvents);
  if (staged != kNoStagedEvents) {
    sealed_dirty_min_ = std::min(sealed_dirty_min_, staged);
  }
  watermark_ = std::max(watermark_, frontier);
  STAGG_AUDIT(audit());
  return watermark_;
}

template <class Advance>
void SessionManager::run_advance_stage(const Advance& advance) {
  const TimeNs dirty = std::exchange(sealed_dirty_min_, kNoStagedEvents);
  // Parallel over sessions: each session touches only its own model and
  // retained DP state and reads the store through an immutable chunk
  // snapshot; the help-while-waiting pool composes this outer fan-out
  // with the sessions' inner parallel_for waves.
  parallel_for(
      sessions_.size(),
      [&](std::size_t i) {
        SlidingWindowSession& s = *sessions_[i];
        if (dirty != kNoStagedEvents) s.note_external_ingest(dirty);
        advance(s);
      },
      /*grain=*/1);
  // With no session attached there is no window to bound eviction by;
  // evicting to the store begin would only poison the horizon and reject
  // perfectly valid sessions attached later.
  if (!sessions_.empty()) {
    store_->evict_before(min_window_begin());
  }
  // Eviction first (unlinking is cheaper than spilling), then the budget
  // over whatever survived.
  enforce_memory_budget();
  // The budget holds exactly after enforcement: spill_cold only stops
  // early once no resident sealed chunk is left, and then the resident
  // bytes are zero (per shard, and the floor shares never sum past the
  // global cap).
  STAGG_ASSERT(memory_budget_ == 0 ||
                   resident_chunk_bytes() <= memory_budget_,
               "memory budget violated after the advance stage");
  STAGG_AUDIT(audit());
}

void SessionManager::advance_to_watermark(TimeNs wm) {
  if (wm > watermark_) {
    throw InvalidArgument(
        "SessionManager::advance_to_watermark: frontier " +
        std::to_string(wm) + " is beyond the sealed watermark " +
        std::to_string(watermark_) + " (seal_staged first)");
  }
  run_advance_stage([wm](SlidingWindowSession& s) {
    const TimeGrid& window = s.window();
    const TimeNs dt = window.uniform_dt_ns();
    const TimeNs gap = wm - window.end();
    // gap/dt can exceed int32 for a far-ahead frontier; clamp instead of
    // letting the cast wrap into a negative or bogus slide.
    const auto slices = static_cast<std::int32_t>(std::clamp<TimeNs>(
        gap > 0 ? gap / dt : 0, 0,
        std::numeric_limits<std::int32_t>::max()));
    if (slices > 0) {
      (void)s.slide(slices);
    } else {
      (void)s.refresh();
    }
  });
}

void SessionManager::ingest_round(TimeNs frontier) {
  seal_staged(frontier);
  advance_to_watermark(frontier);
}

void SessionManager::slide_all(std::int32_t slices) {
  if (slices < 0) {
    throw InvalidArgument("SessionManager::slide_all: negative slide");
  }
  // Sliding is itself a completeness promise: the caller asserts the data
  // under the slid-to windows has arrived, so the watermark follows the
  // furthest post-slide window end.
  TimeNs frontier = watermark_;
  for (const auto& s : sessions_) {
    const TimeGrid& w = s->window();
    frontier = std::max(frontier,
                        slide_target(w.end(), w.uniform_dt_ns(), slices));
  }
  seal_staged(frontier);
  run_advance_stage(
      [slices](SlidingWindowSession& s) { (void)s.slide(slices); });
}

void SessionManager::advance_to(TimeNs frontier) { ingest_round(frontier); }

void SessionManager::refresh_all() {
  TimeNs frontier = watermark_;
  for (const auto& s : sessions_) {
    frontier = std::max(frontier, s->window().end());
  }
  seal_staged(frontier);
  run_advance_stage([](SlidingWindowSession& s) { (void)s.refresh(); });
}

void SessionManager::audit() const {
  // The router audit covers every shard store and the plan.
  store_->audit();
  const auto fail = [](const std::string& what) {
    throw ContractError("SessionManager::audit: " + what);
  };
  const TimeNs horizon = store_->evict_horizon();
  if (!sessions_.empty() && horizon > min_window_begin()) {
    fail("eviction horizon " + std::to_string(horizon) +
         " is past the minimum live window begin " +
         std::to_string(min_window_begin()));
  }
  // Unsealed tails are legal only while the dirty accounting knows about
  // them: a staged event with no staged frontier would never reach the
  // sessions' note_external_ingest and stay invisible forever.
  if (!store_->tails_sealed() && staged_min_ == kNoStagedEvents) {
    fail("store has unsealed tails but no staged dirty frontier");
  }
}

TimeNs SessionManager::min_window_begin() const noexcept {
  if (sessions_.empty()) return store_->begin();
  TimeNs lo = std::numeric_limits<TimeNs>::max();
  for (const auto& s : sessions_) {
    lo = std::min(lo, s->window().begin());
  }
  return lo;
}

}  // namespace stagg
