#include "trace/trace_store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "trace/binary_io.hpp"

namespace stagg {

namespace {

/// Merges whole chunks into row-major `out` (appending) via the shared
/// canonical merge.  Cursor-based, so members of any backend — resident,
/// mapped, compressed — merge without being rehydrated first.
void merge_chunks(std::span<const TraceChunkPtr> chunks,
                  std::vector<StateInterval>& out) {
  std::vector<ChunkRun> runs;
  runs.reserve(chunks.size());
  for (const TraceChunkPtr& c : chunks) runs.push_back({c.get(), c->size()});
  merge_chunk_runs(std::span<const ChunkRun>(runs),
                   [&out](const StateInterval& s) { out.push_back(s); });
}

/// Resident copy of a (typically spilled) chunk.  An addressable chunk
/// comes back as raw heap columns; a compressed chunk stays compressed —
/// its encoded sections are copied to an owned heap buffer, so pinning
/// preserves the compression policy's footprint win.
TraceChunkPtr make_resident(const TraceChunk& chunk) {
  if (chunk.addressable()) {
    auto payload = std::make_shared<const ResidentChunkPayload>(
        std::vector<TimeNs>(chunk.begins().begin(), chunk.begins().end()),
        std::vector<TimeNs>(chunk.ends().begin(), chunk.ends().end()),
        std::vector<StateId>(chunk.states().begin(), chunk.states().end()));
    return std::make_shared<const TraceChunk>(
        std::move(payload), chunk.min_end(), chunk.max_end());
  }
  const auto* compressed =
      dynamic_cast<const CompressedChunkPayload*>(chunk.payload().get());
  if (compressed == nullptr) {
    throw InvalidArgument("make_resident: unknown non-addressable payload");
  }
  const ColumnsCoding& coding = compressed->coding();
  EncodedColumns enc;
  enc.count = coding.count;
  enc.begin_codec = coding.begin_codec;
  enc.end_codec = coding.end_codec;
  enc.state_codec = coding.state_codec;
  enc.begin_bytes = coding.begin_section.size();
  enc.end_bytes = coding.end_section.size();
  enc.state_bytes = coding.state_section.size();
  enc.bytes.reserve(coding.encoded_bytes());
  enc.bytes.insert(enc.bytes.end(), coding.begin_section.begin(),
                   coding.begin_section.end());
  enc.bytes.insert(enc.bytes.end(), coding.end_section.begin(),
                   coding.end_section.end());
  enc.bytes.insert(enc.bytes.end(), coding.state_section.begin(),
                   coding.state_section.end());
  auto payload =
      std::make_shared<const CompressedChunkPayload>(std::move(enc));
  return std::make_shared<const TraceChunk>(
      std::move(payload), chunk.first(), chunk.last(), chunk.min_end(),
      chunk.max_end(), chunk.lead_max_end());
}

}  // namespace

TraceChunk::TraceChunk(std::vector<TimeNs> begins, std::vector<TimeNs> ends,
                       std::vector<StateId> states) {
  if (begins.empty() || begins.size() != ends.size() ||
      begins.size() != states.size()) {
    throw InvalidArgument("TraceChunk: empty or mismatched columns");
  }
  // Local accumulators: the members could alias the column, so updating
  // them in the loop would store and reload them on every element.
  TimeNs min_end = std::numeric_limits<TimeNs>::max();
  TimeNs max_end = std::numeric_limits<TimeNs>::min();
  for (std::size_t i = 0; i + 1 < ends.size(); ++i) {
    min_end = std::min(min_end, ends[i]);
    max_end = std::max(max_end, ends[i]);
  }
  lead_max_end_ = max_end;
  min_end_ = std::min(min_end, ends.back());
  max_end_ = std::max(max_end, ends.back());
  auto payload = std::make_shared<const ResidentChunkPayload>(
      std::move(begins), std::move(ends), std::move(states));
  begins_ = payload->begins();
  ends_ = payload->ends();
  states_ = payload->states();
  size_ = begins_.size();
  payload_ = std::move(payload);
  first_ = at(0);
  last_ = at(size_ - 1);
}

TraceChunk::TraceChunk(std::shared_ptr<const ChunkPayload> payload,
                       TimeNs min_end, TimeNs max_end)
    : payload_(std::move(payload)), min_end_(min_end), max_end_(max_end) {
  if (!payload_ || !payload_->addressable() || payload_->begins().empty() ||
      payload_->begins().size() != payload_->ends().size() ||
      payload_->begins().size() != payload_->states().size()) {
    throw InvalidArgument(
        "TraceChunk: empty, mismatched or non-addressable payload columns");
  }
  begins_ = payload_->begins();
  ends_ = payload_->ends();
  states_ = payload_->states();
  size_ = begins_.size();
  first_ = at(0);
  last_ = at(size_ - 1);
  TimeNs lead = std::numeric_limits<TimeNs>::min();
  for (std::size_t i = 0; i + 1 < size_; ++i) lead = std::max(lead, ends_[i]);
  lead_max_end_ = lead;
}

TraceChunk::TraceChunk(std::shared_ptr<const ChunkPayload> payload,
                       StateInterval first, StateInterval last, TimeNs min_end,
                       TimeNs max_end, TimeNs lead_max_end)
    : payload_(std::move(payload)),
      first_(first),
      last_(last),
      min_end_(min_end),
      max_end_(max_end),
      lead_max_end_(lead_max_end) {
  if (!payload_ || payload_->size() == 0) {
    throw InvalidArgument("TraceChunk: null or empty payload");
  }
  size_ = payload_->size();
  if (payload_->addressable()) {
    begins_ = payload_->begins();
    ends_ = payload_->ends();
    states_ = payload_->states();
  }
}

std::shared_ptr<const TraceChunk> TraceChunk::from_sorted(
    std::span<const StateInterval> sorted) {
  std::vector<TimeNs> begins;
  std::vector<TimeNs> ends;
  std::vector<StateId> states;
  begins.reserve(sorted.size());
  ends.reserve(sorted.size());
  states.reserve(sorted.size());
  for (const StateInterval& s : sorted) {
    begins.push_back(s.begin);
    ends.push_back(s.end);
    states.push_back(s.state);
  }
  return std::make_shared<const TraceChunk>(
      std::move(begins), std::move(ends), std::move(states));
}

std::size_t TraceChunk::prefix_below(TimeNs t1, StateInterval* last) const {
  // Whole-chunk fast path: the last (highest) begin is already below t1
  // (a view over the whole trace takes it for every chunk, without a
  // search through the begins column).
  if (last_.begin < t1) {
    if (last != nullptr) *last = last_;
    return size_;
  }
  if (payload_->addressable()) {
    const std::size_t n = static_cast<std::size_t>(
        std::lower_bound(begins_.begin(), begins_.end(), t1) -
        begins_.begin());
    if (n > 0 && last != nullptr) *last = at(n - 1);
    return n;
  }
  // Streaming scan: begins are sorted, so stop at the first begin >= t1.
  std::size_t n = 0;
  StateInterval prev{};
  for (ChunkCursor cur(*this); cur.valid(); cur.next()) {
    if (cur.current().begin >= t1) break;
    prev = cur.current();
    ++n;
  }
  if (n > 0 && last != nullptr) *last = prev;
  return n;
}

ChunkCursor::ChunkCursor(const TraceChunk& chunk, std::size_t limit)
    : chunk_(&chunk), limit_(limit) {
  if (limit_ == 0) return;
  if (chunk.addressable()) {
    cur_ = chunk.at(0);
    return;
  }
  const auto* compressed =
      dynamic_cast<const CompressedChunkPayload*>(chunk.payload().get());
  if (compressed == nullptr) {
    throw InvalidArgument("ChunkCursor: unknown non-addressable payload");
  }
  decoder_.emplace(compressed->coding());
  decode_next();
}

void ChunkCursor::decode_next() {
  StateInterval out;
  if (!decoder_->next(out)) {
    pos_ = limit_;  // defensive: the payload count bounds limit_
    return;
  }
  cur_ = out;
}

ResourceId TraceStore::add_resource(std::string_view path) {
  if (const auto it = resource_ids_.find(std::string(path));
      it != resource_ids_.end()) {
    return it->second;
  }
  if (resource_paths_.use_count() > 1) {  // pinned by a view or a copy
    resource_paths_ =
        std::make_shared<std::vector<std::string>>(*resource_paths_);
  }
  const ResourceId id = static_cast<ResourceId>(resource_paths_->size());
  resource_paths_->emplace_back(path);
  resource_ids_.emplace(resource_paths_->back(), id);
  lanes_.emplace_back();
  sealed_ = false;
  ++generation_;
  return id;
}

ResourceId TraceStore::find_resource(std::string_view path) const {
  const auto it = resource_ids_.find(std::string(path));
  return it == resource_ids_.end() ? kInvalidResource : it->second;
}

void TraceStore::add_state(ResourceId resource, StateId state, TimeNs begin,
                           TimeNs end) {
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= resource_paths_->size()) {
    throw InvalidArgument("add_state: unknown resource id " +
                          std::to_string(resource));
  }
  if (state < 0 || static_cast<std::size_t>(state) >= states_.size()) {
    throw InvalidArgument("add_state: unknown state id " +
                          std::to_string(state));
  }
  if (end < begin) {
    throw InvalidArgument("add_state: end < begin");
  }
  lanes_[static_cast<std::size_t>(resource)].tail.push_back(
      StateInterval{begin, end, state});
  sealed_ = false;
  ++generation_;
}

std::size_t TraceStore::maybe_compress_into(
    TraceChunkPtr chunk, std::vector<TraceChunkPtr>& out) const {
  if (compression_ != ChunkCompression::kAuto || !chunk->resident() ||
      !chunk->addressable()) {
    out.push_back(std::move(chunk));
    return 1;
  }
  const std::span<const TimeNs> begins = chunk->begins();
  const std::span<const TimeNs> ends = chunk->ends();
  const std::span<const StateId> states = chunk->states();
  const std::size_t n = begins.size();
  const std::size_t block_intervals = kCompressedBlockIntervals;
  const std::size_t blocks = (n + block_intervals - 1) / block_intervals;
  std::vector<TraceChunkPtr> pieces;
  pieces.reserve(blocks);
  bool any_encoded = false;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * block_intervals;
    const std::size_t len = std::min(block_intervals, n - lo);
    EncodedColumns enc = encode_columns(begins.subspan(lo, len),
                                        ends.subspan(lo, len),
                                        states.subspan(lo, len));
    // Per-block fallback: keep raw columns when encoding does not shrink
    // them (the per-column raw candidates already bound each column, but
    // raw-resident avoids the cursor decode entirely).
    if (enc.encoded_bytes() >=
        len * (sizeof(TimeNs) * 2 + sizeof(StateId))) {
      pieces.push_back(std::make_shared<const TraceChunk>(
          std::vector<TimeNs>(begins.begin() + static_cast<std::ptrdiff_t>(lo),
                              begins.begin() +
                                  static_cast<std::ptrdiff_t>(lo + len)),
          std::vector<TimeNs>(ends.begin() + static_cast<std::ptrdiff_t>(lo),
                              ends.begin() +
                                  static_cast<std::ptrdiff_t>(lo + len)),
          std::vector<StateId>(states.begin() +
                                   static_cast<std::ptrdiff_t>(lo),
                               states.begin() +
                                   static_cast<std::ptrdiff_t>(lo + len))));
      continue;
    }
    any_encoded = true;
    const StateInterval first = enc.first;
    const StateInterval last = enc.last;
    const TimeNs min_end = enc.min_end;
    const TimeNs max_end = enc.max_end;
    const TimeNs lead_max_end = enc.lead_max_end;
    auto payload =
        std::make_shared<const CompressedChunkPayload>(std::move(enc));
    pieces.push_back(std::make_shared<const TraceChunk>(
        std::move(payload), first, last, min_end, max_end, lead_max_end));
  }
  // Nothing shrank: keep the original chunk whole (no gratuitous copies
  // or block splits of an incompressible run).
  if (!any_encoded) {
    out.push_back(std::move(chunk));
    return 1;
  }
  for (TraceChunkPtr& piece : pieces) out.push_back(std::move(piece));
  return pieces.size();
}

void TraceStore::set_compression(ChunkCompression policy) {
  compression_ = policy;
  if (policy != ChunkCompression::kAuto) return;
  // Re-encode what is already sealed and resident, so a store that turns
  // compression on after ingest sees the footprint win immediately.
  bool changed = false;
  for (Lane& lane : lanes_) {
    std::vector<TraceChunkPtr> next;
    next.reserve(lane.chunks.size());
    bool lane_changed = false;
    for (TraceChunkPtr& chunk : lane.chunks) {
      const TraceChunk* original = chunk.get();
      const std::size_t before = next.size();
      maybe_compress_into(std::move(chunk), next);
      lane_changed = lane_changed || next.size() != before + 1 ||
                     next[before].get() != original;
    }
    lane.chunks = std::move(next);
    // Re-encoded blocks no longer follow the open suffix's size classes:
    // close them; later seals open a fresh suffix behind them.
    if (lane_changed) lane.open = 0;
    changed = changed || lane_changed;
  }
  if (changed) ++generation_;
  STAGG_AUDIT(audit());
}

namespace {

/// Size class of a chunk of `n` >= 1 intervals: floor(log_F n), F = 4.
std::size_t size_class(std::size_t n) noexcept {
  static_assert(TraceStore::kMergeFanIn == 4);
  return static_cast<std::size_t>(std::bit_width(n) - 1) / 2;
}

/// Columns a merge writes before they are cut into chunks.
struct MergedColumns {
  std::vector<TimeNs> begins;
  std::vector<TimeNs> ends;
  std::vector<StateId> states;

  [[nodiscard]] std::size_t size() const noexcept { return begins.size(); }
  void push(const StateInterval& s) {
    begins.push_back(s.begin);
    ends.push_back(s.end);
    states.push_back(s.state);
  }
};

/// Streams `members` (lane order) into `out` through the canonical merge,
/// dropping intervals ending at or below `horizon` (when `drop`).  Members
/// in key order (the live case) are concatenated; a run of addressable
/// members with nothing to drop is copied column-wise.
void gather(std::span<const TraceChunkPtr> members, bool drop,
            TimeNs horizon, MergedColumns& out) {
  std::size_t total = 0;
  bool in_order = true;
  bool bulk = true;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const TraceChunk& c = *members[i];
    total += c.size();
    in_order = in_order && (i == 0 || !interval_key_less(
                                          c.first(), members[i - 1]->last()));
    bulk = bulk && c.addressable() && (!drop || c.min_end() > horizon);
  }
  out.begins.reserve(total);
  out.ends.reserve(total);
  out.states.reserve(total);
  if (in_order && bulk) {
    for (const TraceChunkPtr& c : members) {
      out.begins.insert(out.begins.end(), c->begins().begin(),
                        c->begins().end());
      out.ends.insert(out.ends.end(), c->ends().begin(), c->ends().end());
      out.states.insert(out.states.end(), c->states().begin(),
                        c->states().end());
    }
    return;
  }
  std::vector<ChunkRun> runs;
  runs.reserve(members.size());
  for (const TraceChunkPtr& c : members) runs.push_back({c.get(), c->size()});
  merge_chunk_runs(std::span<const ChunkRun>(runs),
                   [&](const StateInterval& s) {
                     if (!drop || s.end > horizon) out.push(s);
                   });
}

/// Intervals held by a lane's chunks.
std::size_t intervals_in(std::span<const TraceChunkPtr> chunks) noexcept {
  std::size_t n = 0;
  for (const TraceChunkPtr& c : chunks) n += c->size();
  return n;
}

template <class T>
std::vector<T> slice_of(std::vector<T>& v, std::size_t lo, std::size_t len,
                        bool whole) {
  if (whole) return std::move(v);
  return std::vector<T>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                        v.begin() + static_cast<std::ptrdiff_t>(lo + len));
}

}  // namespace

std::size_t TraceStore::chunk_cap(std::size_t stored,
                                  ChunkCompression policy) noexcept {
  if (policy == ChunkCompression::kAuto) return kCompressedBlockIntervals;
  return std::max(kMinRawCap, stored / kRawCapShare);
}

std::size_t TraceStore::lane_chunk_bound(std::size_t stored,
                                         ChunkCompression policy) noexcept {
  const std::size_t cap = chunk_cap(stored, policy);
  return 2 * ((stored + cap - 1) / cap) +
         (kMergeFanIn - 1) * (size_class(cap - 1) + 1);
}

void TraceStore::seal_chunk() {
  if (sealed_) return;
  // Only lanes with work are visited: a staged tail, or more chunks than
  // the bound (adopted chunks).  No lane's bound is below
  // lane_chunk_bound(0), so a lane without a tail and with no more chunks
  // than that is skipped without summing its chunk sizes.  Tasks group
  // consecutive lanes until they hold about kSealTaskIntervals intervals
  // of work (kSealTaskEncodedIntervals under kAuto), so a seal of a few
  // intervals over many lanes is a few tasks, not one per lane.
  struct Todo {
    std::size_t lane;
    std::size_t stored;
  };
  std::vector<Todo> todo;
  std::vector<std::size_t> task_end;
  std::size_t pending = 0;
  const std::size_t task_intervals = compression_ == ChunkCompression::kAuto
                                         ? kSealTaskEncodedIntervals
                                         : kSealTaskIntervals;
  const std::size_t min_bound = lane_chunk_bound(0, compression_);
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    const Lane& lane = lanes_[r];
    if (lane.tail.empty() && lane.chunks.size() <= min_bound) continue;
    const std::size_t stored = intervals_in(lane.chunks);
    const bool over =
        lane.chunks.size() > lane_chunk_bound(stored, compression_);
    if (lane.tail.empty() && !over) continue;
    todo.push_back({r, stored});
    pending += lane.tail.size() + (over ? stored : 0);
    if (pending >= task_intervals) {
      task_end.push_back(todo.size());
      pending = 0;
    }
  }
  if (pending > 0) task_end.push_back(todo.size());
  // Compaction runs inside the parallel region, so spill-record accounting
  // and copy counts are collected per task and folded in serially.
  std::vector<SealWork> work(task_end.size());
  parallel_for(
      task_end.size(),
      [&](std::size_t t) {
        for (std::size_t i = t == 0 ? 0 : task_end[t - 1]; i < task_end[t];
             ++i) {
          seal_lane(lanes_[todo[i].lane], todo[i].stored, work[t]);
        }
      },
      /*grain=*/1);
  for (const SealWork& w : work) {
    for (const auto& payload : w.unlinked) note_unlinked(payload.get());
    compaction_copies_ += w.copies;
  }
  derive_window();
  sealed_ = true;
  ++generation_;
  maybe_compact_spill();
  STAGG_AUDIT(audit());
}

void TraceStore::seal_lane(Lane& lane, std::size_t stored, SealWork& work) {
  // Horizon stickiness: an interval ending at or below the eviction
  // horizon can never be read by a legal window (views reaching below the
  // horizon are rejected), so sealing one — e.g. staged after an eviction
  // already passed it — would only freeze dead weight.  Dropping it here
  // is what keeps the "every linked chunk's fence clears the horizon"
  // invariant exact (audit() checks it).
  if (evict_horizon_ != std::numeric_limits<TimeNs>::min()) {
    std::erase_if(lane.tail, [this](const StateInterval& s) {
      return s.end <= evict_horizon_;
    });
  }
  if (!lane.tail.empty()) {
    std::sort(lane.tail.begin(), lane.tail.end(), interval_key_less);
    const std::size_t cap =
        chunk_cap(stored + lane.tail.size(), compression_);
    const std::uint64_t dropped = work.dropped;
    insert_run(lane, lane.tail, cap, work);
    stored += lane.tail.size() - (work.dropped - dropped);
    lane.tail.clear();
    lane.tail.shrink_to_fit();
  }
  if (lane.chunks.size() > lane_chunk_bound(stored, compression_)) {
    lane.open = lane.chunks.size();
    merge_suffix(lane, lane.open, chunk_cap(stored, compression_), work);
  }
}

void TraceStore::insert_run(Lane& lane, std::span<const StateInterval> run,
                            std::size_t cap, SealWork& work) {
  if (lane.open == 0 && run.size() >= cap) {
    // Nothing open to merge with: freeze the run straight into chunks.
    append_cut(lane, run.size(), cap, [run](std::size_t lo, std::size_t len) {
      return TraceChunk::from_sorted(run.subspan(lo, len));
    });
    return;
  }
  lane.chunks.push_back(TraceChunk::from_sorted(run));
  ++lane.open;
  // A cap's worth of open intervals closes: the whole open suffix merges
  // into closed chunks of exactly `cap` and one open remainder, so the
  // open suffix — small, poorly compressed chunks — stays below one cap.
  std::size_t open_total = 0;
  for (std::size_t k = 1; k <= lane.open; ++k) {
    open_total += lane.chunks[lane.chunks.size() - k]->size();
  }
  if (open_total >= cap) {
    merge_suffix(lane, lane.open, cap, work);
    return;
  }
  // Absorb the newest open chunks of a smaller size class than the group,
  // so the open suffix keeps non-increasing size classes.
  std::size_t members = 1;
  std::size_t total = lane.chunks.back()->size();
  while (members < lane.open) {
    const std::size_t prev =
        lane.chunks[lane.chunks.size() - 1 - members]->size();
    if (size_class(prev) >= size_class(total)) break;
    total += prev;
    ++members;
  }
  if (members > 1) {
    merge_suffix(lane, members, cap, work);
  } else {
    TraceChunkPtr alone = std::move(lane.chunks.back());
    lane.chunks.pop_back();
    (void)maybe_compress_into(std::move(alone), lane.chunks);
  }
  // Cascade: F open chunks of one size class merge into the next class.
  while (lane.open >= kMergeFanIn) {
    const std::size_t n = lane.chunks.size();
    const std::size_t cls = size_class(lane.chunks[n - 1]->size());
    bool same = true;
    for (std::size_t k = 2; k <= kMergeFanIn && same; ++k) {
      same = size_class(lane.chunks[n - k]->size()) == cls;
    }
    if (!same) break;
    merge_suffix(lane, kMergeFanIn, cap, work);
  }
}

void TraceStore::merge_suffix(Lane& lane, std::size_t members,
                              std::size_t cap, SealWork& work) {
  const auto first =
      lane.chunks.end() - static_cast<std::ptrdiff_t>(members);
  // Members stream through cursors, so spilled or compressed members are
  // read in place — no rehydration.  A merged-away member's spill record
  // (if any) becomes dead; the caller accounts it.  Compaction is also the
  // one place individually dead intervals of straddling chunks are let
  // go: anything ending at or before the eviction horizon can never be
  // read by a legal window again.
  MergedColumns out;
  gather(std::span<const TraceChunkPtr>(first, lane.chunks.end()),
         evict_horizon_ != std::numeric_limits<TimeNs>::min(),
         evict_horizon_, out);
  std::size_t merged = 0;
  for (auto it = first; it != lane.chunks.end(); ++it) {
    work.unlinked.push_back((*it)->payload());
    merged += (*it)->size();
  }
  lane.chunks.erase(first, lane.chunks.end());
  lane.open -= members;
  const std::size_t n = out.size();
  work.copies += n;
  work.dropped += merged - n;
  append_cut(lane, n, cap, [&out, n](std::size_t lo, std::size_t len) {
    const bool whole = lo == 0 && len == n;
    return std::make_shared<const TraceChunk>(
        slice_of(out.begins, lo, len, whole),
        slice_of(out.ends, lo, len, whole),
        slice_of(out.states, lo, len, whole));
  });
}

void TraceStore::append_cut(
    Lane& lane, std::size_t n, std::size_t cap,
    const std::function<TraceChunkPtr(std::size_t, std::size_t)>& piece) {
  // Closed chunks of exactly `cap`, then the open remainder.
  for (std::size_t lo = 0; lo < n; lo += cap) {
    const std::size_t len = std::min(cap, n - lo);
    const std::size_t added = maybe_compress_into(piece(lo, len), lane.chunks);
    if (len < cap) lane.open += added;
  }
}

bool TraceStore::tails_sealed() const noexcept {
  for (const Lane& lane : lanes_) {
    if (!lane.tail.empty()) return false;
  }
  return true;
}

void TraceStore::derive_window() {
  if (window_overridden_) return;
  TimeNs lo = std::numeric_limits<TimeNs>::max();
  TimeNs hi = std::numeric_limits<TimeNs>::min();
  bool any = false;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) {
      lo = std::min(lo, c->min_begin());
      hi = std::max(hi, c->max_end());
      any = true;
    }
    for (const StateInterval& s : lane.tail) {
      lo = std::min(lo, s.begin);
      hi = std::max(hi, s.end);
      any = true;
    }
  }
  begin_ = any ? lo : 0;
  end_ = any ? hi : 0;
}

void TraceStore::evict_before(TimeNs cutoff) {
  evict_horizon_ = std::max(evict_horizon_, cutoff);
  for (Lane& lane : lanes_) {
    const std::size_t open_from = lane.chunks.size() - lane.open;
    std::size_t kept = 0;
    lane.open = 0;
    for (std::size_t i = 0; i < lane.chunks.size(); ++i) {
      TraceChunkPtr& c = lane.chunks[i];
      if (c->max_end() <= cutoff) {
        note_unlinked(c->payload().get());
        continue;
      }
      if (i >= open_from) ++lane.open;
      lane.chunks[kept++] = std::move(c);
    }
    lane.chunks.resize(kept);
    std::erase_if(lane.tail, [cutoff](const StateInterval& s) {
      return s.end <= cutoff;
    });
  }
  // The auto-derived window may have spanned the evicted chunks; the next
  // seal re-derives it from the survivors.  An overridden window is the
  // caller's contract and stays put.
  if (!window_overridden_) sealed_ = false;
  ++generation_;
  maybe_compact_spill();
  STAGG_AUDIT(audit());
}

void TraceStore::set_window(TimeNs begin, TimeNs end) {
  if (end < begin) throw InvalidArgument("set_window: end < begin");
  begin_ = begin;
  end_ = end;
  window_overridden_ = true;
}

std::uint64_t TraceStore::state_count() const noexcept {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) {
    n += intervals_in(lane.chunks) + lane.tail.size();
  }
  return n;
}

void TraceStore::materialize(ResourceId r,
                             std::vector<StateInterval>& out) const {
  const Lane& lane = lanes_[static_cast<std::size_t>(r)];
  out.clear();
  std::size_t total = lane.tail.size();
  for (const TraceChunkPtr& c : lane.chunks) total += c->size();
  out.reserve(total);
  merge_chunks(lane.chunks, out);
  out.insert(out.end(), lane.tail.begin(), lane.tail.end());
}

std::size_t TraceStore::store_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) bytes += c->stored_bytes();
    bytes += lane.tail.capacity() * sizeof(StateInterval);
  }
  return bytes;
}

void TraceStore::adopt_chunk(ResourceId r, TraceChunkPtr chunk) {
  if (r < 0 || static_cast<std::size_t>(r) >= lanes_.size()) {
    throw InvalidArgument("adopt_chunk: unknown resource id " +
                          std::to_string(r));
  }
  if (!chunk || chunk->size() == 0) {
    throw InvalidArgument("adopt_chunk: null or empty chunk");
  }
  Lane& lane = lanes_[static_cast<std::size_t>(r)];
  lane.chunks.push_back(std::move(chunk));
  lane.open = 0;
  sealed_ = false;
  ++generation_;
}

void TraceStore::enable_spill(std::string path) {
  if (path.empty()) {
    throw InvalidArgument("enable_spill: empty spill file path");
  }
  spill_path_ = std::move(path);
}

std::size_t TraceStore::spill_cold(std::size_t budget_bytes) {
  if (spill_path_.empty()) {
    throw InvalidArgument(
        "spill_cold: no spill file configured (call enable_spill first)");
  }
  struct Candidate {
    std::size_t lane;
    std::size_t index;
    TimeNs max_end;
  };
  std::size_t resident = resident_chunk_bytes();
  if (resident <= budget_bytes) return 0;
  std::vector<Candidate> candidates;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const auto& chunks = lanes_[lane].chunks;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (chunks[i]->resident()) {
        candidates.push_back({lane, i, chunks[i]->max_end()});
      }
    }
  }
  // Coldest first: the fence max-end is the last instant a window can
  // still need the chunk, so ascending order is an LRU over trace time.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.max_end < b.max_end;
                   });
  // Pick the coldest chunks that bring the resident bytes under the
  // budget, then write them in one append.
  std::vector<SpillItem> items;
  for (const Candidate& cand : candidates) {
    if (resident <= budget_bytes) break;
    const TraceChunkPtr& slot = lanes_[cand.lane].chunks[cand.index];
    items.push_back({static_cast<ResourceId>(cand.lane), slot.get()});
    resident -= slot->stored_bytes();
  }
  std::vector<SpilledChunkRecord> records =
      spill_chunks_to_file(spill_path_, items, states_.size());
  // The freshly validated records' pages are hot but cold by definition
  // (we just decided these chunks are the least-needed ones): hint the
  // kernel to reclaim them first (the advice covers their shared
  // mapping).
  records.front().chunk->advise(MapAdvice::kDontNeed);
  for (std::size_t k = 0; k < records.size(); ++k) {
    SpilledChunkRecord& rec = records[k];
    spill_records_.emplace(rec.chunk->payload().get(), rec.record_bytes);
    spill_live_bytes_ += rec.record_bytes;
    lanes_[candidates[k].lane].chunks[candidates[k].index] =
        std::move(rec.chunk);
  }
  ++generation_;
  STAGG_AUDIT(audit());
  return records.size();
}

std::size_t TraceStore::pin(ResourceId r) {
  if (r < 0 || static_cast<std::size_t>(r) >= lanes_.size()) {
    throw InvalidArgument("pin: unknown resource id " + std::to_string(r));
  }
  std::size_t pinned = 0;
  for (TraceChunkPtr& chunk : lanes_[static_cast<std::size_t>(r)].chunks) {
    if (chunk->resident()) continue;
    note_unlinked(chunk->payload().get());
    chunk = make_resident(*chunk);
    ++pinned;
  }
  if (pinned != 0) {
    ++generation_;
    maybe_compact_spill();
    STAGG_AUDIT(audit());
  }
  return pinned;
}

std::size_t TraceStore::pin_all() {
  std::size_t pinned = 0;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    pinned += pin(static_cast<ResourceId>(r));
  }
  return pinned;
}

std::size_t TraceStore::resident_chunk_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) {
      if (c->resident()) bytes += c->stored_bytes();
    }
  }
  return bytes;
}

std::size_t TraceStore::spilled_chunk_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Lane& lane : lanes_) {
    for (const TraceChunkPtr& c : lane.chunks) {
      if (!c->resident()) bytes += c->stored_bytes();
    }
  }
  return bytes;
}

void TraceStore::note_unlinked(const ChunkPayload* payload) {
  const auto it = spill_records_.find(payload);
  if (it == spill_records_.end()) return;
  spill_live_bytes_ -= it->second;
  spill_dead_bytes_ += it->second;
  spill_records_.erase(it);
}

void TraceStore::maybe_compact_spill() {
  if (spill_path_.empty() || spill_dead_bytes_ == 0) return;
  if (spill_dead_bytes_ <= spill_live_bytes_) return;
  compact_spill();
}

void TraceStore::compact_spill() {
  // Rewrite the live records to a sibling temp file and rename it over
  // the spill path — the same crash-safety as chunk-file writes.  Old
  // mappings (this store's still-linked records and any outstanding
  // views) survive the rename: POSIX keeps the renamed-over inode's
  // pages alive as long as something maps them.
  const std::string tmp = spill_path_ + ".compact";
  std::remove(tmp.c_str());
  std::vector<TraceChunkPtr*> slots;
  std::vector<SpillItem> items;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    for (TraceChunkPtr& slot : lanes_[r].chunks) {
      if (spill_records_.find(slot->payload().get()) ==
          spill_records_.end()) {
        continue;
      }
      slots.push_back(&slot);
      items.push_back({static_cast<ResourceId>(r), slot.get()});
    }
  }
  std::vector<SpilledChunkRecord> records =
      spill_chunks_to_file(tmp, items, states_.size());
  std::unordered_map<const ChunkPayload*, std::size_t> rewritten;
  std::size_t live = 0;
  for (std::size_t k = 0; k < records.size(); ++k) {
    SpilledChunkRecord& rec = records[k];
    rewritten.emplace(rec.chunk->payload().get(), rec.record_bytes);
    live += rec.record_bytes;
    *slots[k] = std::move(rec.chunk);
  }
  if (!records.empty()) {
    slots.front()->get()->advise(MapAdvice::kDontNeed);
    if (std::rename(tmp.c_str(), spill_path_.c_str()) != 0) {
      throw IoError("cannot rename '" + tmp + "' to '" + spill_path_ + "'");
    }
  } else {
    // Nothing live: the whole file was churn.  Drop it; the next spill
    // recreates it from the magic up.
    std::remove(spill_path_.c_str());
  }
  spill_records_ = std::move(rewritten);
  spill_live_bytes_ = live;
  spill_dead_bytes_ = 0;
  ++generation_;
}

void TraceStore::audit() const {
  const auto fail = [](const std::string& what) {
    throw ContractError("TraceStore::audit: " + what);
  };
  const auto same = [](const StateInterval& a, const StateInterval& b) {
    return a.begin == b.begin && a.end == b.end && a.state == b.state;
  };

  // Table consistency: one lane per path, the id map a bijection.
  if (lanes_.size() != resource_paths_->size()) {
    fail("lane count " + std::to_string(lanes_.size()) +
         " != resource count " + std::to_string(resource_paths_->size()));
  }
  if (resource_ids_.size() != resource_paths_->size()) {
    fail("resource id map has " + std::to_string(resource_ids_.size()) +
         " entries for " + std::to_string(resource_paths_->size()) +
         " paths");
  }
  for (const auto& [path, id] : resource_ids_) {
    if (id < 0 || static_cast<std::size_t>(id) >= resource_paths_->size() ||
        (*resource_paths_)[static_cast<std::size_t>(id)] != path) {
      fail("resource id map entry '" + path + "' -> " + std::to_string(id) +
           " does not match the path table");
    }
  }

  const TimeNs horizon_floor = std::numeric_limits<TimeNs>::min();
  std::unordered_set<const ChunkPayload*> linked;
  for (std::size_t r = 0; r < lanes_.size(); ++r) {
    const Lane& lane = lanes_[r];
    const std::string where = "resource " + std::to_string(r);
    if (lane.open > lane.chunks.size()) {
      fail(where + " bookkeeping: " + std::to_string(lane.open) +
           " open of " + std::to_string(lane.chunks.size()) + " chunks");
    }
    for (std::size_t ci = 0; ci < lane.chunks.size(); ++ci) {
      const TraceChunkPtr& c = lane.chunks[ci];
      const std::string chunk_where =
          where + " chunk " + std::to_string(ci);
      if (!c || c->size() == 0) fail(chunk_where + " is null or empty");
      linked.insert(c->payload().get());
      // Stream through ChunkCursor so every backend — resident, mapped,
      // compressed — is audited through the exact path readers use.
      std::size_t n = 0;
      TimeNs min_end = std::numeric_limits<TimeNs>::max();
      TimeNs max_end = std::numeric_limits<TimeNs>::min();
      TimeNs lead_max_end = std::numeric_limits<TimeNs>::min();
      StateInterval prev{};
      StateInterval last{};
      for (ChunkCursor cur(*c); cur.valid(); cur.next()) {
        const StateInterval& s = cur.current();
        if (s.end < s.begin) {
          fail(chunk_where + " interval " + std::to_string(n) +
               " has end < begin");
        }
        if (s.state < 0 ||
            static_cast<std::size_t>(s.state) >= states_.size()) {
          fail(chunk_where + " interval " + std::to_string(n) +
               " names unregistered state " + std::to_string(s.state));
        }
        if (n > 0 && interval_key_less(s, prev)) {
          fail(chunk_where + " is not sorted by the total key at index " +
               std::to_string(n));
        }
        if (n == 0 && !same(s, c->first())) {
          fail(chunk_where + " cached first() differs from the streamed "
               "first interval");
        }
        min_end = std::min(min_end, s.end);
        max_end = std::max(max_end, s.end);
        if (n > 0) lead_max_end = std::max(lead_max_end, prev.end);
        prev = s;
        last = s;
        ++n;
      }
      if (n != c->size()) {
        fail(chunk_where + " streams " + std::to_string(n) +
             " intervals but reports size " + std::to_string(c->size()));
      }
      if (!same(last, c->last())) {
        fail(chunk_where + " cached last() differs from the streamed last "
             "interval");
      }
      if (c->min_end() != min_end || c->max_end() != max_end) {
        fail(chunk_where + " end fences [" + std::to_string(c->min_end()) +
             ", " + std::to_string(c->max_end()) +
             "] differ from the streamed [" + std::to_string(min_end) +
             ", " + std::to_string(max_end) + "]");
      }
      if (c->lead_max_end() != lead_max_end) {
        fail(chunk_where + " lead fence " +
             std::to_string(c->lead_max_end()) + " differs from the streamed " +
             std::to_string(lead_max_end));
      }
      // Horizon stickiness: seal, evict and compaction all drop what no
      // legal window can read, so a linked chunk's fence clears the
      // horizon (skipped at the floor sentinel, where `<=` would reject
      // legitimate TimeNs-min data on a never-evicted store).
      if (evict_horizon_ != horizon_floor && c->max_end() <= evict_horizon_) {
        fail(chunk_where + " max end " + std::to_string(c->max_end()) +
             " is at or below the eviction horizon " +
             std::to_string(evict_horizon_));
      }
    }
    for (std::size_t ti = 0; ti < lane.tail.size(); ++ti) {
      const StateInterval& s = lane.tail[ti];
      if (s.end < s.begin) {
        fail(where + " tail interval " + std::to_string(ti) +
             " has end < begin");
      }
      if (s.state < 0 ||
          static_cast<std::size_t>(s.state) >= states_.size()) {
        fail(where + " tail interval " + std::to_string(ti) +
             " names unregistered state " + std::to_string(s.state));
      }
    }
  }

  if (sealed_ && !tails_sealed()) {
    fail("store reports sealed() with a non-empty tail");
  }

  // Spill accounting: live record bytes sum exactly, and every live
  // record's payload is still linked in some lane (a record surviving its
  // chunk would leak file bytes forever).
  std::size_t live = 0;
  for (const auto& [payload, bytes] : spill_records_) {
    live += bytes;
    if (linked.find(payload) == linked.end()) {
      fail("spill record of an unlinked chunk still counted live");
    }
  }
  if (live != spill_live_bytes_) {
    fail("spill records sum to " + std::to_string(live) +
         " live bytes but spill_live_bytes() reports " +
         std::to_string(spill_live_bytes_));
  }

  // Window: well-formed always; fence-exact when auto-derived and sealed.
  if (end_ < begin_) fail("window end precedes window begin");
  if (sealed_ && !window_overridden_) {
    TimeNs lo = std::numeric_limits<TimeNs>::max();
    TimeNs hi = std::numeric_limits<TimeNs>::min();
    bool any = false;
    for (const Lane& lane : lanes_) {
      for (const TraceChunkPtr& c : lane.chunks) {
        lo = std::min(lo, c->min_begin());
        hi = std::max(hi, c->max_end());
        any = true;
      }
    }
    const TimeNs want_begin = any ? lo : 0;
    const TimeNs want_end = any ? hi : 0;
    if (begin_ != want_begin || end_ != want_end) {
      fail("sealed auto-derived window [" + std::to_string(begin_) + ", " +
           std::to_string(end_) + ") differs from the fence-derived [" +
           std::to_string(want_begin) + ", " + std::to_string(want_end) +
           ")");
    }
  }
}

}  // namespace stagg
