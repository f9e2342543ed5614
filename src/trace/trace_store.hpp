// Immutable chunked trace storage — the shared substrate of multi-session
// analysis servers (dariadb-style chunk files: sealed columnar pages that
// can live in memory or on disk).
//
// A TraceStore holds, per resource, a list of *sealed* chunks — immutable,
// columnar (SoA) runs of state intervals sorted by (begin, end, state),
// each carrying min/max-time fences — plus one small mutable append tail.
// seal_chunk() sorts every non-empty tail and freezes it into a new chunk;
// evict_before() drops whole chunks whose fence proves they can never
// overlap a window starting at the cutoff.  Sealed chunks are held by
// shared_ptr and never mutated: any number of TraceView readers (windows,
// hierarchy scopes, concurrent sessions) share them zero-copy, and
// compaction or eviction in the store simply unlinks chunks that outstanding
// views keep alive.
//
// Storage backends: a sealed chunk's payload is polymorphic (ChunkPayload).
// The resident backend owns its columns as heap vectors; the file-backed
// backend exposes the columns of an mmapped chunk-file record in place
// (common/mapped_file.hpp), so a spilled chunk costs reclaimable page-cache
// pages instead of anonymous heap; the compressed backend (resident or
// file-backed) holds delta/dictionary-encoded column blocks
// (trace/compression.hpp) that ChunkCursor streaming-decodes — never
// materialising whole columns — when set_compression enables the policy.
// spill_cold() rewrites the coldest resident chunks (ascending fence
// max-end — an LRU over trace time) to the store's spill file and swaps in
// mapped payloads until the resident chunk bytes fit a budget; pin() swaps
// a resource's spilled chunks back to resident copies.  Both swap *chunk
// pointers*, never chunk contents, so an outstanding TraceView — which
// pinned its chunks by reference at selection — keeps streaming its
// snapshot bit-identically through a mid-stream spill, pin, eviction or
// compaction.  All byte accounting (resident_chunk_bytes, store_bytes)
// counts *stored* bytes: encoded size for compressed chunks, so budget
// math sees the real footprint.
//
// Ordering contract: chunks are sorted by the *total* key (begin, end,
// state).  Intervals with identical keys are indistinguishable to every
// consumer (they fold the same mass into the same model cell), so the
// merged per-resource sequence — and therefore every model fold — is a pure
// function of the interval multiset, independent of how the intervals were
// partitioned into chunks.  This is what makes an N-chunk shared store
// bit-identical to a freshly sorted single-owner trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mapped_file.hpp"
#include "trace/compression.hpp"
#include "trace/event.hpp"
#include "trace/state_registry.hpp"

namespace stagg {

/// Total sort key of the chunked trace layer: (begin, end, state).
/// Strict-weak and *total up to indistinguishability* — equal keys mean
/// equal intervals — so merges of separately sorted chunks are
/// layout-independent.
[[nodiscard]] inline bool interval_key_less(const StateInterval& a,
                                            const StateInterval& b) noexcept {
  if (a.begin != b.begin) return a.begin < b.begin;
  if (a.end != b.end) return a.end < b.end;
  return a.state < b.state;
}

/// Backend of one sealed chunk's columns.  Implementations hold three
/// parallel columns sorted by (begin, end, state); they are immutable for
/// the payload's lifetime.  Addressable backends expose the columns as
/// spans; the compressed backend exposes encoded blocks instead and is
/// read through ChunkCursor's streaming decode.
class ChunkPayload {
 public:
  virtual ~ChunkPayload() = default;
  ChunkPayload(const ChunkPayload&) = delete;
  ChunkPayload& operator=(const ChunkPayload&) = delete;

  /// Column spans; empty for non-addressable (compressed) backends.
  [[nodiscard]] virtual std::span<const TimeNs> begins() const noexcept = 0;
  [[nodiscard]] virtual std::span<const TimeNs> ends() const noexcept = 0;
  [[nodiscard]] virtual std::span<const StateId> states() const noexcept = 0;

  /// Number of intervals (all backends, addressable or not).
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// True when the columns can be read in place through the spans (resident
  /// heap vectors, mapped raw records); false for compressed blocks, which
  /// only support cursor streaming.
  [[nodiscard]] virtual bool addressable() const noexcept { return true; }

  /// True when the backing memory is anonymous heap owned by this payload
  /// (it counts against a resident-byte budget); false for file-backed
  /// payloads, whose pages the OS loads and reclaims on demand.
  [[nodiscard]] virtual bool resident() const noexcept = 0;

  /// Actual storage footprint: encoded bytes for compressed payloads,
  /// the raw column bytes otherwise.  This — not the logical size — is
  /// what every budget and accounting sums.
  [[nodiscard]] virtual std::size_t stored_bytes() const noexcept {
    return bytes();
  }

  /// Forwards paging advice to the backing mapped region; no-op for
  /// resident backends and where madvise is unsupported.
  virtual void advise(MapAdvice /*advice*/) const noexcept {}

  /// Logical payload bytes of the three columns (backend-independent).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return size() * (sizeof(TimeNs) * 2 + sizeof(StateId));
  }

 protected:
  ChunkPayload() = default;
};

/// Heap-vector backend (the seal/compaction/pin path).
class ResidentChunkPayload final : public ChunkPayload {
 public:
  ResidentChunkPayload(std::vector<TimeNs> begins, std::vector<TimeNs> ends,
                       std::vector<StateId> states) noexcept
      : begins_(std::move(begins)),
        ends_(std::move(ends)),
        states_(std::move(states)) {}

  [[nodiscard]] std::span<const TimeNs> begins() const noexcept override {
    return begins_;
  }
  [[nodiscard]] std::span<const TimeNs> ends() const noexcept override {
    return ends_;
  }
  [[nodiscard]] std::span<const StateId> states() const noexcept override {
    return states_;
  }
  [[nodiscard]] std::size_t size() const noexcept override {
    return begins_.size();
  }
  [[nodiscard]] bool resident() const noexcept override { return true; }

 private:
  std::vector<TimeNs> begins_;
  std::vector<TimeNs> ends_;
  std::vector<StateId> states_;
};

/// File-backed backend: columns point into a chunk-file record mapped by a
/// shared MappedRegion (binary_io.hpp owns the on-disk format and builds
/// these after validating section bounds, checksum and sort order).  The
/// payload keeps its region alive, so a chunk stays readable after the
/// store unlinks it — or even after the spill file is unlinked.
class MappedChunkPayload final : public ChunkPayload {
 public:
  MappedChunkPayload(std::shared_ptr<const MappedRegion> region,
                     std::span<const TimeNs> begins,
                     std::span<const TimeNs> ends,
                     std::span<const StateId> states) noexcept
      : region_(std::move(region)),
        begins_(begins),
        ends_(ends),
        states_(states) {}

  [[nodiscard]] std::span<const TimeNs> begins() const noexcept override {
    return begins_;
  }
  [[nodiscard]] std::span<const TimeNs> ends() const noexcept override {
    return ends_;
  }
  [[nodiscard]] std::span<const StateId> states() const noexcept override {
    return states_;
  }
  [[nodiscard]] std::size_t size() const noexcept override {
    return begins_.size();
  }
  [[nodiscard]] bool resident() const noexcept override { return false; }
  void advise(MapAdvice advice) const noexcept override {
    region_->advise(advice);
  }

 private:
  std::shared_ptr<const MappedRegion> region_;
  std::span<const TimeNs> begins_;
  std::span<const TimeNs> ends_;
  std::span<const StateId> states_;
};

/// Compressed backend: the three columns live as self-describing encoded
/// blocks (trace/compression.hpp) — either in an owned heap buffer
/// (compressed-resident, the seal-time compression policy) or pointing
/// into a mapped STGC v2 record (compressed file-backed).  Not
/// addressable: readers stream it through ChunkCursor, whose fixed-size
/// decoder state is the only scratch.  stored_bytes() reports the encoded
/// size, so budgets see the real (3-5x smaller) footprint.
class CompressedChunkPayload final : public ChunkPayload {
 public:
  /// Compressed-resident: adopts the encoder's buffer.
  explicit CompressedChunkPayload(EncodedColumns encoded) noexcept
      : owned_(std::move(encoded.bytes)),
        coding_{encoded.count,
                encoded.begin_codec,
                encoded.end_codec,
                encoded.state_codec,
                {},
                {},
                {}} {
    const std::span<const std::uint8_t> all(owned_);
    coding_.begin_section =
        all.subspan(0, static_cast<std::size_t>(encoded.begin_bytes));
    coding_.end_section =
        all.subspan(static_cast<std::size_t>(encoded.begin_bytes),
                    static_cast<std::size_t>(encoded.end_bytes));
    coding_.state_section = all.subspan(
        static_cast<std::size_t>(encoded.begin_bytes + encoded.end_bytes),
        static_cast<std::size_t>(encoded.state_bytes));
  }

  /// Compressed file-backed: the coding's sections point into `region`
  /// (binary_io validates the record before building one of these).
  CompressedChunkPayload(std::shared_ptr<const MappedRegion> region,
                         const ColumnsCoding& coding) noexcept
      : region_(std::move(region)), coding_(coding) {}

  [[nodiscard]] std::span<const TimeNs> begins() const noexcept override {
    return {};
  }
  [[nodiscard]] std::span<const TimeNs> ends() const noexcept override {
    return {};
  }
  [[nodiscard]] std::span<const StateId> states() const noexcept override {
    return {};
  }
  [[nodiscard]] std::size_t size() const noexcept override {
    return static_cast<std::size_t>(coding_.count);
  }
  [[nodiscard]] bool addressable() const noexcept override { return false; }
  [[nodiscard]] bool resident() const noexcept override {
    return region_ == nullptr;
  }
  [[nodiscard]] std::size_t stored_bytes() const noexcept override {
    return coding_.encoded_bytes();
  }
  void advise(MapAdvice advice) const noexcept override {
    if (region_ != nullptr) region_->advise(advice);
  }

  [[nodiscard]] const ColumnsCoding& coding() const noexcept {
    return coding_;
  }

 private:
  /// Exactly one of these backs the sections: the owned buffer
  /// (resident) or the mapped region (file-backed).
  std::vector<std::uint8_t> owned_;
  std::shared_ptr<const MappedRegion> region_;
  ColumnsCoding coding_;
};

/// One sealed run of a resource's intervals: columnar, sorted by
/// (begin, end, state), immutable after construction.  The time fences
/// (min begin, min/max end) let window selection and eviction decide
/// chunk fate without touching the columns.  The columns live in a
/// backend-polymorphic ChunkPayload; the chunk caches their spans, so the
/// hot accessors cost the same for resident and mapped backends.
class TraceChunk {
 public:
  /// Freezes parallel columns already sorted by (begin, end, state) into a
  /// resident payload.  Throws InvalidArgument on empty or mismatched
  /// columns.
  TraceChunk(std::vector<TimeNs> begins, std::vector<TimeNs> ends,
             std::vector<StateId> states);

  /// Wraps an externally validated *addressable* payload (the mmap
  /// open/spill path).  The caller vouches that the columns are non-empty,
  /// sorted by the total key and that `min_end`/`max_end` are their true
  /// end fences — binary_io's record validation recomputes all three
  /// while checksumming.
  TraceChunk(std::shared_ptr<const ChunkPayload> payload, TimeNs min_end,
             TimeNs max_end);

  /// Wraps an externally validated payload of any backend, with the
  /// boundary intervals and end fences supplied (a compressed payload
  /// cannot derive them by indexing).  `first`/`last` are the first and
  /// last intervals of the sorted run and `lead_max_end` the lead fence
  /// (see lead_max_end()); validation or the encoder scan provides them.
  TraceChunk(std::shared_ptr<const ChunkPayload> payload, StateInterval first,
             StateInterval last, TimeNs min_end, TimeNs max_end,
             TimeNs lead_max_end);

  /// Freezes a sorted row-major run (the seal path).
  [[nodiscard]] static std::shared_ptr<const TraceChunk> from_sorted(
      std::span<const StateInterval> sorted);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Random access — addressable backends only (ChunkCursor streams every
  /// backend, including compressed).
  [[nodiscard]] StateInterval at(std::size_t i) const noexcept {
    return {begins_[i], ends_[i], states_[i]};
  }
  /// Column spans; empty for compressed (non-addressable) chunks.
  [[nodiscard]] std::span<const TimeNs> begins() const noexcept {
    return begins_;
  }
  [[nodiscard]] std::span<const TimeNs> ends() const noexcept { return ends_; }
  [[nodiscard]] std::span<const StateId> states() const noexcept {
    return states_;
  }

  /// Boundary intervals of the sorted run (all backends).
  [[nodiscard]] const StateInterval& first() const noexcept { return first_; }
  [[nodiscard]] const StateInterval& last() const noexcept { return last_; }

  /// Fences.  begins are sorted, so min_begin is the first entry; the end
  /// column is not sorted, so min/max are tracked at construction.
  [[nodiscard]] TimeNs min_begin() const noexcept { return first_.begin; }
  [[nodiscard]] TimeNs min_end() const noexcept { return min_end_; }
  [[nodiscard]] TimeNs max_end() const noexcept { return max_end_; }
  /// Lead fence: the highest end among all intervals but the last (the
  /// TimeNs minimum for a one-interval chunk).  When it is at or before a
  /// window's begin, last() is the only interval that can overlap the
  /// window — the straddler at the end of an in-order chunk — and views
  /// read it without streaming the chunk.
  [[nodiscard]] TimeNs lead_max_end() const noexcept {
    return lead_max_end_;
  }

  /// Payload bytes of the three columns (logical size, backend-independent).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return size_ * (sizeof(TimeNs) * 2 + sizeof(StateId));
  }
  /// Actual storage footprint (encoded bytes for compressed chunks) — the
  /// number every budget counts.
  [[nodiscard]] std::size_t stored_bytes() const noexcept {
    return payload_->stored_bytes();
  }

  /// Whether the columns count against a resident-memory budget (see
  /// ChunkPayload::resident).
  [[nodiscard]] bool resident() const noexcept { return payload_->resident(); }
  /// Whether at()/the column spans may be used (see
  /// ChunkPayload::addressable).
  [[nodiscard]] bool addressable() const noexcept {
    return payload_->addressable();
  }
  /// Forwards paging advice to a file-backed payload (no-op otherwise).
  void advise(MapAdvice advice) const noexcept { payload_->advise(advice); }
  [[nodiscard]] const std::shared_ptr<const ChunkPayload>& payload()
      const noexcept {
    return payload_;
  }

  /// Size of the longest prefix whose begins lie below `t1` (begins are
  /// sorted).  When the prefix is non-empty and `last` is non-null, also
  /// reports its final interval (the first is first()).  Addressable
  /// chunks binary-search; compressed chunks stream-decode, stopping at
  /// the first begin >= t1.
  [[nodiscard]] std::size_t prefix_below(TimeNs t1,
                                         StateInterval* last) const;

 private:
  std::shared_ptr<const ChunkPayload> payload_;
  /// Cached payload spans (stable: payloads are immutable; empty for
  /// compressed payloads).
  std::span<const TimeNs> begins_;
  std::span<const TimeNs> ends_;
  std::span<const StateId> states_;
  std::size_t size_ = 0;
  StateInterval first_{};
  StateInterval last_{};
  TimeNs min_end_ = 0;
  TimeNs max_end_ = 0;
  TimeNs lead_max_end_ = std::numeric_limits<TimeNs>::min();
};

using TraceChunkPtr = std::shared_ptr<const TraceChunk>;

/// Streaming reader over the prefix [0, limit) of one sealed chunk — the
/// uniform way to consume any backend.  Addressable chunks are read
/// through their cached spans; compressed chunks stream through a
/// ColumnsDecoder whose fixed-size state is the per-run cursor buffer
/// (whole columns are never materialised).
class ChunkCursor {
 public:
  ChunkCursor(const TraceChunk& chunk, std::size_t limit);
  explicit ChunkCursor(const TraceChunk& chunk)
      : ChunkCursor(chunk, chunk.size()) {}

  [[nodiscard]] bool valid() const noexcept { return pos_ < limit_; }
  [[nodiscard]] const StateInterval& current() const noexcept { return cur_; }
  void next() {
    if (++pos_ >= limit_) return;
    if (decoder_.has_value()) {
      decode_next();
    } else {
      cur_ = chunk_->at(pos_);
    }
  }

  /// Bytes of decoder scratch this cursor holds (0 for addressable runs).
  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    return decoder_.has_value() ? decoder_->scratch_bytes() : 0;
  }

 private:
  void decode_next();

  const TraceChunk* chunk_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;
  StateInterval cur_{};
  std::optional<ColumnsDecoder> decoder_;
};

/// One sorted run for the shared k-way merge: the prefix [0, size) of a
/// sealed chunk.
struct ChunkRun {
  const TraceChunk* chunk = nullptr;
  std::size_t size = 0;
};

/// Streams the k-way merge of sorted runs to `f(StateInterval)` in
/// (begin, end, state) order — the one canonical merge that both the
/// store's row materialization/compaction and TraceView cursors use.
/// Equal keys emit lowest-run-first; since equal keys are
/// indistinguishable intervals, the output is the unique sorted sequence
/// of the input multiset regardless of how it was chunked.  Runs stream
/// through ChunkCursor, so every backend — resident, mapped, compressed —
/// merges identically.  Whole runs already in key order (each one's first
/// interval not below the previous one's last — compaction keeps live
/// lanes so) are streamed one after another, which is the same sequence.
template <class F>
void merge_chunk_runs(std::span<const ChunkRun> runs, F&& f) {
  if (runs.empty()) return;
  bool in_order = true;
  for (std::size_t k = 1; k < runs.size() && in_order; ++k) {
    const ChunkRun& prev = runs[k - 1];
    in_order = prev.size == prev.chunk->size() &&
               !interval_key_less(runs[k].chunk->first(), prev.chunk->last());
  }
  if (in_order) {
    for (const ChunkRun& run : runs) {
      for (ChunkCursor c(*run.chunk, run.size); c.valid(); c.next()) {
        f(c.current());
      }
    }
    return;
  }
  std::vector<ChunkCursor> cursors;
  cursors.reserve(runs.size());
  for (const ChunkRun& run : runs) cursors.emplace_back(*run.chunk, run.size);
  for (;;) {
    ChunkCursor* best = nullptr;
    for (ChunkCursor& c : cursors) {
      if (!c.valid()) continue;
      if (best == nullptr || interval_key_less(c.current(), best->current())) {
        best = &c;
      }
    }
    if (best == nullptr) break;
    f(best->current());
    best->next();
  }
}

/// Seal-time chunk compression policy (TraceStore::set_compression).
enum class ChunkCompression : std::uint8_t {
  kNone = 0,  ///< Sealed chunks stay raw resident columns.
  kAuto = 1,  ///< Sealed chunks are encoded per column (cheapest codec
              ///< wins) whenever that shrinks them; raw otherwise.
};

/// Shared, chunked, append-tailed trace storage.  Mutations (append, seal,
/// evict, compact) are single-writer: they must not race with each other.
/// Sealed chunks, once handed out (to a TraceView or via chunks()), are
/// never modified — concurrent *readers* need no synchronization.
class TraceStore {
 public:
  TraceStore() = default;
  // Copy shares the immutable sealed chunks and duplicates only tails and
  // tables — a cheap value copy with copy-on-write chunk granularity.
  TraceStore(const TraceStore&) = default;
  TraceStore& operator=(const TraceStore&) = default;
  TraceStore(TraceStore&&) noexcept = default;
  TraceStore& operator=(TraceStore&&) noexcept = default;

  /// Registers a resource by hierarchy path; returns its dense id.
  /// Re-registering an existing path returns the existing id.
  ResourceId add_resource(std::string_view path);

  [[nodiscard]] std::size_t resource_count() const noexcept {
    return resource_paths_->size();
  }
  [[nodiscard]] const std::string& resource_path(ResourceId r) const {
    return (*resource_paths_)[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const std::vector<std::string>& resource_paths()
      const noexcept {
    return *resource_paths_;
  }
  /// Pins the current path table: the table is copy-on-write, so a later
  /// add_resource (on this store or a copy) never mutates a pinned
  /// snapshot.  TraceViews hold one of these.
  [[nodiscard]] std::shared_ptr<const std::vector<std::string>>
  resource_paths_ptr() const noexcept {
    return resource_paths_;
  }
  /// Finds a resource id by path (kInvalidResource when absent).
  [[nodiscard]] ResourceId find_resource(std::string_view path) const;

  [[nodiscard]] StateRegistry& states() noexcept { return states_; }
  [[nodiscard]] const StateRegistry& states() const noexcept {
    return states_;
  }

  /// Appends a state occurrence to the resource's mutable tail.  Throws
  /// InvalidArgument on end < begin or unknown resource/state ids.
  void add_state(ResourceId resource, StateId state, TimeNs begin, TimeNs end);

  /// Seals every non-empty tail into a new immutable chunk (sorted by the
  /// total key) and re-derives the observation window from the chunk
  /// fences unless overridden.  Idempotent.
  ///
  /// Compaction is tiered and in append order.  A lane's chunks split into
  /// a *closed* prefix, never merged again, and an *open* suffix holding
  /// less than the lane's chunk_cap() intervals.  A sealed tail joins the
  /// open suffix.  If the suffix then holds a cap's worth, it merges whole
  /// into closed chunks of exactly the cap plus one open remainder.
  /// Otherwise the tail absorbs the newest open chunks of a smaller size
  /// class (size class = floor(log_F size), F = kMergeFanIn), and while
  /// the F newest open chunks share one size class they merge.  Every copy
  /// of an interval therefore lifts it into a higher size class or closes
  /// it: O(log cap) copies per interval (compaction_copies()).  Members in
  /// key order (the live case) are concatenated, others k-way merged; both
  /// drop intervals at or below the eviction horizon.
  ///
  /// Only lanes with a staged tail, or with more chunks than
  /// lane_chunk_bound() (adopted chunks), are visited, in pool tasks of
  /// about kSealTaskIntervals staged intervals (kSealTaskEncodedIntervals
  /// under kAuto).  A lane over the bound is
  /// rewritten whole into cap-sized chunks; a growing raw lane reaches the
  /// bound only after its stored count has grown severalfold, so the
  /// rewrite adds O(1) copies per interval.
  void seal_chunk();

  /// True after seal_chunk() until the next mutation — all tails are
  /// sealed and the observation window is valid.
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }
  /// Weaker predicate: every tail is empty (chunk set is complete) even if
  /// the auto-derived window is stale.  TraceViews require only this.
  [[nodiscard]] bool tails_sealed() const noexcept;

  /// Chunk-fence eviction: unlinks every sealed chunk whose max end is at
  /// or before `cutoff` (by the half-open convention such intervals can
  /// never overlap a window starting at `cutoff`) and filters the tails.
  /// Straddling chunks are kept whole — O(#chunks), never rewrites columns.
  /// Outstanding views keep unlinked chunks alive.  The cutoff is also
  /// remembered as the store's *eviction horizon*: the next compaction
  /// drops the individually dead intervals a straddling chunk retained, so
  /// long-running sliding ingest keeps memory proportional to the live
  /// window, not to everything ever ingested.
  void evict_before(TimeNs cutoff);

  /// Highest evict_before cutoff seen.  Data at or below it is gone (or
  /// going); readers whose window reaches before it would silently
  /// under-count and must be rejected (sessions check this at attach).
  [[nodiscard]] TimeNs evict_horizon() const noexcept {
    return evict_horizon_;
  }

  /// Observation window [begin, end); valid after seal_chunk().  An empty
  /// store reports [0, 0).
  [[nodiscard]] TimeNs begin() const noexcept { return begin_; }
  [[nodiscard]] TimeNs end() const noexcept { return end_; }
  [[nodiscard]] TimeNs span() const noexcept { return end_ - begin_; }
  /// Overrides the observation window (e.g. to align several traces).
  void set_window(TimeNs begin, TimeNs end);

  /// Total number of state occurrences (sealed + tail).
  [[nodiscard]] std::uint64_t state_count() const noexcept;

  /// Intervals written by compaction merges since construction (a lone
  /// tail frozen into its own chunk is not a compaction copy).
  [[nodiscard]] std::uint64_t compaction_copies() const noexcept {
    return compaction_copies_;
  }

  /// Sealed chunks of one resource, oldest first.
  [[nodiscard]] std::span<const TraceChunkPtr> chunks(ResourceId r) const {
    return lanes_[static_cast<std::size_t>(r)].chunks;
  }
  /// Adopts an externally built sealed chunk (the zero-copy chunk-file
  /// open path): appended to resource r's chunk list as-is.  The chunk
  /// must be sorted by the total key — binary_io validates this when it
  /// maps a record.  Adopted chunks are closed; the next seal rewrites the
  /// lane only if it holds more than lane_chunk_bound() chunks.  Unseals
  /// the store (call seal_chunk() when done).
  void adopt_chunk(ResourceId r, TraceChunkPtr chunk);
  /// Mutable tail of one resource, in append order.
  [[nodiscard]] std::span<const StateInterval> tail(ResourceId r) const {
    return lanes_[static_cast<std::size_t>(r)].tail;
  }

  /// Rebuilds the fully merged row view of one resource: sealed chunks
  /// k-way-merged by the total key, followed by the tail in append order
  /// (the Trace facade's intervals() contract).
  void materialize(ResourceId r, std::vector<StateInterval>& out) const;

  /// Monotonic mutation counter (starts at 1); lets facades cache
  /// materialized rows and detect staleness cheaply.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// Stored payload bytes held by the store: sealed chunk footprints
  /// (encoded size for compressed chunks) plus tail capacity, regardless
  /// of backend.  The number a multi-session server shares — and counts
  /// once — across all sessions reading this store.
  [[nodiscard]] std::size_t store_bytes() const noexcept;

  // --- Seal-time compression policy --------------------------------------

  /// Sets the compression policy applied when chunks are sealed or
  /// compacted.  Enabling kAuto also re-encodes the already sealed
  /// resident raw chunks in place (slot swaps; outstanding views keep
  /// their pinned raw chunks).  Switching back to kNone only affects
  /// future seals — existing compressed chunks stay compressed.
  void set_compression(ChunkCompression policy);
  [[nodiscard]] ChunkCompression compression() const noexcept {
    return compression_;
  }

  // --- On-disk spill (backend swap; contents never change) ---------------

  /// Configures the append-only spill file cold chunks are written to.
  /// Required before spill_cold().  The file is created lazily on the
  /// first spill; it only ever grows (spilled records stay mapped even
  /// after eviction unlinks their chunks).  Store copies inherit the path
  /// — give long-lived copies their own spill file before spilling from
  /// them, appends are only serialized within one store.
  void enable_spill(std::string path);
  [[nodiscard]] bool spill_enabled() const noexcept {
    return !spill_path_.empty();
  }
  [[nodiscard]] const std::string& spill_path() const noexcept {
    return spill_path_;
  }

  /// Spills the coldest resident sealed chunks — ascending fence max-end,
  /// an LRU over trace time, so data below or just above the oldest live
  /// window goes first — until resident_chunk_bytes() <= budget_bytes or
  /// no resident chunk is left.  The spilled chunks are appended to the
  /// spill file in one write and mapped back as one region, and each
  /// lane slot is swapped to a file-backed (mmap) payload;
  /// outstanding views keep streaming the old resident chunk they pinned.
  /// Returns the number of chunks spilled.  Throws InvalidArgument when
  /// spill is not enabled.
  std::size_t spill_cold(std::size_t budget_bytes);

  /// Swaps every spilled chunk of resource r back to a resident copy
  /// (e.g. before hot re-reads, or by compaction before it merges across
  /// one).  Returns the number of chunks pinned.
  std::size_t pin(ResourceId r);
  /// pin() over every resource.
  std::size_t pin_all();

  /// Resident split of the sealed chunk *stored* bytes (encoded size for
  /// compressed chunks; tails are always resident and counted by neither:
  /// they are mutable and unspillable).  The budget spill_cold() enforces
  /// is over resident_chunk_bytes().
  [[nodiscard]] std::size_t resident_chunk_bytes() const noexcept;
  [[nodiscard]] std::size_t spilled_chunk_bytes() const noexcept;

  /// Spill-file occupancy: bytes of records whose chunks are still linked
  /// in a lane vs records orphaned by pin/evict/compaction churn.  Once
  /// dead bytes exceed live bytes the store compacts the file (temp +
  /// rename, like chunk-file writes), remapping the live records — so the
  /// file stays bounded by ~2x the live spilled set.  Outstanding views
  /// keep reading their old mappings (POSIX keeps renamed-over pages
  /// alive).
  [[nodiscard]] std::size_t spill_live_bytes() const noexcept {
    return spill_live_bytes_;
  }
  [[nodiscard]] std::size_t spill_dead_bytes() const noexcept {
    return spill_dead_bytes_;
  }

  /// Structural audit: re-derives every invariant the readers rely on and
  /// throws ContractError (common/contract.hpp) on the first violation —
  ///   * table consistency: one lane per registered resource path, the id
  ///     map a bijection onto the path table;
  ///   * per chunk (streamed through ChunkCursor, so every backend —
  ///     resident, mapped, compressed — is audited through the same path):
  ///     non-empty, sorted by the total (begin, end, state) key, every
  ///     end >= begin, states within the registry, the cached boundary
  ///     intervals and min/max-end fences *exactly* equal to the streamed
  ///     ones, and the fence clear of the eviction horizon (horizon
  ///     stickiness: seal, evict and compaction all drop what a legal
  ///     window can no longer read);
  ///   * tails: well-formed intervals over registered states;
  ///   * spill accounting: live record bytes sum to spill_live_bytes() and
  ///     every live record belongs to a chunk still linked in a lane;
  ///   * window: end >= begin, and equal to the fence-derived window when
  ///     sealed and not overridden.
  /// O(state_count()) — call it at stage boundaries (STAGG_AUDIT does, in
  /// audit builds), not per append.  Always compiled: tests may drive it
  /// directly in any build.
  void audit() const;

  /// Compression splits large runs into blocks of at most this many
  /// intervals, each sealed as its own chunk with its own time fences.
  /// Encoded columns have no random access, so fence granularity is what
  /// keeps incremental refolds cheap: a view selecting a window suffix
  /// fence-skips the blocks wholly behind it instead of stream-decoding a
  /// monolithic chunk from the start on every advance.  It is also the
  /// compressed lanes' chunk cap: a full block is closed and never decoded
  /// by compaction again.
  static constexpr std::size_t kCompressedBlockIntervals = 512;

  /// Compaction fan-in F: F open chunks of one size class merge, and size
  /// classes are powers of F.
  static constexpr std::size_t kMergeFanIn = 4;
  /// A raw lane's chunk cap is its stored intervals / kRawCapShare (at
  /// least kMinRawCap), so a chunk straddling the eviction cutoff holds at
  /// most ~1/8 of the lane as dead weight.
  static constexpr std::size_t kRawCapShare = 8;
  static constexpr std::size_t kMinRawCap = 32;
  /// seal_chunk() hands the pool one task per this many staged intervals.
  static constexpr std::size_t kSealTaskIntervals = 2048;
  /// The same under kAuto, where every frozen or merged run is also
  /// encoded: a staged interval costs several times the raw seal work, so
  /// a seal of a few hundred intervals still fans out across the pool.
  static constexpr std::size_t kSealTaskEncodedIntervals = 128;

  /// Largest chunk a merge writes for a lane of `stored` intervals:
  /// kCompressedBlockIntervals under kAuto, else
  /// max(kMinRawCap, stored / kRawCapShare).
  [[nodiscard]] static std::size_t chunk_cap(std::size_t stored,
                                             ChunkCompression policy) noexcept;
  /// Documented per-lane chunk bound: 2 * ceil(stored / cap) closed chunks
  /// plus (F - 1) open chunks per size class below the cap, for
  /// cap = chunk_cap(stored, policy).  seal_chunk() rewrites a lane whose
  /// chunk list exceeds it.
  [[nodiscard]] static std::size_t lane_chunk_bound(
      std::size_t stored, ChunkCompression policy) noexcept;

 private:
  struct Lane {
    std::vector<TraceChunkPtr> chunks;
    std::vector<StateInterval> tail;
    /// The newest `open` chunks may still merge; the rest are closed.
    std::size_t open = 0;
  };
  /// What one seal task hands back for the serial fold-in.
  struct SealWork {
    std::vector<std::shared_ptr<const ChunkPayload>> unlinked;
    std::uint64_t copies = 0;
    /// Intervals merges dropped at or below the eviction horizon.
    std::uint64_t dropped = 0;
  };

  /// Seals one lane holding `stored` intervals in its chunks.
  void seal_lane(Lane& lane, std::size_t stored, SealWork& work);
  /// Appends a sorted run (a freshly frozen tail) to the open suffix and
  /// restores the tier shape (see seal_chunk).
  void insert_run(Lane& lane, std::span<const StateInterval> run,
                  std::size_t cap, SealWork& work);
  /// Merges the newest `members` chunks (all open) and re-appends the
  /// output as closed cap-sized chunks plus one open remainder.
  void merge_suffix(Lane& lane, std::size_t members, std::size_t cap,
                    SealWork& work);
  /// Appends `n` sorted intervals, built by `piece(lo, len)`, as closed
  /// chunks of exactly `cap` plus one open remainder.
  void append_cut(
      Lane& lane, std::size_t n, std::size_t cap,
      const std::function<TraceChunkPtr(std::size_t, std::size_t)>& piece);
  void derive_window();

  /// Applies the compression policy to a freshly built resident chunk,
  /// appending the result to `out`: compressed-resident block chunks (at
  /// most kCompressedBlockIntervals intervals each) when the policy is
  /// kAuto and encoding shrinks the run, the chunk itself unchanged
  /// otherwise.  Returns the number of chunks appended.
  std::size_t maybe_compress_into(TraceChunkPtr chunk,
                                  std::vector<TraceChunkPtr>& out) const;

  /// Spill-file record accounting: called whenever a chunk leaves its
  /// lane slot for good (evict, pin, compaction merge) so the
  /// record it may own in the spill file is counted dead.
  void note_unlinked(const ChunkPayload* payload);
  /// Compacts the spill file once dead bytes exceed live bytes.
  void maybe_compact_spill();
  void compact_spill();

  /// Append-only spill file; empty = spill disabled.
  std::string spill_path_;
  /// Live spill-file records by payload identity -> record bytes.
  std::unordered_map<const ChunkPayload*, std::size_t> spill_records_;
  std::size_t spill_live_bytes_ = 0;
  std::size_t spill_dead_bytes_ = 0;
  ChunkCompression compression_ = ChunkCompression::kNone;

  /// Copy-on-write: cloned before mutation whenever pinned by a view (or
  /// shared with a store copy), so outstanding snapshots stay stable.
  std::shared_ptr<std::vector<std::string>> resource_paths_ =
      std::make_shared<std::vector<std::string>>();
  std::unordered_map<std::string, ResourceId> resource_ids_;
  StateRegistry states_;
  std::vector<Lane> lanes_;
  TimeNs begin_ = 0;
  TimeNs end_ = 0;
  /// Highest evict_before cutoff seen.  Compaction may drop any interval
  /// ending at or before it — provably unreadable by every legal window.
  TimeNs evict_horizon_ = std::numeric_limits<TimeNs>::min();
  bool sealed_ = false;
  bool window_overridden_ = false;
  std::uint64_t generation_ = 1;
  std::uint64_t compaction_copies_ = 0;
};

}  // namespace stagg
