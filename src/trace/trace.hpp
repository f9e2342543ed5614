// In-memory execution trace: per-resource sorted state intervals.
//
// This is the substrate the paper obtains from Score-P/OTF2 dumps; here it
// is produced either by the synthetic workload generators or by the binary /
// CSV readers.  Resources are identified by their hierarchy path so a trace
// can be re-attached to the platform hierarchy it was captured on.
//
// Since the multi-session refactor, Trace is a thin value-semantic facade
// over an immutable chunked TraceStore (trace/trace_store.hpp): appends go
// to the store's mutable tails, seal() seals them into immutable sorted
// chunks, and intervals() lazily materializes the merged row view of one
// resource.  Copying a Trace copies the store *tables and tails* but shares
// the sealed chunks (they are immutable), so a copy is cheap and still
// fully independent.  The store can be lifted out (store()) to back any
// number of zero-copy TraceViews and shared sliding-window sessions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hpp"
#include "trace/state_registry.hpp"
#include "trace/trace_store.hpp"
#include "trace/trace_view.hpp"

namespace stagg {

class Trace;

/// Throws TraceFormatError if any resource path or state name of `trace`
/// contains a comma or line break — the shared write-time precondition of
/// the unquoted comma-separated trace formats (CSV, pj_dump), checked
/// before a single record is emitted.  `path_kind` names the path field
/// in error messages ("resource path" for CSV, "container path" for
/// pj_dump).
void require_delimiter_safe_names(const Trace& trace,
                                  std::string_view path_kind);

/// Mutable in-memory trace.  Intervals may be appended in any order;
/// seal() sorts each resource's appended tail and freezes the observation
/// window.  Facade over a shared TraceStore — see the header comment.
class Trace {
 public:
  Trace() : store_(std::make_shared<TraceStore>()) {}
  /// Adopts an existing store (facade view of a shared substrate).
  explicit Trace(std::shared_ptr<TraceStore> store)
      : store_(std::move(store)) {}

  /// Value semantics: the copy shares the immutable sealed chunks but owns
  /// its tables and tails — mutations never propagate between copies.
  Trace(const Trace& other)
      : store_(std::make_shared<TraceStore>(*other.store_)) {}
  Trace& operator=(const Trace& other) {
    if (this != &other) {
      store_ = std::make_shared<TraceStore>(*other.store_);
      row_resource_ = kInvalidResource;
    }
    return *this;
  }
  Trace(Trace&&) noexcept = default;
  Trace& operator=(Trace&&) noexcept = default;

  /// Registers a resource by hierarchy path; returns its dense id.
  /// Re-registering an existing path returns the existing id.
  ResourceId add_resource(std::string_view path) {
    return store_->add_resource(path);
  }

  /// Number of registered resources.
  [[nodiscard]] std::size_t resource_count() const noexcept {
    return store_->resource_count();
  }

  [[nodiscard]] const std::string& resource_path(ResourceId r) const {
    return store_->resource_path(r);
  }

  [[nodiscard]] const std::vector<std::string>& resource_paths()
      const noexcept {
    return store_->resource_paths();
  }

  /// Finds a resource id by path (kInvalidResource when absent).
  [[nodiscard]] ResourceId find_resource(std::string_view path) const {
    return store_->find_resource(path);
  }

  /// State-name registry (shared across all resources).
  [[nodiscard]] StateRegistry& states() noexcept { return store_->states(); }
  [[nodiscard]] const StateRegistry& states() const noexcept {
    return store_->states();
  }

  /// Appends a state occurrence.  Throws InvalidArgument on end < begin or
  /// unknown resource/state ids.
  void add_state(ResourceId resource, StateId state, TimeNs begin,
                 TimeNs end) {
    store_->add_state(resource, state, begin, end);
  }

  /// Convenience: intern the state name and append.
  void add_state(ResourceId resource, std::string_view state_name,
                 TimeNs begin, TimeNs end) {
    store_->add_state(resource, store_->states().intern(state_name), begin,
                      end);
  }

  /// Sorts appended intervals per resource into a sealed chunk and
  /// computes the observation window.  Idempotent; readers call it
  /// automatically.  Repeated seals of a streaming ingest cost
  /// O(appended log appended) — sealed chunks are never re-sorted.
  void seal() { store_->seal_chunk(); }

  [[nodiscard]] bool sealed() const noexcept { return store_->sealed(); }

  /// Intervals of one resource (sorted by begin after seal(); intervals
  /// appended since the last seal follow in append order).  Lazily
  /// materializes the merged row from the store's chunks into a single
  /// reusable scratch, so the returned span is valid only until the next
  /// intervals() call on this trace (any resource) or the next mutation
  /// — one row of extra memory, not a second copy of the whole trace.
  /// Being a caching accessor, it is also NOT safe for unsynchronized
  /// concurrent calls on one facade: concurrent readers should each hold
  /// their own Trace copy (cheap: chunks are shared) or read through
  /// TraceViews, which are immutable.
  [[nodiscard]] std::span<const StateInterval> intervals(ResourceId r) const;

  /// Total number of state occurrences.
  [[nodiscard]] std::uint64_t state_count() const noexcept {
    return store_->state_count();
  }

  /// Event count as Table II reports it: one enter + one leave per state.
  [[nodiscard]] std::uint64_t event_count() const noexcept {
    return 2 * state_count();
  }

  /// Observation window [begin, end).  Valid after seal(); an empty trace
  /// reports [0, 0).
  [[nodiscard]] TimeNs begin() const noexcept { return store_->begin(); }
  [[nodiscard]] TimeNs end() const noexcept { return store_->end(); }
  [[nodiscard]] TimeNs span() const noexcept { return store_->span(); }

  /// Overrides the observation window (e.g. to align several traces).
  void set_window(TimeNs begin, TimeNs end) { store_->set_window(begin, end); }

  /// The backing store.  Hand it to TraceViews, sliding-window sessions or
  /// a SessionManager to share this trace's bytes across many readers.
  [[nodiscard]] const std::shared_ptr<TraceStore>& store() const noexcept {
    return store_;
  }

  /// Zero-copy window selection over the sealed store (requires seal()).
  [[nodiscard]] TraceView view() const { return TraceView(store_); }
  [[nodiscard]] TraceView view(TimeNs t0, TimeNs t1) const {
    return TraceView(store_, t0, t1);
  }

 private:
  std::shared_ptr<TraceStore> store_;
  /// Single-slot materialization scratch: the merged row of the resource
  /// last asked for, tagged with the store generation it was built at.
  mutable std::vector<StateInterval> row_;
  mutable ResourceId row_resource_ = kInvalidResource;
  mutable std::uint64_t row_generation_ = 0;
};

}  // namespace stagg
