// Builds the microscopic model from a trace (Table II "microscopic
// description" step).
//
// Each state interval is clipped against the slices it overlaps and its
// overlap durations accumulated into d_x(s,t).  One division-free kernel
// does every fold: a per-build table of the |T|+1 slice edges plus a
// forward-only slice cursor per resource.  The fold consumes a
// TraceView — a zero-copy chunk-cursor selection of a shared TraceStore —
// so any number of concurrent model builds (different windows, slice
// counts, hierarchy scopes) read the same immutable chunks without copying
// the event data.  The build is parallel over resources (each leaf owns a
// disjoint tensor stripe, so no synchronization is needed) and is also
// available in streaming form, fed by stream_binary_trace, for traces
// larger than memory.  The Trace& overloads are compatibility shims that
// seal the facade and fold through a full-window view.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hierarchy/hierarchy.hpp"
#include "model/microscopic_model.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace.hpp"
#include "trace/trace_view.hpp"

namespace stagg {

/// Options of the model build.
struct ModelBuildOptions {
  std::int32_t slice_count = 30;  ///< |T|; the paper uses 30 everywhere.
  /// Match trace resources to hierarchy leaves by path (true) or by index
  /// order (false).  Path matching tolerates permuted traces.
  bool match_by_path = true;
  /// Restrict the model window; {0,0} means "use the trace window".
  TimeNs window_begin = 0;
  TimeNs window_end = 0;
};

/// Builds d_x(s,t) from a trace view: the grid covers the view's window
/// (or the explicit options window — the view must cover it) and every
/// selected interval is folded through the chunk cursors in sorted order.
/// Throws DimensionError when a view resource cannot be mapped onto a
/// hierarchy leaf.
[[nodiscard]] MicroscopicModel build_model(const TraceView& view,
                                           const Hierarchy& hierarchy,
                                           const ModelBuildOptions& options = {});

/// Compatibility shim: seals `trace` and folds a full-window view of its
/// store.  Bit-identical to the view overload.
[[nodiscard]] MicroscopicModel build_model(Trace& trace,
                                           const Hierarchy& hierarchy,
                                           const ModelBuildOptions& options = {});

/// Streaming build straight from a binary trace file: reads the header,
/// maps resources, and folds record chunks into the tensor without ever
/// materializing the trace.  Reports the same result as read + build.
[[nodiscard]] MicroscopicModel build_model_streaming(
    const std::string& trace_path, const Hierarchy& hierarchy,
    const ModelBuildOptions& options = {});

/// Maps view (or file) resources to hierarchy leaves: by path, or by index
/// order when `match_by_path` is false.  Throws DimensionError unless the
/// result is a bijection onto the leaves.
[[nodiscard]] std::vector<LeafId> map_resources(
    const std::vector<std::string>& resource_paths, const Hierarchy& hierarchy,
    bool match_by_path);

/// Re-folds the view into the slice columns t >= first_dirty of an
/// existing model (zeroing them first) — the ingest step of a
/// sliding-window session after the window moved or events were appended.
/// `leaf_of` maps view resources to leaves (map_resources); a session
/// computes it once at attach.  Intervals are clipped half-open against
/// the model window, and contributions to each (leaf, slice, state) cell
/// accumulate in the same per-resource sorted interval order as
/// build_model, so the refolded columns are bit-identical to the
/// corresponding columns of a fresh build over the same window.  Throws
/// DimensionError when the view's resource count differs from the map's.
void refold_suffix(MicroscopicModel& model, const TraceView& view,
                   std::span<const LeafId> leaf_of, SliceId first_dirty);

}  // namespace stagg
