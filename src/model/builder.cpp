#include "model/builder.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace stagg {

std::vector<LeafId> map_resources(const std::vector<std::string>& paths,
                                  const Hierarchy& hierarchy,
                                  bool match_by_path) {
  if (paths.size() != hierarchy.leaf_count()) {
    throw DimensionError("trace has " + std::to_string(paths.size()) +
                         " resources but hierarchy has " +
                         std::to_string(hierarchy.leaf_count()) + " leaves");
  }
  std::vector<LeafId> map(paths.size());
  if (!match_by_path) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      map[i] = static_cast<LeafId>(i);
    }
    return map;
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const NodeId node = hierarchy.find(paths[i]);
    if (node == kNoNode || !hierarchy.is_leaf(node)) {
      throw DimensionError("trace resource '" + paths[i] +
                           "' is not a hierarchy leaf");
    }
    map[i] = hierarchy.node(node).first_leaf;
  }
  // The mapping must be a bijection.
  std::vector<LeafId> sorted = map;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != static_cast<LeafId>(i)) {
      throw DimensionError("trace resources do not cover hierarchy leaves");
    }
  }
  return map;
}

namespace detail {
namespace {

/// Slice-edge table of a grid: edges[t] = slice_begin(t) for t < |T| and
/// edges[|T|] = end(), so slice t covers [edges[t], edges[t+1]).  Computed
/// once per fold; the kernel below then needs no division.
std::vector<TimeNs> slice_edges(const TimeGrid& grid) {
  std::vector<TimeNs> edges(static_cast<std::size_t>(grid.slice_count()) + 1);
  for (SliceId t = 0; t < grid.slice_count(); ++t) {
    edges[static_cast<std::size_t>(t)] = grid.slice_begin(t);
  }
  edges.back() = grid.end();
  return edges;
}

/// The fold kernel of one resource: distributes each interval's [begin,
/// end) over the slices t >= first it overlaps, adding the overlap seconds
/// to the leaf's tensor stripe.  Half-open throughout: an interval ending
/// exactly on an edge contributes nothing past it, one starting exactly on
/// it nothing before, and a zero-length interval nothing at all.
///
/// The slice cursor only moves forward while interval begins do (the
/// sorted order TraceView::for_each yields) and restarts when one begins
/// before it (record order of a streamed file).  Overlaps are the integer
/// differences TimeGrid::overlap_s takes, so every cell receives the same
/// doubles in the same order as a per-slice overlap_s sweep.
class SliceFold {
 public:
  SliceFold(MicroscopicModel& model, std::span<const TimeNs> edges,
            LeafId leaf, SliceId first = 0) noexcept
      : edges_(edges.data()),
        stripe_(model.raw_mutable().data() +
                static_cast<std::size_t>(leaf) *
                    static_cast<std::size_t>(model.slice_count()) *
                    static_cast<std::size_t>(model.state_count())),
        states_(static_cast<std::size_t>(model.state_count())),
        slices_(model.slice_count()),
        first_(first),
        cursor_(first) {}

  void operator()(const StateInterval& s) noexcept {
    const TimeNs lo = std::max(s.begin, edges_[0]);
    const TimeNs hi = std::min(s.end, edges_[slices_]);
    if (hi <= lo) return;
    if (lo < edges_[cursor_]) cursor_ = first_;
    while (edges_[cursor_ + 1] <= lo) ++cursor_;
    for (SliceId t = cursor_; edges_[t] < hi; ++t) {
      const TimeNs overlap =
          std::min(hi, edges_[t + 1]) - std::max(lo, edges_[t]);
      if (overlap > 0) {
        stripe_[static_cast<std::size_t>(t) * states_ +
                static_cast<std::size_t>(s.state)] += to_seconds(overlap);
      }
    }
  }

 private:
  const TimeNs* edges_;
  double* stripe_;
  std::size_t states_;
  SliceId slices_;
  SliceId first_;
  SliceId cursor_;
};

/// Folds every view resource r into leaf leaf_of[r]'s stripe, slices
/// t >= first only.  Parallel over view resources: leaf stripes are
/// disjoint by bijection.
void fold_view(MicroscopicModel& model, const TraceView& view,
               std::span<const LeafId> leaf_of, SliceId first) {
  const std::vector<TimeNs> edges = slice_edges(model.grid());
  parallel_for(
      view.resource_count(),
      [&](std::size_t r) {
        SliceFold fold(model, edges, leaf_of[r], first);
        view.for_each(r, fold);
      },
      /*grain=*/1);
}

TimeGrid make_grid(TimeNs trace_begin, TimeNs trace_end,
                   const ModelBuildOptions& options) {
  TimeNs begin = options.window_begin;
  TimeNs end = options.window_end;
  if (begin == 0 && end == 0) {
    begin = trace_begin;
    end = trace_end;
  }
  if (end <= begin) {
    throw InvalidArgument("model window is empty; trace has no events?");
  }
  return TimeGrid(begin, end, options.slice_count);
}

/// Effective model window of a Trace compatibility shim (explicit options
/// window, else the sealed trace window).
std::pair<TimeNs, TimeNs> effective_window(const Trace& trace,
                                           const ModelBuildOptions& options) {
  if (options.window_begin == 0 && options.window_end == 0) {
    return {trace.begin(), trace.end()};
  }
  return {options.window_begin, options.window_end};
}

}  // namespace
}  // namespace detail

MicroscopicModel build_model(const TraceView& view, const Hierarchy& hierarchy,
                             const ModelBuildOptions& options) {
  const auto map =
      map_resources(view.resource_paths(), hierarchy, options.match_by_path);
  const TimeGrid grid = detail::make_grid(view.begin(), view.end(), options);
  MicroscopicModel model(&hierarchy, grid, view.states());
  detail::fold_view(model, view, map, 0);
  return model;
}

MicroscopicModel build_model(Trace& trace, const Hierarchy& hierarchy,
                             const ModelBuildOptions& options) {
  trace.seal();
  // A degenerate window still builds the (empty) view first so the error
  // order of the original code is preserved: resource-mapping problems
  // throw DimensionError before make_grid rejects the window.
  const auto [begin, end] = detail::effective_window(trace, options);
  return build_model(trace.view(begin, std::max(begin, end)), hierarchy,
                     options);
}

void refold_suffix(MicroscopicModel& model, const TraceView& view,
                   std::span<const LeafId> leaf_of, SliceId first_dirty) {
  if (view.resource_count() != leaf_of.size()) {
    throw DimensionError("trace view has " +
                         std::to_string(view.resource_count()) +
                         " resources but the leaf map has " +
                         std::to_string(leaf_of.size()));
  }
  first_dirty = std::clamp<SliceId>(first_dirty, 0, model.slice_count());
  if (first_dirty >= model.slice_count()) return;  // nothing dirty: no-op
  model.zero_slices(first_dirty);
  detail::fold_view(model, view, leaf_of, first_dirty);
}

MicroscopicModel build_model_streaming(const std::string& trace_path,
                                       const Hierarchy& hierarchy,
                                       const ModelBuildOptions& options) {
  const TraceFileInfo info = read_binary_trace_info(trace_path);
  const auto map =
      map_resources(info.resource_paths, hierarchy, options.match_by_path);
  const TimeGrid grid =
      detail::make_grid(info.window_begin, info.window_end, options);
  MicroscopicModel model(&hierarchy, grid, info.states);

  // One kernel (and slice cursor) per resource: records arrive in file
  // order, interleaved across resources.
  const std::vector<TimeNs> edges = detail::slice_edges(grid);
  std::vector<detail::SliceFold> folds;
  folds.reserve(map.size());
  for (const LeafId leaf : map) folds.emplace_back(model, edges, leaf);
  stream_binary_trace(trace_path, [&](std::span<const TraceRecord> chunk) {
    for (const auto& rec : chunk) {
      folds[static_cast<std::size_t>(rec.resource)](rec.interval);
    }
  });
  return model;
}

}  // namespace stagg
