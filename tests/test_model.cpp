#include "model/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace_store.hpp"

namespace stagg {
namespace {

namespace fs = std::filesystem;

Hierarchy two_machine_hierarchy() {
  HierarchyBuilder b("site");
  const NodeId m0 = b.add(0, "m0");
  const NodeId m1 = b.add(0, "m1");
  b.add(m0, "c0");
  b.add(m0, "c1");
  b.add(m1, "c0");
  b.add(m1, "c1");
  return b.finish();
}

Trace matching_trace(const Hierarchy& h) {
  Trace t;
  for (std::size_t s = 0; s < h.leaf_count(); ++s) {
    t.add_resource(h.path(h.leaf_node(static_cast<LeafId>(s))));
  }
  return t;
}

TEST(ModelBuilder, SingleStateFillsSlices) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  // Resource 0 in "busy" for the full 10 s window.
  t.add_state(0, "busy", 0, seconds(10.0));
  t.set_window(0, seconds(10.0));
  const MicroscopicModel m = build_model(t, h, {.slice_count = 10});
  for (SliceId tt = 0; tt < 10; ++tt) {
    EXPECT_NEAR(m.duration(0, tt, 0), 1.0, 1e-9);
    EXPECT_NEAR(m.proportion(0, tt, 0), 1.0, 1e-9);
    EXPECT_NEAR(m.duration(1, tt, 0), 0.0, 1e-12);
  }
  m.validate();
}

TEST(ModelBuilder, IntervalSplitAcrossSliceBoundary) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  // [1.5 s, 3.25 s) over 10 slices of 1 s.
  t.add_state(2, "busy", seconds(1.5), seconds(3.25));
  t.set_window(0, seconds(10.0));
  const MicroscopicModel m = build_model(t, h, {.slice_count = 10});
  EXPECT_NEAR(m.duration(2, 1, 0), 0.5, 1e-9);
  EXPECT_NEAR(m.duration(2, 2, 0), 1.0, 1e-9);
  EXPECT_NEAR(m.duration(2, 3, 0), 0.25, 1e-9);
  EXPECT_NEAR(m.duration(2, 0, 0), 0.0, 1e-12);
  EXPECT_NEAR(m.duration(2, 4, 0), 0.0, 1e-12);
}

TEST(ModelBuilder, MassConservationUnderClipping) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  // Overlaps the window at both ends: only [0, 10] s should be counted.
  t.add_state(1, "busy", seconds(-2.0), seconds(4.0));
  t.add_state(1, "busy", seconds(6.5), seconds(12.0));
  t.set_window(0, seconds(10.0));
  const MicroscopicModel m = build_model(t, h, {.slice_count = 30});
  EXPECT_NEAR(m.total_mass(), 4.0 + 3.5, 1e-9);
}

TEST(ModelBuilder, MatchByPathHandlesPermutedResources) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t;
  // Register resources in reverse order.
  for (std::size_t s = h.leaf_count(); s-- > 0;) {
    t.add_resource(h.path(h.leaf_node(static_cast<LeafId>(s))));
  }
  t.add_state(0, "busy", 0, seconds(1.0));  // trace resource 0 = last leaf
  t.set_window(0, seconds(1.0));
  const MicroscopicModel m = build_model(t, h, {.slice_count = 1});
  const LeafId last = static_cast<LeafId>(h.leaf_count() - 1);
  EXPECT_NEAR(m.duration(last, 0, 0), 1.0, 1e-9);
  EXPECT_NEAR(m.duration(0, 0, 0), 0.0, 1e-12);
}

TEST(ModelBuilder, MatchByIndexIgnoresPaths) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t;
  t.add_resource("whatever0");
  t.add_resource("whatever1");
  t.add_resource("whatever2");
  t.add_resource("whatever3");
  t.add_state(3, "busy", 0, seconds(1.0));
  t.set_window(0, seconds(1.0));
  const MicroscopicModel m =
      build_model(t, h, {.slice_count = 2, .match_by_path = false});
  EXPECT_NEAR(m.duration(3, 0, 0), 0.5, 1e-9);
}

TEST(ModelBuilder, ResourceCountMismatchThrows) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t;
  t.add_resource("just/one");
  t.add_state(0, "busy", 0, 10);
  EXPECT_THROW((void)build_model(t, h, {}), DimensionError);
}

TEST(ModelBuilder, UnknownPathThrows) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t;
  t.add_resource("site/m0/c0");
  t.add_resource("site/m0/c1");
  t.add_resource("site/m1/c0");
  t.add_resource("site/WRONG/c1");
  t.add_state(0, "busy", 0, 10);
  EXPECT_THROW((void)build_model(t, h, {}), DimensionError);
}

TEST(ModelBuilder, DuplicateLeafMappingThrows) {
  const Hierarchy h = two_machine_hierarchy();
  // Four resources but two map to the same leaf via distinct registration
  // is impossible through add_resource (paths are unique); check the
  // non-bijection detection through map_resources directly.
  const std::vector<std::string> paths = {"site/m0/c0", "site/m0/c0",
                                          "site/m1/c0", "site/m1/c1"};
  EXPECT_THROW((void)map_resources(paths, h, true), DimensionError);
}

TEST(ModelBuilder, ExplicitWindowRestrictsModel) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  t.add_state(0, "busy", 0, seconds(10.0));
  ModelBuildOptions opt;
  opt.slice_count = 5;
  opt.window_begin = seconds(2.0);
  opt.window_end = seconds(4.0);
  const MicroscopicModel m = build_model(t, h, opt);
  EXPECT_EQ(m.grid().begin(), seconds(2.0));
  EXPECT_NEAR(m.total_mass(), 2.0, 1e-9);
}

TEST(ModelBuilder, EmptyTraceThrows) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  EXPECT_THROW((void)build_model(t, h, {}), InvalidArgument);
}

TEST(ModelBuilder, StreamingEqualsInMemory) {
  const Hierarchy h = two_machine_hierarchy();
  Trace t = matching_trace(h);
  for (int k = 0; k < 50; ++k) {
    t.add_state(k % 4, k % 2 ? "send" : "wait", seconds(0.13 * k),
                seconds(0.13 * k + 0.2));
  }
  t.set_window(0, seconds(8.0));

  const auto dir = fs::temp_directory_path() / "stagg_model_test";
  fs::create_directories(dir);
  const std::string path = (dir / "t.stgt").string();
  write_binary_trace(t, path);

  const MicroscopicModel a = build_model(t, h, {.slice_count = 16});
  const MicroscopicModel b = build_model_streaming(path, h, {.slice_count = 16});
  ASSERT_EQ(a.raw().size(), b.raw().size());
  for (std::size_t i = 0; i < a.raw().size(); ++i) {
    EXPECT_NEAR(a.raw()[i], b.raw()[i], 1e-12) << "tensor index " << i;
  }
  fs::remove_all(dir);
}

// --- Fold-kernel property suite ---------------------------------------------
//
// Every fold (build_model, refold_suffix, build_model_streaming) must
// produce the tensor bit for bit as an independent per-slice oracle: each
// interval, in delivery order, adds TimeGrid::overlap_s to every slice of
// the grid it overlaps.

/// One interval delivered to the fold of view/file resource `resource`.
struct Delivered {
  std::size_t resource = 0;
  StateInterval interval;
};

/// Oracle tensor (leaf-major, like MicroscopicModel::raw) of the given
/// delivery sequence, restricted to slices t >= first.
std::vector<double> oracle_tensor(const Hierarchy& h, const TimeGrid& grid,
                                  std::size_t n_states,
                                  const std::vector<Delivered>& delivered,
                                  SliceId first = 0) {
  const auto n_t = static_cast<std::size_t>(grid.slice_count());
  std::vector<double> out(h.leaf_count() * n_t * n_states, 0.0);
  for (const Delivered& d : delivered) {
    for (SliceId t = first; t < grid.slice_count(); ++t) {
      const double overlap =
          grid.overlap_s(d.interval.begin, d.interval.end, t);
      if (overlap > 0.0) {
        out[(d.resource * n_t + static_cast<std::size_t>(t)) * n_states +
            static_cast<std::size_t>(d.interval.state)] += overlap;
      }
    }
  }
  return out;
}

/// Bit-level equality of two tensors (memcmp, so -0.0 != +0.0 and every
/// ulp counts).
void expect_bit_identical(std::span<const double> got,
                          const std::vector<double>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), want.size() * sizeof(double)) ==
      0) {
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      ADD_FAILURE() << what << ": first difference at tensor index " << i
                    << ": " << got[i] << " vs oracle " << want[i];
      return;
    }
  }
}

/// Grids the suite sweeps: non-uniform slices (span % count != 0), span <
/// count (empty slices), uniform, and a large prime span.
struct GridCase {
  TimeNs begin;
  TimeNs span;
  std::int32_t count;
};
constexpr GridCase kGridCases[] = {
    {100, 10, 3}, {100, 5, 8}, {0, 3000, 30}, {1000, 1000003, 7}};

/// Random interval biased toward the fold's edge cases: begins or ends
/// exactly on a slice edge (including the window bounds), zero lengths,
/// and intervals wholly before or after the window.
StateInterval random_interval(Rng& rng, const TimeGrid& g, StateId states) {
  const TimeNs span = g.end() - g.begin();
  const TimeNs pad = span / 3 + 2;
  const auto edge = [&] {
    return g.slice_begin(
        static_cast<SliceId>(rng.uniform_int(0, g.slice_count())));
  };
  StateInterval s;
  s.state = static_cast<StateId>(rng.uniform_int(0, states - 1));
  s.begin = rng.chance(0.3) ? edge()
                            : rng.uniform_int(g.begin() - pad, g.end() + pad);
  switch (rng.uniform_int(0, 3)) {
    case 0: s.end = s.begin; break;
    case 1: s.end = std::max(s.begin, edge()); break;
    default: s.end = s.begin + rng.uniform_int(1, span); break;
  }
  return s;
}

/// Random per-resource intervals (view resource r = leaf r).
std::vector<std::vector<StateInterval>> random_intervals(
    Rng& rng, const TimeGrid& g, std::size_t resources, int per_resource,
    StateId states) {
  std::vector<std::vector<StateInterval>> out(resources);
  for (auto& row : out) {
    for (int k = 0; k < per_resource; ++k) {
      row.push_back(random_interval(rng, g, states));
    }
  }
  return out;
}

/// The sorted (begin, end, state) per-resource order TraceView delivers.
std::vector<Delivered> sorted_delivery(
    std::vector<std::vector<StateInterval>> rows) {
  std::vector<Delivered> out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::sort(rows[r].begin(), rows[r].end(), interval_key_less);
    for (const StateInterval& s : rows[r]) out.push_back({r, s});
  }
  return out;
}

/// A store holding `rows` (resource r registered at leaf r's path), sealed
/// in `batches` interleaved seals so resources get several overlapping
/// runs (the view's k-way merge path).
std::shared_ptr<TraceStore> make_store(
    const Hierarchy& h, const std::vector<std::vector<StateInterval>>& rows,
    StateId states, int batches) {
  auto store = std::make_shared<TraceStore>();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    store->add_resource(h.path(h.leaf_node(static_cast<LeafId>(r))));
  }
  for (StateId x = 0; x < states; ++x) {
    store->states().intern("s" + std::to_string(x));
  }
  for (int b = 0; b < batches; ++b) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t k = static_cast<std::size_t>(b); k < rows[r].size();
           k += static_cast<std::size_t>(batches)) {
        const StateInterval& s = rows[r][k];
        store->add_state(static_cast<ResourceId>(r), s.state, s.begin, s.end);
      }
    }
    store->seal_chunk();
  }
  return store;
}

TEST(FoldKernel, BuildModelMatchesPerSliceOracle) {
  const Hierarchy h = two_machine_hierarchy();
  constexpr StateId kStates = 3;
  for (const GridCase& gc : kGridCases) {
    const TimeGrid grid(gc.begin, gc.begin + gc.span, gc.count);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      const auto rows =
          random_intervals(rng, grid, h.leaf_count(), 40, kStates);
      const auto store =
          make_store(h, rows, kStates, static_cast<int>(seed % 3) + 1);
      const TraceView view(store, grid.begin(), grid.end());
      const MicroscopicModel m =
          build_model(view, h, {.slice_count = gc.count});
      ASSERT_EQ(m.grid(), grid);
      expect_bit_identical(
          m.raw(), oracle_tensor(h, grid, kStates, sorted_delivery(rows)),
          "span " + std::to_string(gc.span) + " count " +
              std::to_string(gc.count) + " seed " + std::to_string(seed));
    }
  }
}

TEST(FoldKernel, RawAndCompressedChunksFoldIdentically) {
  const Hierarchy h = two_machine_hierarchy();
  constexpr StateId kStates = 2;
  const TimeGrid grid(0, 3000, 30);
  // Regular back-to-back intervals compress; a few random edge cases ride
  // along.
  std::vector<std::vector<StateInterval>> rows(h.leaf_count());
  Rng rng(7);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (TimeNs k = 0; k < 450; ++k) {
      const TimeNs b = 7 * k - 40;
      rows[r].push_back({b, b + 7, static_cast<StateId>(k % 2)});
    }
    for (int k = 0; k < 20; ++k) {
      rows[r].push_back(random_interval(rng, grid, kStates));
    }
  }
  const auto want = oracle_tensor(h, grid, kStates, sorted_delivery(rows));
  const ModelBuildOptions opt{.slice_count = 30};
  for (const int batches : {1, 3}) {
    const auto store = make_store(h, rows, kStates, batches);
    const TraceView raw(store, grid.begin(), grid.end());
    ASSERT_EQ(raw.compressed_run_count(), 0u);
    expect_bit_identical(build_model(raw, h, opt).raw(), want, "raw");
    store->set_compression(ChunkCompression::kAuto);
    const TraceView compressed(store, grid.begin(), grid.end());
    ASSERT_GT(compressed.compressed_run_count(), 0u);
    expect_bit_identical(build_model(compressed, h, opt).raw(), want,
                         "compressed, " + std::to_string(batches) +
                             " seal batches");
  }
}

TEST(FoldKernel, RefoldSuffixMatchesOracleFromMidWindow) {
  const Hierarchy h = two_machine_hierarchy();
  constexpr StateId kStates = 3;
  for (const GridCase& gc : kGridCases) {
    const TimeGrid grid(gc.begin, gc.begin + gc.span, gc.count);
    Rng rng(static_cast<std::uint64_t>(gc.count));
    const auto stale_rows =
        random_intervals(rng, grid, h.leaf_count(), 30, kStates);
    const auto fresh_rows =
        random_intervals(rng, grid, h.leaf_count(), 30, kStates);
    const ModelBuildOptions opt{.slice_count = gc.count};
    const TraceView stale(make_store(h, stale_rows, kStates, 1),
                          grid.begin(), grid.end());
    const TraceView fresh(make_store(h, fresh_rows, kStates, 2),
                          grid.begin(), grid.end());
    const auto map = map_resources(fresh.resource_paths(), h, true);
    for (SliceId first = 0; first <= gc.count; ++first) {
      // Columns before `first` keep the stale fold; the suffix is the fresh
      // trace's.
      MicroscopicModel m = build_model(stale, h, opt);
      refold_suffix(m, fresh, map, first);
      std::vector<double> want =
          oracle_tensor(h, grid, kStates, sorted_delivery(stale_rows));
      const auto suffix = oracle_tensor(h, grid, kStates,
                                        sorted_delivery(fresh_rows), first);
      const auto n_x = static_cast<std::size_t>(kStates);
      const std::size_t col_from = static_cast<std::size_t>(first) * n_x;
      const std::size_t stripe = static_cast<std::size_t>(gc.count) * n_x;
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (i % stripe >= col_from) want[i] = suffix[i];
      }
      expect_bit_identical(m.raw(), want,
                           "span " + std::to_string(gc.span) + " count " +
                               std::to_string(gc.count) + " first_dirty " +
                               std::to_string(first));
    }
  }
}

TEST(FoldKernel, RefoldSuffixRejectsStaleLeafMap) {
  const Hierarchy h = two_machine_hierarchy();
  const TimeGrid grid(0, 100, 4);
  Rng rng(3);
  const auto rows = random_intervals(rng, grid, h.leaf_count(), 5, 1);
  const TraceView view(make_store(h, rows, 1, 1), 0, 100);
  MicroscopicModel m = build_model(view, h, {.slice_count = 4});
  auto map = map_resources(view.resource_paths(), h, true);
  map.pop_back();
  EXPECT_THROW(refold_suffix(m, view, map, 1), DimensionError);
}

TEST(FoldKernel, StreamingOutOfOrderRecordsMatchFileOrderOracle) {
  const Hierarchy h = two_machine_hierarchy();
  constexpr StateId kStates = 3;
  const auto dir = fs::temp_directory_path() / "stagg_fold_kernel_test";
  fs::create_directories(dir);
  const std::string path = (dir / "shuffled.stgt").string();
  for (const GridCase& gc : kGridCases) {
    const TimeGrid grid(gc.begin, gc.begin + gc.span, gc.count);
    Rng rng(static_cast<std::uint64_t>(gc.span));
    Trace t = matching_trace(h);
    for (StateId x = 0; x < kStates; ++x) {
      t.states().intern("s" + std::to_string(x));
    }
    for (std::size_t r = 0; r < h.leaf_count(); ++r) {
      for (int k = 0; k < 40; ++k) {
        const StateInterval s = random_interval(rng, grid, kStates);
        t.add_state(static_cast<ResourceId>(r), s.state, s.begin, s.end);
      }
    }
    t.set_window(grid.begin(), grid.end());
    write_binary_trace(t, path);

    // Shuffle the fixed-size record section in place: each resource's
    // records now arrive out of begin order, interleaved with the others.
    std::vector<char> bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    constexpr std::size_t kRecord = 24;
    const std::size_t n = t.state_count();
    const std::size_t base = bytes.size() - n * kRecord;
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(
                                           base + (i - 1) * kRecord),
                       bytes.begin() + static_cast<std::ptrdiff_t>(
                                           base + i * kRecord),
                       bytes.begin() + static_cast<std::ptrdiff_t>(
                                           base + j * kRecord));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::vector<Delivered> file_order;
    for (std::size_t i = 0; i < n; ++i) {
      const char* rec = bytes.data() + base + i * kRecord;
      std::uint32_t r = 0;
      std::uint32_t x = 0;
      Delivered d;
      std::memcpy(&r, rec, 4);
      std::memcpy(&x, rec + 4, 4);
      std::memcpy(&d.interval.begin, rec + 8, 8);
      std::memcpy(&d.interval.end, rec + 16, 8);
      d.resource = r;
      d.interval.state = static_cast<StateId>(x);
      file_order.push_back(d);
    }
    const MicroscopicModel m =
        build_model_streaming(path, h, {.slice_count = gc.count});
    expect_bit_identical(m.raw(),
                         oracle_tensor(h, grid, kStates, file_order),
                         "streamed, span " + std::to_string(gc.span) +
                             " count " + std::to_string(gc.count));
  }
  fs::remove_all(dir);
}

TEST(MicroscopicModelTest, ValidateRejectsOverlappingStates) {
  const Hierarchy h = two_machine_hierarchy();
  StateRegistry states;
  states.intern("a");
  MicroscopicModel m(&h, TimeGrid(0, seconds(2.0), 2), states);
  m.set_duration(0, 0, 0, 5.0);  // 5 s of state inside a 1 s slice
  EXPECT_THROW(m.validate(), DimensionError);
}

TEST(MicroscopicModelTest, ValidateRejectsNegativeDurations) {
  const Hierarchy h = two_machine_hierarchy();
  StateRegistry states;
  states.intern("a");
  MicroscopicModel m(&h, TimeGrid(0, seconds(2.0), 2), states);
  m.set_duration(0, 0, 0, -0.1);
  EXPECT_THROW(m.validate(), DimensionError);
}

TEST(MicroscopicModelTest, RequiresStates) {
  const Hierarchy h = two_machine_hierarchy();
  StateRegistry empty;
  EXPECT_THROW(MicroscopicModel(&h, TimeGrid(0, 10, 2), empty),
               InvalidArgument);
}

}  // namespace
}  // namespace stagg
