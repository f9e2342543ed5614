// Ablation: the preprocess substrate of Table II — microscopic-model
// construction and cube build — timed end to end on the shared thread pool
// (the model build is parallel over resources).
//
// BM_ModelBuildStore times the path an offline analysis takes (TraceStore
// -> TraceView -> build_model) and reports the fold rate.  Before its first
// timed run it checks that build gives the tensor bit for bit as
// build_model_streaming over the same trace written to an STGT file, and
// aborts on a mismatch.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/thread_pool.hpp"
#include "core/cube.hpp"
#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "workload/scenarios.hpp"

namespace stagg {
namespace {

/// One shared scaled case-A trace for all registrations.
GeneratedScenario& shared_scenario() {
  static GeneratedScenario g = generate_scenario(scenario_a(), 1.0 / 64.0);
  return g;
}

void BM_ModelBuild(benchmark::State& state) {
  auto& g = shared_scenario();
  for (auto _ : state) {
    const MicroscopicModel model =
        build_model(g.trace, *g.hierarchy, {.slice_count = 30});
    benchmark::DoNotOptimize(model.total_mass());
  }
  state.counters["events"] =
      static_cast<double>(g.trace.event_count());
}
BENCHMARK(BM_ModelBuild);

/// One-time equivalence gate: the store fold and the streaming fold of the
/// same trace must agree bit for bit.
void check_store_matches_streaming(GeneratedScenario& g,
                                   const MicroscopicModel& from_store) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      "stagg_bench_parallel_build.stgt";
  write_binary_trace(g.trace, path.string());
  const MicroscopicModel streamed =
      build_model_streaming(path.string(), *g.hierarchy, {.slice_count = 30});
  std::filesystem::remove(path);
  const auto a = from_store.raw();
  const auto b = streamed.raw();
  if (a.size() != b.size() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "bench_parallel_build: build_model over a TraceView and "
                 "build_model_streaming disagree\n");
    std::abort();
  }
}

/// Scaled case-C (NAS-LU, 700 processes) trace: the leaf count and state
/// mix of an lu_overview analysis at 1/256 of its events.
GeneratedScenario& lu_scenario() {
  static GeneratedScenario g = generate_scenario(scenario_c(), 1.0 / 256.0);
  return g;
}

void BM_ModelBuildStore(benchmark::State& state) {
  auto& g = lu_scenario();
  g.trace.seal();
  const TraceView view(g.trace.store());
  [[maybe_unused]] static const bool checked = [&] {
    check_store_matches_streaming(
        g, build_model(view, *g.hierarchy, {.slice_count = 30}));
    return true;
  }();
  for (auto _ : state) {
    const MicroscopicModel model =
        build_model(view, *g.hierarchy, {.slice_count = 30});
    benchmark::DoNotOptimize(model.raw().data());
  }
  state.counters["fold_mevents_per_s"] = benchmark::Counter(
      static_cast<double>(view.selected_count()) / 1e6,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ModelBuildStore)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ModelBuildSliceCount(benchmark::State& state) {
  auto& g = shared_scenario();
  const auto slices = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    const MicroscopicModel model =
        build_model(g.trace, *g.hierarchy, {.slice_count = slices});
    benchmark::DoNotOptimize(model.total_mass());
  }
}
BENCHMARK(BM_ModelBuildSliceCount)->Arg(30)->Arg(120)->Arg(480);

void BM_CubeBuildCaseA(benchmark::State& state) {
  auto& g = shared_scenario();
  const MicroscopicModel model =
      build_model(g.trace, *g.hierarchy, {.slice_count = 30});
  for (auto _ : state) {
    DataCube cube(model);
    benchmark::DoNotOptimize(cube.memory_bytes());
  }
}
BENCHMARK(BM_CubeBuildCaseA);

void BM_ParallelForOverhead(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    parallel_for(n, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(64)->Arg(4096)->Arg(65536);

void BM_TraceSeal(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    GeneratedScenario g = generate_scenario(scenario_a(), 1.0 / 256.0);
    state.ResumeTiming();
    g.trace.seal();
    benchmark::DoNotOptimize(g.trace.state_count());
  }
}
BENCHMARK(BM_TraceSeal);

}  // namespace
}  // namespace stagg
