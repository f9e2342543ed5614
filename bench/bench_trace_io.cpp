// Ablation: trace I/O throughput — the substrate behind Table II's "trace
// reading" row (the paper's dominant cost: 44 s - 2911 s).
//
// Measures binary write, binary read (the Trace facade and the sealed
// store behind it), binary streaming (the larger-than-memory path) and CSV
// read on scaled case A, reporting events/second so the full-size cost can
// be extrapolated.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "trace/csv_io.hpp"
#include "workload/scenarios.hpp"

namespace stagg {
namespace {

namespace fs = std::filesystem;

struct Fixture {
  GeneratedScenario scenario;
  std::string bin_path;
  std::string csv_path;

  Fixture() : scenario(generate_scenario(scenario_a(), 1.0 / 64.0)) {
    const auto dir = fs::temp_directory_path() / "stagg_bench_io";
    fs::create_directories(dir);
    bin_path = (dir / "a.stgt").string();
    csv_path = (dir / "a.csv").string();
    write_binary_trace(scenario.trace, bin_path);
    write_csv_trace(scenario.trace, csv_path);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_BinaryWrite(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(write_binary_trace(f.scenario.trace, f.bin_path));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_BinaryWrite);

void BM_BinaryRead(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    Trace t = read_binary_trace(f.bin_path);
    benchmark::DoNotOptimize(t.state_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_BinaryRead);

// The path the engine uses: the columnar parallel load into a sealed store.
void BM_BinaryReadStore(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    const auto store = read_binary_trace_store(f.bin_path);
    benchmark::DoNotOptimize(store->state_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_BinaryReadStore);

void BM_BinaryStream(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    std::uint64_t n = 0;
    stream_binary_trace(f.bin_path,
                        [&](std::span<const TraceRecord> chunk) {
                          n += chunk.size();
                        });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_BinaryStream);

void BM_StreamingModelBuild(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    const MicroscopicModel m = build_model_streaming(
        f.bin_path, *f.scenario.hierarchy, {.slice_count = 30});
    benchmark::DoNotOptimize(m.total_mass());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_StreamingModelBuild);

void BM_CsvRead(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    Trace t = read_csv_trace(f.csv_path);
    benchmark::DoNotOptimize(t.state_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              f.scenario.trace.event_count()));
}
BENCHMARK(BM_CsvRead);

}  // namespace
}  // namespace stagg
