// Bench: measure cache + lane-batched, screened DP kernel on multi-p runs.
//
// The intended workflow (Ocelotl-style exploration, find_significant_levels)
// evaluates *many* trade-off parameters over the same trace.  The original
// kernel recomputed every cell's O(|X|) log2-heavy measures on each run(p);
// the cached kernel pays that measure pass once — O(|S|·|T|²·|X|) — after
// which each probe is a pure multiply-add DP; the lane-batched run_many
// additionally pushes waves of up to 8 probes through a *single* DP sweep,
// paying the pass over the measure cache and the DP matrices once per wave
// instead of once per probe.  This bench measures:
//   - a single run(p) with each kernel (cold cache vs per-cell recompute);
//   - a 32-probe p-sweep three ways: repeated seed-style run(p) on the
//     reference kernel, a cached-kernel run(p) loop at max_lanes = 1 (one
//     DP sweep per probe, per-probe trajectory), and one lane-batched
//     run_many call (the headline comparison);
//   - the cache-build vs per-p kernel split of the batched sweep and the
//     additional lane speedup over the one-lane run(p) loop;
// and asserts all strategies produce bit-identical pIC and identical
// partitions on every probe.  With --json (or in --smoke CI mode) it emits
// a BENCH_multi_p.json trajectory file: one record per probe with the
// cumulative wall time of both per-probe strategies.
#include <algorithm>
#include <cfloat>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_info.hpp"
#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "core/aggregator.hpp"
#include "workload/fixtures.hpp"

namespace stagg {
namespace {

struct SweepTiming {
  std::vector<double> cumulative_s;  ///< after each probe
  double total_s = 0.0;
};

SweepTiming sweep(SpatiotemporalAggregator& agg, std::span<const double> ps,
                  std::vector<AggregationResult>& out) {
  SweepTiming t;
  t.cumulative_s.reserve(ps.size());
  Stopwatch watch;
  out.reserve(ps.size());
  for (const double p : ps) {
    out.push_back(agg.run(p));
    t.cumulative_s.push_back(watch.seconds());
  }
  t.total_s = watch.seconds();
  return t;
}

int run(int argc, const char* const* argv) {
  Cli cli("bench_multi_p",
          "single-run and 32-probe p-sweep throughput: cached lane "
          "kernel vs seed-style per-cell recomputation");
  cli.option("levels", "3", "hierarchy depth of the random model");
  cli.option("fanout", "4", "children per node");
  cli.option("slices", "48", "number of time slices |T|");
  cli.option("states", "6", "number of states |X|");
  cli.option("probes", "32", "number of p values in the sweep");
  cli.option("lanes", "4", "lane width of the batched sweep (1-8)");
  cli.option("reps", "3", "repetitions per strategy; fastest is reported");
  cli.option("json", "", "write a JSON trajectory file to this path");
  cli.flag("smoke", "small model + BENCH_multi_p.json (CI mode)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_flag("smoke");
  RandomModelOptions shape{
      .levels = static_cast<std::int32_t>(cli.get_int("levels")),
      .fanout = static_cast<std::int32_t>(cli.get_int("fanout")),
      .slices = static_cast<std::int32_t>(cli.get_int("slices")),
      .states = static_cast<std::int32_t>(cli.get_int("states")),
      .block_slices = 3,
      .block_leaves = 2,
      .seed = 42,
  };
  if (smoke) {
    shape.levels = 2;
    shape.fanout = 3;
    shape.slices = 24;
    shape.states = 4;
  }
  std::string json_path = cli.get("json");
  if (smoke && json_path.empty()) json_path = "BENCH_multi_p.json";

  const std::int64_t probes_arg = cli.get_int("probes");
  if (probes_arg < 2) {
    std::fprintf(stderr, "error: --probes must be >= 2, got %lld\n",
                 static_cast<long long>(probes_arg));
    return 1;
  }
  const auto n_probes = static_cast<std::size_t>(probes_arg);
  std::vector<double> ps;
  ps.reserve(n_probes);
  for (std::size_t k = 0; k < n_probes; ++k) {
    ps.push_back(static_cast<double>(k) /
                 static_cast<double>(n_probes - 1));
  }

  std::printf("=== Multi-p sweep: measure cache + lane kernel ===\n\n");
  const OwnedModel om = make_random_model(shape);
  std::printf("model: |S| = %zu leaves (%zu nodes), |T| = %d, |X| = %d, "
              "%zu probes\n\n",
              om.hierarchy->leaf_count(), om.hierarchy->node_count(),
              shape.slices, shape.states, n_probes);

  // Every strategy runs `reps` times on a fresh aggregator (so each rep
  // pays its own one-time cache build, like a real exploration session)
  // and the fastest rep is reported — single-shot wall times on a busy
  // host swing by 10-20%.
  const auto reps = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("reps")));

  // Before: the original formulation — every run(p) recomputes each cell's
  // measures from the cube and frees its DP buffers afterwards.
  std::vector<AggregationResult> ref_results;
  SweepTiming ref_t;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    AggregationOptions ref_opt;
    ref_opt.kernel = DpKernel::kReference;
    SpatiotemporalAggregator reference(om.model, ref_opt);
    std::vector<AggregationResult> results;
    const SweepTiming t = sweep(reference, ps, results);
    if (rep == 0 || t.total_s < ref_t.total_s) {
      ref_t = t;
      ref_results = std::move(results);
    }
  }

  // After (a): the cached kernel at max_lanes = 1 — one screened DP sweep
  // per probe — driven probe-by-probe through run(p); the first probe pays
  // the one-time measure-cache build.  This sweep provides the per-probe
  // trajectory and the baseline the lane batching is measured against.
  std::vector<AggregationResult> warm_results;
  SweepTiming cached_t;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    AggregationOptions one_lane_opt;
    one_lane_opt.max_lanes = 1;
    SpatiotemporalAggregator cached(om.model, one_lane_opt);
    std::vector<AggregationResult> results;
    const SweepTiming t = sweep(cached, ps, results);
    if (rep == 0 || t.total_s < cached_t.total_s) {
      cached_t = t;
      warm_results = std::move(results);
    }
  }

  // After (b): the lane-batched API — one run_many call for the whole
  // sweep (what find_significant_levels issues per wave), waves of
  // `lanes` probes sharing each DP sweep.
  const auto lane_width = static_cast<std::size_t>(
      std::clamp<std::int64_t>(cli.get_int("lanes"), 1,
                               static_cast<std::int64_t>(kMaxDpLanes)));
  std::vector<AggregationResult> batch_results;
  double batched_s = 0.0;
  double cache_build_s = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    AggregationOptions lane_opt;
    lane_opt.max_lanes = lane_width;
    SpatiotemporalAggregator batched(om.model, lane_opt);
    Stopwatch batch_watch;
    std::vector<AggregationResult> results = batched.run_many(ps);
    const double total_s = batch_watch.seconds();
    if (rep == 0 || total_s < batched_s) {
      batched_s = total_s;
      cache_build_s = batched.cache_build_seconds();
      batch_results = std::move(results);
    }
  }

  // Equivalence on every probe (bit-identical pIC, identical partitions)
  // across all three strategies.
  bool equivalent = true;
  for (std::size_t k = 0; k < ps.size(); ++k) {
    equivalent = equivalent &&
                 ref_results[k].optimal_pic == warm_results[k].optimal_pic &&
                 ref_results[k].partition.signature() ==
                     warm_results[k].partition.signature() &&
                 ref_results[k].optimal_pic == batch_results[k].optimal_pic &&
                 ref_results[k].partition.signature() ==
                     batch_results[k].partition.signature();
  }

  const double single_ref = ref_t.cumulative_s.front();
  const double single_cached = cached_t.cumulative_s.front();
  const double per_p_kernel_s =
      (batched_s - cache_build_s) / static_cast<double>(n_probes);
  const double speedup = ref_t.total_s / std::max(batched_s, 1e-12);
  // Additional win of the lane batching alone: the one-lane run(p) loop
  // vs the lane-batched sweep — both pay the same one-time cache build and
  // run the same screened scan, so this isolates the lane batching.
  const double lane_speedup = cached_t.total_s / std::max(batched_s, 1e-12);

  std::printf("single run(p=0)     : reference %s | cached (incl. cache "
              "build) %s\n",
              format_seconds(single_ref).c_str(),
              format_seconds(single_cached).c_str());
  std::printf("%zu-probe sweep     : reference %s | one-lane run(p) loop %s "
              "| run_many (W=%zu) %s  =>  %.2fx vs reference\n",
              n_probes, format_seconds(ref_t.total_s).c_str(),
              format_seconds(cached_t.total_s).c_str(), lane_width,
              format_seconds(batched_s).c_str(), speedup);
  std::printf("lane batching       : %.2fx additional over the one-lane "
              "run(p) loop (%zu probes per DP sweep)\n",
              lane_speedup, lane_width);
  std::printf("run_many split      : cache build %s (once) + %s per probe\n",
              format_seconds(cache_build_s).c_str(),
              format_seconds(per_p_kernel_s).c_str());
  std::printf("equivalence         : %s\n\n",
              equivalent ? "bit-identical pIC + identical partitions"
                         : "MISMATCH (BUG)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"multi_p\",\n";
    out << bench_info_json();
    out << "  \"model\": {\"leaves\": " << om.hierarchy->leaf_count()
        << ", \"nodes\": " << om.hierarchy->node_count()
        << ", \"slices\": " << shape.slices
        << ", \"states\": " << shape.states << "},\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", speedup);
    char lane_buf[64];
    std::snprintf(lane_buf, sizeof lane_buf, "%.17g", lane_speedup);
    out << "  \"probes\": " << n_probes << ",\n";
    out << "  \"lane_width\": " << lane_width << ",\n";
    out << "  \"reps\": " << reps << ",\n";
    out << "  \"reference_sweep_s\": " << ref_t.total_s << ",\n";
    out << "  \"cached_sweep_s\": " << cached_t.total_s << ",\n";
    out << "  \"run_many_sweep_s\": " << batched_s << ",\n";
    out << "  \"cache_build_s\": " << cache_build_s << ",\n";
    out << "  \"per_p_kernel_s\": " << per_p_kernel_s << ",\n";
    out << "  \"speedup\": " << buf << ",\n";
    out << "  \"lane_speedup\": " << lane_buf << ",\n";
    out << "  \"equivalent\": " << (equivalent ? "true" : "false") << ",\n";
    out << "  \"trajectory\": [\n";
    for (std::size_t k = 0; k < ps.size(); ++k) {
      out << "    {\"p\": " << ps[k]
          << ", \"reference_cum_s\": " << ref_t.cumulative_s[k]
          << ", \"cached_cum_s\": " << cached_t.cumulative_s[k] << "}"
          << (k + 1 < ps.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("trajectory written to %s\n", json_path.c_str());
  }

  return equivalent ? 0 : 2;
}

}  // namespace
}  // namespace stagg

int main(int argc, char** argv) { return stagg::run(argc, argv); }
