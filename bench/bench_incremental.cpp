// Bench: incremental sliding-window re-aggregation vs from-scratch runs.
//
// A production monitoring session re-aggregates a moving window every few
// seconds; between two advances only a small time suffix of the window
// changed.  The batch path pays the full pipeline each time — model fold,
// cube, O(|S|·|T|²·|X|) measure pass, O(|S|·|T|³) DP sweep.  The
// incremental session (SlidingWindowSession + run_incremental) addresses
// the cube, the measure cache and the retained DP triangles through a
// window origin, so a slide moves the origin instead of the cells (one
// in-place compaction per ~|T|/8 slid columns), and recomputes only the
// cells whose triangle column intersects the dirty suffix — its cost
// scales with the dirty fraction, not the window.
//
// Protocol: a 64-leaf synthetic MPI trace streams into a |T| = 96 session;
// for each dirty fraction (slide distance k => k/|T| dirty columns) the
// bench alternates
//   - an incremental advance: deliver staged events + session.slide(k),
//   - a from-scratch oracle over the very same new window: model fold +
//     aggregator construction + run_many (what a non-incremental service
//     would execute),
// timing both and asserting bit-identical results on every advance.  The
// headline number is the speedup at <= 10% dirty columns; the acceptance
// bar is >= 5x.  --smoke runs a reduced configuration and emits
// BENCH_incremental.json for CI trend tracking.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_info.hpp"
#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "core/sliding_window.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/builder.hpp"
#include "workload/synthetic.hpp"

namespace stagg {
namespace {

struct FractionResult {
  std::int32_t dirty_slices = 0;
  double dirty_fraction = 0.0;
  int advances = 0;
  double incremental_s = 0.0;  ///< mean per advance
  double scratch_s = 0.0;      ///< mean per advance
  double speedup = 0.0;
  bool equivalent = true;
};

bool results_equal(const std::vector<AggregationResult>& a,
                   const std::vector<AggregationResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].optimal_pic != b[k].optimal_pic ||
        a[k].partition.signature() != b[k].partition.signature() ||
        a[k].measures.gain != b[k].measures.gain ||
        a[k].measures.loss != b[k].measures.loss) {
      return false;
    }
  }
  return true;
}

int run(int argc, const char* const* argv) {
  Cli cli("bench_incremental",
          "sliding-window incremental re-aggregation vs from-scratch "
          "run_many at several dirty-column fractions");
  cli.option("levels", "3", "hierarchy depth of the balanced platform");
  cli.option("fanout", "4", "children per node (leaves = fanout^levels)");
  cli.option("slices", "96", "window slice count |T|");
  cli.option("states", "6", "number of states |X|");
  cli.option("probes", "4", "number of p values per advance");
  cli.option("lanes", "4", "lane width of the DP waves (1-8)");
  cli.option("reps", "6", "advances measured per dirty fraction");
  cli.option("json", "", "write a JSON summary to this path");
  cli.flag("smoke", "reduced model + BENCH_incremental.json (CI mode)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_flag("smoke");
  std::int32_t levels = static_cast<std::int32_t>(cli.get_int("levels"));
  std::int32_t fanout = static_cast<std::int32_t>(cli.get_int("fanout"));
  std::int32_t slices = static_cast<std::int32_t>(cli.get_int("slices"));
  std::int32_t states = static_cast<std::int32_t>(cli.get_int("states"));
  if (smoke) {
    levels = 2;
    fanout = 4;
    slices = 48;
    states = 4;
  }
  std::string json_path = cli.get("json");
  if (smoke && json_path.empty()) json_path = "BENCH_incremental.json";
  const auto reps = static_cast<int>(std::max<std::int64_t>(
      1, cli.get_int("reps")));
  const auto n_probes = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("probes")));

  const Hierarchy h = make_balanced_hierarchy(levels, fanout);
  const TimeNs dt = seconds(1.0);
  const TimeNs window_span = dt * slices;

  // Dirty fractions: ~1%, ~5% and the <= 10% acceptance point.
  const std::vector<std::int32_t> dirty_slices = {
      std::max(1, slices / 96), std::max(1, slices / 20),
      std::max(1, slices / 10 - 1)};
  // Stream span: warmup + all measured advances, with slack.
  std::int32_t total_slide = 4;
  for (const std::int32_t k : dirty_slices) total_slide += k * reps;
  const double span_s = to_seconds(window_span + dt * (total_slide + 8));

  // Synthetic MPI-ish workload cycling `states` states with heterogeneous
  // means so the aggregation has real structure at every window.
  const auto programmer = [&](LeafId leaf) {
    ResourceProgram p;
    StatePattern pattern;
    for (std::int32_t x = 0; x < states; ++x) {
      const double mean = 0.02 + 0.015 * ((leaf + x) % 4);
      pattern.elements.push_back(
          {"state" + std::to_string(x), mean, 0.35});
    }
    p.phases.push_back({0.0, span_s, std::move(pattern)});
    return p;
  };
  Trace full = generate_trace(h, programmer, 0xC0FFEE);
  full.seal();

  // Initial window trace + time-ordered future stream.
  Trace initial;
  for (const auto& name : full.states().names()) {
    (void)initial.states().intern(name);
  }
  std::vector<std::pair<ResourceId, StateInterval>> future;
  for (ResourceId r = 0; r < static_cast<ResourceId>(full.resource_count());
       ++r) {
    initial.add_resource(full.resource_path(r));
    for (const auto& s : full.intervals(r)) {
      if (s.begin < window_span) {
        initial.add_state(r, s.state, s.begin, s.end);
      } else {
        future.emplace_back(r, s);
      }
    }
  }
  std::sort(future.begin(), future.end(), [](const auto& a, const auto& b) {
    if (a.second.begin != b.second.begin) {
      return a.second.begin < b.second.begin;
    }
    if (a.first != b.first) return a.first < b.first;
    return a.second.end < b.second.end;
  });

  std::vector<double> ps;
  for (std::size_t k = 0; k < n_probes; ++k) {
    ps.push_back(n_probes == 1
                     ? 0.5
                     : static_cast<double>(k) /
                           static_cast<double>(n_probes - 1));
  }

  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = static_cast<std::size_t>(
      std::clamp<std::int64_t>(cli.get_int("lanes"), 1,
                               static_cast<std::int64_t>(kMaxDpLanes)));

  std::printf("=== Incremental sliding-window re-aggregation ===\n\n");
  std::printf("model: |S| = %zu leaves (%zu nodes), |T| = %d, |X| = %d, "
              "%zu probes, W = %zu, %d advances per fraction\n\n",
              h.leaf_count(), h.node_count(), slices, states, ps.size(),
              opt.aggregation.max_lanes, reps);

  Stopwatch setup_watch;
  SlidingWindowSession session(h, std::move(initial),
                               TimeGrid(0, window_span, slices), ps, opt);
  const double initial_s = setup_watch.seconds();
  std::printf("initial window      : %s (full build + retained first run)\n",
              format_seconds(initial_s).c_str());

  std::size_t next = 0;
  const auto deliver = [&](TimeNs horizon) {
    while (next < future.size() && future[next].second.begin < horizon) {
      const auto& [r, s] = future[next];
      session.append(r, s.state, s.begin, s.end);
      ++next;
    }
  };
  const auto scratch_run = [&]() -> std::pair<double, bool> {
    // What a non-incremental service pays for the same window: fold the
    // retained trace into a fresh model, build a fresh aggregator (cube)
    // and sweep all probes (measure cache + DP).
    Trace copy = session.trace();
    ModelBuildOptions build;
    build.slice_count = session.window().slice_count();
    build.match_by_path = true;
    build.window_begin = session.window().begin();
    build.window_end = session.window().end();
    Stopwatch watch;
    const MicroscopicModel fresh = build_model(copy, h, build);
    SpatiotemporalAggregator agg(fresh, opt.aggregation);
    const std::vector<AggregationResult> results = agg.run_many(ps);
    const double elapsed = watch.seconds();
    return {elapsed, results_equal(results, session.results())};
  };

  // Warmup: a few advances so pools, caches and the retained state reach
  // steady state before timing.
  for (int k = 0; k < 4; ++k) {
    deliver(session.window().end() + dt);
    session.slide(1);
  }

  std::vector<FractionResult> fractions;
  for (const std::int32_t k : dirty_slices) {
    FractionResult f;
    f.dirty_slices = k;
    f.dirty_fraction =
        static_cast<double>(k) / static_cast<double>(slices);
    for (int rep = 0; rep < reps; ++rep) {
      deliver(session.window().end() + dt * k);
      Stopwatch inc_watch;
      session.slide(k);
      f.incremental_s += inc_watch.seconds();
      const auto [scratch_s, equal] = scratch_run();
      f.scratch_s += scratch_s;
      f.equivalent = f.equivalent && equal;
      ++f.advances;
    }
    f.incremental_s /= f.advances;
    f.scratch_s /= f.advances;
    f.speedup = f.scratch_s / std::max(f.incremental_s, 1e-12);
    fractions.push_back(f);
    std::printf("dirty %5.1f%% (k=%2d): incremental %s | from-scratch %s  "
                "=>  %5.2fx  [%s]\n",
                100.0 * f.dirty_fraction, f.dirty_slices,
                format_seconds(f.incremental_s).c_str(),
                format_seconds(f.scratch_s).c_str(), f.speedup,
                f.equivalent ? "bit-identical" : "MISMATCH (BUG)");
  }

  bool all_equivalent = true;
  double best_speedup_le_10pct = 0.0;
  for (const FractionResult& f : fractions) {
    all_equivalent = all_equivalent && f.equivalent;
    if (f.dirty_fraction <= 0.10 + 1e-9) {
      best_speedup_le_10pct = std::max(best_speedup_le_10pct, f.speedup);
    }
  }
  // The tracked acceptance metric is pinned to the *middle* dirty fraction
  // (~5% of columns), not the best point: gating on the max would let a
  // regression in the realistic 4-8% range hide behind a fast 1% point.
  const FractionResult& bar = fractions[fractions.size() / 2];
  std::printf("\nheadline            : %.2fx at %.1f%% dirty columns "
              "(bar: >= 5x; best at <= 10%%: %.2fx)\n",
              bar.speedup, 100.0 * bar.dirty_fraction,
              best_speedup_le_10pct);
  std::printf("equivalence         : %s\n\n",
              all_equivalent ? "bit-identical on every advance"
                             : "MISMATCH (BUG)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"incremental\",\n";
    out << bench_info_json();
    out << "  \"model\": {\"leaves\": " << h.leaf_count()
        << ", \"nodes\": " << h.node_count() << ", \"slices\": " << slices
        << ", \"states\": " << states << "},\n";
    out << "  \"probes\": " << ps.size() << ",\n";
    out << "  \"lane_width\": " << opt.aggregation.max_lanes << ",\n";
    out << "  \"advances_per_fraction\": " << reps << ",\n";
    out << "  \"initial_build_s\": " << initial_s << ",\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", bar.speedup);
    out << "  \"bar_dirty_fraction\": " << bar.dirty_fraction << ",\n";
    out << "  \"bar_speedup\": " << buf << ",\n";
    out << "  \"meets_5x_bar\": " << (bar.speedup >= 5.0 ? "true" : "false")
        << ",\n";
    std::snprintf(buf, sizeof buf, "%.17g", best_speedup_le_10pct);
    out << "  \"best_speedup_le_10pct_dirty\": " << buf << ",\n";
    out << "  \"equivalent\": " << (all_equivalent ? "true" : "false")
        << ",\n";
    out << "  \"fractions\": [\n";
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      const FractionResult& f = fractions[i];
      out << "    {\"dirty_slices\": " << f.dirty_slices
          << ", \"dirty_fraction\": " << f.dirty_fraction
          << ", \"advances\": " << f.advances
          << ", \"incremental_s\": " << f.incremental_s
          << ", \"scratch_s\": " << f.scratch_s
          << ", \"speedup\": " << f.speedup
          << ", \"equivalent\": " << (f.equivalent ? "true" : "false") << "}"
          << (i + 1 < fractions.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("summary written to %s\n", json_path.c_str());
  }

  return all_equivalent ? 0 : 2;
}

}  // namespace
}  // namespace stagg

int main(int argc, char** argv) { return stagg::run(argc, argv); }
