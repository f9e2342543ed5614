// bench_e2e: the repository's end-to-end benchmark.
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--traced]
//             [--json <out>] [--workdir <dir>] [--smoke] [--self-test]
//
// Four workloads drive the real stack (trace/ -> model/ -> core/); the seed
// goes only to the generators in workload/, and the program under test sees
// only the generated inputs:
//   lu_overview        offline: NAS-LU (Table II case C at 1/16) read from
//                      STGT -> model (|T| = 30) -> run_many over 8 probes;
//                      read/model-bound.
//   churn_levels       offline: 64-leaf, 64-state churn trace ->
//                      find_significant_levels (|T| = 48, 128-run cap);
//                      DP-bound.
//   live_lu            live, open loop: NAS-LU at 1/64 streamed as CSV through
//                      IngestPipeline, one round due every 20 ms, 3 sessions.
//   live_churn_budget  live, open loop: 32-leaf churn stream, one round due
//                      every 15 ms, 2 sessions, kAuto compression and a 25 %
//                      memory budget (encode at seal, spill, mmap reads).
//
// An untraced run prints the end-to-end metrics; --traced prints the
// per-layer metrics (spans around each layer call, made from this file's
// helpers) and a ranking of layer self times.  Every run checks its outputs
// bit-for-bit against DpKernel::kReference or run_from_scratch outside the
// timed phase.  The last line of stdout is the JSON result object
// (report.hpp).  Exit codes: 0 ok, 1 usage, 2 correctness mismatch, 3 no
// op completed, 4 --self-test not caught by the gate.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/bench_info.hpp"
#include "common/cli.hpp"
#include "core/dichotomy.hpp"
#include "live.hpp"
#include "offline.hpp"
#include "report.hpp"
#include "workload.hpp"
#include "workload/scenarios.hpp"
#include "workload/synthetic.hpp"

namespace stagg::e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"cpu_ms_per_kevent", "ms"},
    {"accounted_peak_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"trace.read_s", "s"},
    {"model.build_s", "s"},
    {"core.cube_s", "s"},
    {"core.cache_s", "s"},
    {"core.dp_s", "s"},
    {"trace.decode_s", "s"},
    {"trace.ingest_s", "s"},
    {"trace.seal_s", "s"},
    {"core.advance_s", "s"},
    {"core.dirty_col_frac", "ratio"},
    {"traced.mevents_per_s", "Mevents/s"},
    {"trace.events", "count"},
    {"trace.read_mevents_per_s", "Mevents/s"},
    {"model.fold_mevents_per_s", "Mevents/s"},
    {"core.dp_runs", "count"},
    {"core.levels", "count"},
    {"core.dp_mcells_per_s", "Mcells/s"},
    {"core.working_set_mb", "MB"},
    {"trace.store_mb", "MB"},
    {"trace.store_peak_mb", "MB"},
    {"trace.resident_peak_mb", "MB"},
    {"trace.spilled_peak_mb", "MB"},
    {"trace.bytes_per_interval", "B"},
    {"trace.spill_dead_mb", "MB"},
    {"core.retained_mb", "MB"},
    {"core.pipeline.batch_queue_high_water", "count"},
    {"core.pipeline.blocked_push_frac", "ratio"},
    {"core.pipeline.records_sealed", "count"},
    {"gen.late_ms_max", "ms"},
    {"gen.backlog_max_rounds", "count"},
    {"proc.peak_rss_mb", "MB"},
    {"proc.cpu_util", "ratio"},
    {"live.latency_p99_ms", "ms"},
    {"unattributed_frac", "ratio"},
};

constexpr const char* kWorkloads[] = {"lu_overview", "churn_levels", "live_lu",
                                      "live_churn_budget"};

// --- Workloads ----------------------------------------------------------------

RunOutcome lu_overview(const RunOptions& o, Gate& gate) {
  // Table II case C (NAS-LU, 700 processes) at 1/16 of the paper's event
  // rate: ~13.6 M events, ~160 MB of STGT.
  const double scale = o.smoke ? 1.0 / 320.0 : 1.0 / 16.0;
  GeneratedScenario lu = generate_scenario(scenario_c(), scale, o.seed);
  const std::vector<double> probes = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9};
  OfflineSpec spec;
  spec.name = "lu_overview";
  spec.slices = 30;
  RunOutcome out = run_offline(
      spec, o, lu.trace, *lu.hierarchy,
      [&](SpatiotemporalAggregator& agg) {
        Analysis a;
        a.results = agg.run_many(probes);
        a.dp_runs = probes.size();
        return a;
      },
      [](const Analysis&) {
        return std::vector<ReferencePick>{{0.5, 5}, {0.9, 7}};
      },
      gate);
  return out;
}

RunOutcome churn_levels(const RunOptions& o, Gate& gate) {
  // 4 x 4 x 4 leaves cycling through 64 states at sub-millisecond
  // durations: ~68 k events over 0.2 s.  The level search hits its 128-run
  // cap, so the op is dominated by the DP.  Ops are kept short (~0.2 s on
  // 4 threads) so a run holds ~100 of them.
  const Hierarchy h = make_balanced_hierarchy(3, 4);
  Trace trace =
      generate_trace(h, make_churn_programmer(64, o.smoke ? 0.01 : 0.2), o.seed);
  DichotomyOptions search;
  search.max_runs = o.smoke ? 32 : 128;
  OfflineSpec spec;
  spec.name = "churn_levels";
  spec.slices = 48;
  return run_offline(
      spec, o, trace, h,
      [&](SpatiotemporalAggregator& agg) {
        const DichotomyResult r = find_significant_levels(agg, search);
        Analysis a;
        a.dp_runs = r.runs;
        for (const AggregationLevel& level : r.levels) {
          a.results.push_back(level.result);
          a.ranges.emplace_back(level.p_min, level.p_max);
        }
        return a;
      },
      [](const Analysis& a) {
        std::vector<ReferencePick> picks;
        if (a.results.size() >= 2) {
          for (const std::size_t k : {std::size_t{1}, a.results.size() / 2}) {
            picks.push_back({a.ranges[k].first, k});
          }
        }
        return picks;
      },
      gate);
}

RunOutcome live_lu(const RunOptions& o, Gate& gate) {
  // NAS-LU at 1/64 of the paper's event rate, attached up to 26 s; each
  // round adds 20 ms of trace time (~720 intervals), one round due every
  // 20 ms (~50 % of the synchronous capacity of a 4-thread host).  Three
  // full-scope sessions with different |T|, slice widths and probe sets.
  GeneratedScenario lu = generate_scenario(scenario_c(), 1.0 / 64.0, o.seed);
  LiveSpec spec;
  spec.name = "live_lu";
  spec.cadence_ms = 20.0;
  spec.step = seconds(0.020);
  spec.horizon = seconds(26.0);
  spec.sessions = {{60, seconds(0.1), {0.25, 0.5, 0.75, 0.9}},
                   {30, seconds(0.2), {0.5}},
                   {48, seconds(0.25), {0.3, 0.6}}};
  return run_live(spec, o, lu.trace, *lu.hierarchy, gate);
}

RunOutcome live_churn_budget(const RunOptions& o, Gate& gate) {
  // 2^5 leaves cycling through 64 states at 1-2.5 ms durations; each round
  // adds 20 ms of trace time (~370 intervals), one round due every 15 ms.
  // kAuto compression and a resident budget of 25 % of the attached store:
  // every seal encodes, every advance spills and reads back through mmap.
  const Hierarchy h = make_balanced_hierarchy(5, 2);
  const Trace trace =
      generate_trace(h, make_churn_programmer(64, 50.0, 1e-3), o.seed);
  LiveSpec spec;
  spec.name = "live_churn_budget";
  spec.cadence_ms = 15.0;
  spec.step = seconds(0.020);
  spec.horizon = seconds(20.0);
  spec.sessions = {{96, seconds(0.1), {0.2, 0.4, 0.6, 0.8}},
                   {48, seconds(0.2), {0.5}}};
  spec.budget = true;
  return run_live(spec, o, trace, h, gate);
}

RunOutcome run_workload(const std::string& name, const RunOptions& o,
                        Gate& gate) {
  if (name == "lu_overview") return lu_overview(o, gate);
  if (name == "churn_levels") return churn_levels(o, gate);
  if (name == "live_lu") return live_lu(o, gate);
  return live_churn_budget(o, gate);
}

// --- Output -------------------------------------------------------------------

/// The per-layer or end-to-end list, in BENCHMARK.json order.  A per-layer
/// metric whose layer the workload never calls reads 0.
MetricSet select(const RunOutcome& out, bool per_layer) {
  MetricSet set;
  for (const MetricDef& d :
       per_layer ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = out.values.find(d.name);
    set.add(d.name, it == out.values.end() ? 0.0 : it->second, d.unit);
  }
  return set;
}

void write_report(const std::string& path, const std::string& workload,
                  const RunOptions& o, const RunOutcome& out,
                  const Gate& gate) {
  std::ofstream f(path);
  f << "{\n  \"bench\": \"e2e\",\n" << bench_info_json();
  f << "  \"workload\": \"" << workload << "\",\n";
  f << "  \"seed\": " << o.seed << ",\n";
  f << "  \"seconds\": " << full_digits(o.seconds) << ",\n";
  f << "  \"traced\": " << (o.traced ? "true" : "false") << ",\n";
  f << "  \"smoke\": " << (o.smoke ? "true" : "false") << ",\n";
  f << "  \"config\": " << out.config_json << ",\n";
  f << "  \"correct\": " << (gate.passed() ? "true" : "false") << ",\n";
  f << "  \"gate_checks\": " << gate.checks() << ",\n";
  f << "  \"attempted\": " << out.attempted << ",\n";
  f << "  \"failed\": " << out.failed << ",\n";
  f << "  \"end_to_end\": " << select(out, false).to_json() << ",\n";
  f << "  \"per_layer\": " << select(out, true).to_json();
  if (!out.spans_json.empty()) f << ",\n  \"spans\": " << out.spans_json;
  f << "\n}\n";
}

int run(int argc, const char* const* argv) {
  Cli cli("bench_e2e",
          "end-to-end benchmark: one workload through trace/ -> model/ -> "
          "core/, metrics with units, outputs checked bit-for-bit");
  cli.option("workload", "",
             "lu_overview | churn_levels | live_lu | live_churn_budget "
             "(empty with --smoke: all four)");
  cli.option("seed", "1", "input generator seed");
  cli.option("seconds", "20", "length of the measured phase");
  cli.flag("traced", "record layer spans; print per-layer metrics");
  cli.option("json", "", "write the full report (and spans) to this path");
  cli.option("workdir", "", "directory for scratch files (default: a temp dir)");
  cli.flag("smoke", "~1/20-size inputs, a few ops/rounds (never measured)");
  cli.flag("self-test", "move one compared pIC by 1 ULP: the gate must trip");
  if (!cli.parse(argc, argv)) return 1;

  RunOptions o;
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  o.seconds = cli.get_double("seconds");
  o.traced = cli.get_flag("traced");
  o.smoke = cli.get_flag("smoke");
  const bool self_test = cli.get_flag("self-test");
  std::vector<std::string> workloads;
  const std::string requested = cli.get("workload");
  for (const char* w : kWorkloads) {
    if (requested == w || (requested.empty() && o.smoke)) workloads.emplace_back(w);
  }
  if (workloads.empty() || !(o.seconds > 0.0)) {
    std::fprintf(stderr,
                 "bench_e2e: need a known --workload (or --smoke) and "
                 "--seconds > 0\n%s",
                 cli.usage().c_str());
    return 1;
  }

  namespace fs = std::filesystem;
  const bool own_workdir = cli.get("workdir").empty();
  const fs::path workdir =
      own_workdir ? fs::temp_directory_path() /
                        ("bench_e2e." + std::to_string(getpid()))
                  : fs::path(cli.get("workdir"));
  fs::create_directories(workdir);
  o.workdir = workdir.string();

  int rc = 0;
  for (const std::string& name : workloads) {
    Gate gate(self_test);
    RunOutcome out;
    const std::int64_t t0 = now_ns();
    try {
      out = run_workload(name, o, gate);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: %s failed: %s\n", name.c_str(), e.what());
      rc = 3;
      continue;
    }
    const MetricSet shown = select(out, o.traced);
    std::printf("%s (seed %llu, %s%s): %llu ops/rounds, %llu failed, %zu "
                "gate checks, %.1f s\n",
                name.c_str(), static_cast<unsigned long long>(o.seed),
                o.traced ? "traced" : "untraced", o.smoke ? ", smoke" : "",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), gate.checks(),
                static_cast<double>(now_ns() - t0) * 1e-9);
    shown.print_table(stdout);
    for (const std::string& f : gate.failures()) {
      std::printf("GATE MISMATCH: %s\n", f.c_str());
    }
    if (!cli.get("json").empty() && workloads.size() == 1) {
      write_report(cli.get("json"), name, o, out, gate);
    }
    if (self_test) {
      if (!gate.perturbed() || gate.passed()) {
        std::printf("self-test FAILED: a 1-ULP pIC change passed the gate\n");
        rc = 4;
      } else {
        std::printf("self-test: the gate caught a 1-ULP pIC change\n");
        rc = rc == 0 ? 2 : rc;
      }
      continue;
    }
    if (out.attempted == out.failed) {
      rc = 3;
      continue;
    }
    if (!gate.passed()) rc = 2;
    if (workloads.size() == 1) {
      std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                  "\"metrics\": %s}\n",
                  gate.passed() ? "true" : "false",
                  static_cast<unsigned long long>(out.attempted),
                  static_cast<unsigned long long>(out.failed),
                  shown.to_json().c_str());
    }
  }
  if (own_workdir) fs::remove_all(workdir);
  return rc;
}

}  // namespace
}  // namespace stagg::e2e

int main(int argc, char** argv) {
  try {
    return stagg::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 3;
  }
}
