// Offline workloads: the paper's batch path, one analysis per op.
//
// Each op reads the STGT file the set-up wrote, builds the microscopic
// model, constructs the aggregator (DataCube) and runs the analysis
// (run_many or find_significant_levels).  Ops run closed-loop, one after
// the other, until the measured phase is used up.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregator.hpp"
#include "hierarchy/hierarchy.hpp"
#include "model/builder.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace.hpp"
#include "trace/trace_view.hpp"
#include "workload.hpp"

namespace stagg::e2e {

/// Output of one op's analysis call.
struct Analysis {
  /// run_many results, or one representative result per level.
  std::vector<AggregationResult> results;
  /// Per-level [p_min, p_max] (level searches only).
  std::vector<std::pair<double, double>> ranges;
  std::size_t dp_runs = 0;
};

/// One result the gate recomputes with DpKernel::kReference.
struct ReferencePick {
  double p = 0.0;
  std::size_t index = 0;  ///< into Analysis::results
};

struct OfflineSpec {
  const char* name = "";
  std::int32_t slices = 30;
};

/// Smallest number of timed ops, whatever the measured phase allows.
inline constexpr int kMinOps = 3;

template <class Analyze, class Pick>
RunOutcome run_offline(const OfflineSpec& spec, const RunOptions& opts,
                       Trace& input, const Hierarchy& hierarchy,
                       Analyze&& analyze, Pick&& pick, Gate& gate) {
  RunOutcome out;
  const std::string path = opts.workdir + "/" + spec.name + ".stgt";
  ModelBuildOptions model_opts;
  model_opts.slice_count = spec.slices;
  const std::size_t lanes = AggregationOptions{}.max_lanes;
  const double node_cells =
      static_cast<double>(hierarchy.node_count()) *
      static_cast<double>(spec.slices) * static_cast<double>(spec.slices + 1) /
      2.0;

  struct OpSample {
    double wall_s = 0.0;  ///< read -> result
    double cpu_s = 0.0;   ///< process CPU, read -> result
    double cache_s = 0.0;
    double analyze_s = 0.0;  ///< run_many / find_significant_levels call
    double accounted_bytes = 0.0;
    double store_bytes = 0.0;
    double working_set_bytes = 0.0;
    double events = 0.0;
    Analysis analysis;
  };

  const auto op = [&](Tracer& tracer, std::int64_t id) {
    OpSample s;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    std::shared_ptr<TraceStore> store;
    MicroscopicModel model;
    std::optional<SpatiotemporalAggregator> agg;
    {
      const ScopedSpan span(tracer, "trace.read", id);
      store = read_binary_trace_store(path);
    }
    {
      const ScopedSpan span(tracer, "model.build", id);
      model = build_model(TraceView(store), hierarchy, model_opts);
    }
    {
      const ScopedSpan span(tracer, "core.cube", id);
      agg.emplace(model);
    }
    {
      const ScopedSpan span(tracer, "core.analyze", id);
      const std::int64_t a0 = now_ns();
      s.analysis = analyze(*agg);
      s.analyze_s = static_cast<double>(now_ns() - a0) * 1e-9;
    }
    s.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    s.cpu_s = process_cpu_s() - cpu0;
    s.cache_s = agg->cache_build_seconds();
    s.store_bytes = static_cast<double>(store->store_bytes());
    s.working_set_bytes = static_cast<double>(agg->working_set_bytes(lanes));
    s.accounted_bytes = s.store_bytes + s.working_set_bytes;
    s.events = 2.0 * static_cast<double>(store->state_count());
    {
      const ScopedSpan span(tracer, "release", id);
      agg.reset();
      model = MicroscopicModel();
      store.reset();
    }
    return s;
  };

  // Set-up: the program writes its input file, then a warm-up op fills the
  // page cache and the lazily created thread pool.  Repeated; median kept.
  Tracer untraced(false);
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opts.smoke ? 1 : kSetupReps); ++rep) {
    const std::int64_t t0 = now_ns();
    (void)write_binary_trace(input, path);
    (void)op(untraced, -1);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Tracer tracer(opts.traced);
  std::vector<OpSample> samples;
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  const int min_ops = opts.smoke ? 2 : kMinOps;
  for (std::int64_t id = 0;
       id < min_ops || (!opts.smoke && elapsed_s() < opts.seconds); ++id) {
    ++out.attempted;
    try {
      samples.push_back(op(tracer, id));
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "op %lld failed: %s\n", static_cast<long long>(id),
                   e.what());
    }
  }
  const double wall_s = elapsed_s();
  const double cpu_s = process_cpu_s() - cpu_start;
  if (samples.empty()) return out;

  // Correctness gate, outside the timed phase.
  const Analysis& first = samples.front().analysis;
  for (std::size_t k = 1; k < samples.size(); ++k) {
    const Analysis& a = samples[k].analysis;
    char what[64] = {};
    std::snprintf(what, sizeof what, "op %zu vs op 0", k);
    gate.check(a.ranges == first.ranges && a.dp_runs == first.dp_runs, what);
    gate.same_results(what, first.results, a.results);
  }
  {
    const auto store = read_binary_trace_store(path);
    const MicroscopicModel model =
        build_model(TraceView(store), hierarchy, model_opts);
    AggregationOptions ref_opts;
    ref_opts.kernel = DpKernel::kReference;
    SpatiotemporalAggregator reference(model, ref_opts);
    for (const ReferencePick& r : pick(first)) {
      char what[96] = {};
      std::snprintf(what, sizeof what, "p = %.6g vs DpKernel::kReference",
                    r.p);
      gate.check(r.index < first.results.size(), what);
      if (r.index < first.results.size()) {
        gate.same_result(what, reference.run(r.p), first.results[r.index]);
      }
    }
  }

  std::vector<double> latency_ms;
  std::vector<double> cpu_per_kevent;
  std::vector<double> cache_s;
  std::vector<double> dp_s;
  double accounted_peak = 0.0;
  for (const OpSample& s : samples) {
    latency_ms.push_back(s.wall_s * 1e3);
    cpu_per_kevent.push_back(s.cpu_s * 1e3 / (s.events / 1e3));
    cache_s.push_back(s.cache_s);
    dp_s.push_back(s.analyze_s - s.cache_s);
    accounted_peak = std::max(accounted_peak, s.accounted_bytes);
  }
  const OpSample& s0 = samples.front();
  auto& v = out.values;
  v["setup_s"] = median(setup_s);
  v["latency_p50_ms"] = median(latency_ms);
  // latency_tail_ms: p75.  A run holds ~45 (lu_overview) to ~100
  // (churn_levels) ops, so at least ~10 lie beyond it.  Every op does the
  // same work, so a higher percentile reads only whether the host had a
  // slow burst during the run.
  v["latency_tail_ms"] = percentile(latency_ms, 0.75);
  v["cpu_ms_per_kevent"] = median(cpu_per_kevent);
  v["accounted_peak_mb"] = accounted_peak / kMiB;

  v["trace.events"] = s0.events;
  v["trace.store_mb"] = s0.store_bytes / kMiB;
  v["core.working_set_mb"] = s0.working_set_bytes / kMiB;
  v["core.dp_runs"] = static_cast<double>(s0.analysis.dp_runs);
  v["core.levels"] = static_cast<double>(s0.analysis.ranges.size());
  v["proc.peak_rss_mb"] = peak_rss_mb();
  v["proc.cpu_util"] = cpu_s / (wall_s * hardware_threads());
  if (tracer.enabled()) {
    const double read_s = median(tracer.per_op_seconds("trace.read"));
    const double model_s = median(tracer.per_op_seconds("model.build"));
    const double dp = median(dp_s);
    v["trace.read_s"] = read_s;
    v["model.build_s"] = model_s;
    v["core.cube_s"] = median(tracer.per_op_seconds("core.cube"));
    v["core.cache_s"] = median(cache_s);
    v["core.dp_s"] = dp;
    v["trace.read_mevents_per_s"] = s0.events / read_s / 1e6;
    v["model.fold_mevents_per_s"] = s0.events / model_s / 1e6;
    v["core.dp_mcells_per_s"] =
        static_cast<double>(s0.analysis.dp_runs) * node_cells / dp / 1e6;
    report_attribution(tracer, wall_s, out);
    out.spans_json = tracer.to_json();
  }
  out.config_json = "{\"slices\": " + std::to_string(spec.slices) +
                    ", \"nodes\": " + std::to_string(hierarchy.node_count()) +
                    ", \"leaves\": " + std::to_string(hierarchy.leaf_count()) +
                    ", \"timed_ops\": " + std::to_string(samples.size()) + "}";
  std::remove(path.c_str());
  return out;
}

}  // namespace stagg::e2e
