// What every bench_e2e workload receives and returns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <sys/resource.h>

#include "report.hpp"
#include "spans.hpp"

namespace stagg::e2e {

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

struct RunOptions {
  std::uint64_t seed = 1;
  /// Length of the measured phase (offline: ops run until it is used up;
  /// live: rounds = seconds / cadence).
  double seconds = 20.0;
  bool traced = false;
  /// ~1/20-size inputs and a few ops or rounds: quick iteration only,
  /// never a measured configuration.
  bool smoke = false;
  /// Scratch files (STGT traces, spill files) go here.
  std::string workdir;
};

struct RunOutcome {
  /// Metric name -> value; units come from the canonical metric lists.
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Workload constants as a JSON object (recorded in --json reports).
  std::string config_json = "{}";
  /// Traced runs: the recorded spans (Tracer::to_json).
  std::string spans_json;
};

[[nodiscard]] inline double hardware_threads() {
  return static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Peak resident set of the process so far, in MiB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
}

/// Adds the traced-run attribution summary: unattributed share of the
/// traced wall time, and a ranking of span self times printed to stdout.
inline void report_attribution(const Tracer& tracer, double traced_wall_s,
                               RunOutcome& out) {
  if (!tracer.enabled()) return;
  const double covered = tracer.top_level_seconds();
  out.values["unattributed_frac"] =
      traced_wall_s > 0.0 ? (traced_wall_s - covered) / traced_wall_s : 0.0;
  std::multimap<double, std::string, std::greater<>> ranked;
  for (const auto& [name, self_s] : tracer.self_seconds()) {
    ranked.emplace(self_s, name);
  }
  std::printf("layer ranking by self time (traced wall %.3f s):\n",
              traced_wall_s);
  for (const auto& [self_s, name] : ranked) {
    std::printf("  %-24s %10.4f s  %5.1f %%\n", name.c_str(), self_s,
                traced_wall_s > 0.0 ? 100.0 * self_s / traced_wall_s : 0.0);
  }
}

}  // namespace stagg::e2e
