// Bench: memory-budgeted SessionManager — cold chunks spilled to an
// mmapped file — vs the same N-session run fully resident.
//
// The acceptance shape of the storage-backend layer: with a budget of 25%
// of the all-resident sealed chunk bytes (a trace ~4x the budget), a
// 4-session manager must (a) hold resident chunk bytes at or under the
// budget after *every* round, (b) produce bit-identical results to the
// all-resident run on every round, and (c) keep aggregate advance
// throughput within 1.3x of all-resident (the mmap page-ins ride the page
// cache; streaming a spilled chunk is a sequential scan either way).
//
// Protocol: a synthetic stream drives N staggered sessions.  The
// all-resident manager runs the full ingest+slide schedule and records
// per-round results and timings; the budgeted manager replays the
// identical schedule under the cap, and a third leg replays it under the
// cap *with chunk compression* (ChunkCompression::kAuto) — the encoded
// chunks must also hold the budget, stay bit-identical, and keep the same
// <= 1.3x slowdown bar while reporting bytes/interval and the achieved
// compression ratio.
//
// Timing: one schedule takes milliseconds, so a single ratio is noise.
// The three legs run as one interleaved repeat (leg order reversed on
// every other repeat), and each repeat yields one paired slowdown per
// leg (its budgeted time over its own resident time).  The bar is judged
// on the median paired ratio by bench/paired_ratio.hpp's repeat driver; a
// spread still straddling the bar at the repeat cap exits 3 with an
// "inconclusive" verdict.  --smoke emits BENCH_spill.json (the
// medians and the spreads) for CI trend tracking; exit is 2 on any
// violated bar or equivalence failure.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_info.hpp"
#include "common/cli.hpp"
#include "common/stopwatch.hpp"
#include "core/session_manager.hpp"
#include "hierarchy/hierarchy.hpp"
#include "paired_ratio.hpp"
#include "workload/stream_split.hpp"
#include "workload/synthetic.hpp"

namespace stagg {
namespace {

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

struct Spec {
  TimeGrid window;
  std::vector<double> ps;
};

struct RunStats {
  double advance_seconds = 0.0;
  std::size_t resident_chunk_peak = 0;
  std::size_t store_bytes_peak = 0;
  std::size_t store_bytes_final = 0;
  std::size_t intervals_final = 0;
  /// results[round][session]
  std::vector<std::vector<std::vector<AggregationResult>>> results;

  [[nodiscard]] double bytes_per_interval() const noexcept {
    return static_cast<double>(store_bytes_final) /
           static_cast<double>(std::max<std::size_t>(1, intervals_final));
  }
};

int run(int argc, const char* const* argv) {
  Cli cli("bench_spill",
          "memory-budgeted shared-store sessions (on-disk chunk spill, "
          "mmap read-back) vs the same run fully resident");
  cli.option("levels", "2", "hierarchy depth of the balanced platform");
  cli.option("fanout", "4", "children per node (leaves = fanout^levels)");
  cli.option("sessions", "4", "number of concurrent sessions N");
  cli.option("slices", "64", "base window slice count |T|");
  cli.option("states", "5", "number of states |X|");
  cli.option("lanes", "4", "lane width of the DP waves (1-8)");
  cli.option("rounds", "", "measured advance rounds (default 12, smoke 8)");
  cli.option("budget-pct", "25", "resident budget as % of all-resident bytes");
  cli.option("json", "", "write a JSON summary to this path");
  cli.flag("smoke", "reduced model + BENCH_spill.json (CI mode)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_flag("smoke");
  std::int32_t levels = static_cast<std::int32_t>(cli.get_int("levels"));
  std::int32_t fanout = static_cast<std::int32_t>(cli.get_int("fanout"));
  std::int32_t slices = static_cast<std::int32_t>(cli.get_int("slices"));
  std::int32_t states = static_cast<std::int32_t>(cli.get_int("states"));
  const auto n_sessions = static_cast<std::size_t>(
      std::max<std::int64_t>(2, cli.get_int("sessions")));
  const double budget_pct = std::clamp<double>(
      static_cast<double>(cli.get_int("budget-pct")), 1.0, 100.0);
  if (smoke) {
    levels = 2;
    fanout = 4;
    slices = 48;
    states = 4;
  }
  const int rounds =
      cli.get("rounds").empty()
          ? (smoke ? 8 : 12)
          : static_cast<int>(std::max<std::int64_t>(2, cli.get_int("rounds")));
  // Interleaved repeats: at least min_repeats, more (up to the cap) while
  // the ratio spread straddles the bar.  A smoke schedule takes a few
  // milliseconds, so it affords more repeats.
  const int min_repeats = smoke ? 7 : 5;
  const int max_repeats = smoke ? 41 : 21;
  std::string json_path = cli.get("json");
  if (smoke && json_path.empty()) json_path = "BENCH_spill.json";
  const std::string spill_path = "bench_spill.chunks";

  const Hierarchy h = make_balanced_hierarchy(levels, fanout);
  const TimeNs dt = seconds(1.0);
  const double span_s = to_seconds(dt * (slices + rounds + 8));

  const auto programmer = [&](LeafId leaf) {
    ResourceProgram p;
    StatePattern pattern;
    for (std::int32_t x = 0; x < states; ++x) {
      const double mean = 0.02 + 0.015 * ((leaf + x) % 4);
      pattern.elements.push_back({"state" + std::to_string(x), mean, 0.35});
    }
    p.phases.push_back({0.0, span_s, std::move(pattern)});
    return p;
  };
  Trace whole = generate_trace(h, programmer, 0x5B111);
  whole.seal();

  // Session specs: staggered windows, varied |T| and probe sets (same 1 s
  // slice width so one stream paces everyone).
  std::vector<Spec> specs;
  TimeNs max_end = 0;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    const auto t = static_cast<std::int32_t>(std::max<std::int32_t>(
        8, slices - 8 * static_cast<std::int32_t>(i % 3)));
    const TimeNs begin = dt * static_cast<TimeNs>(i % 4);
    const TimeGrid window(begin, begin + dt * t, t);
    std::vector<double> ps;
    for (std::size_t k = 0; k <= i % 3 + 1; ++k) {
      ps.push_back(static_cast<double>(k + i) /
                   static_cast<double>(i % 3 + n_sessions));
    }
    specs.push_back({window, std::move(ps)});
    max_end = std::max(max_end, window.end());
  }

  SlidingWindowOptions opt;
  opt.aggregation.max_lanes = static_cast<std::size_t>(
      std::clamp<std::int64_t>(cli.get_int("lanes"), 1,
                               static_cast<std::int64_t>(kMaxDpLanes)));

  std::printf("=== Memory-budgeted spill vs all-resident sessions ===\n\n");
  std::printf(
      "model: |S| = %zu leaves, base |T| = %d, |X| = %d, N = %zu sessions, "
      "W = %zu, %d rounds, budget %.0f%%\n\n",
      h.leaf_count(), slices, states, n_sessions, opt.aggregation.max_lanes,
      rounds, budget_pct);

  const TimeNs horizon = max_end + dt;
  const std::vector<std::pair<ResourceId, StateInterval>> future =
      split_trace_at(whole, horizon).future;

  // One schedule, replayed three times: budget_bytes == 0 means
  // all-resident; the compression policy is applied before any session
  // attaches so even the initial runs fold from encoded chunks.
  const auto run_schedule = [&](std::size_t budget_bytes,
                                ChunkCompression compression) -> RunStats {
    Trace initial = split_trace_at(whole, horizon).initial;
    initial.seal();
    SessionManager manager(h, initial.store());
    // Compression first: the initial chunks re-encode while still
    // resident, so the budget spill that follows writes encoded records
    // (spilling raw first would pin the bulk of the trace as raw-mapped —
    // set_compression never rewrites already-spilled chunks).
    if (compression != ChunkCompression::kNone) {
      manager.set_compression(compression);
    }
    if (budget_bytes != 0) {
      std::remove(spill_path.c_str());
      manager.set_memory_budget(budget_bytes, spill_path);
    }
    for (const Spec& spec : specs) {
      SessionSpec s;
      s.window = spec.window;
      s.ps = spec.ps;
      s.options = opt;
      manager.add_session(s);
    }
    RunStats stats;
    std::size_t next = 0;
    TimeNs frontier = horizon;
    for (int round = 0; round < rounds; ++round) {
      frontier += dt;
      Stopwatch w;
      for (; next < future.size() && future[next].second.begin < frontier;
           ++next) {
        const auto& [r, s] = future[next];
        manager.append(r, s.state, s.begin, s.end);
      }
      manager.slide_all(1);
      stats.advance_seconds += w.seconds();
      stats.resident_chunk_peak = std::max(stats.resident_chunk_peak,
                                           manager.resident_chunk_bytes());
      stats.store_bytes_peak =
          std::max(stats.store_bytes_peak, manager.store_bytes());
      auto& round_results = stats.results.emplace_back();
      for (std::size_t i = 0; i < n_sessions; ++i) {
        round_results.push_back(manager.session(i).results());
      }
    }
    stats.store_bytes_final = manager.store_bytes();
    stats.intervals_final =
        static_cast<std::size_t>(manager.store().state_count());
    return stats;
  };

  // The budget is a fixed share of the first all-resident run's peak.
  const RunStats first = run_schedule(0, ChunkCompression::kNone);
  const auto budget = static_cast<std::size_t>(
      static_cast<double>(first.resident_chunk_peak) * budget_pct / 100.0);
  const double slowdown_bar = 1.3;

  // Interleaved repeats: each yields one paired ratio per budgeted leg.
  // Every leg of every repeat is checked against the first run's results.
  bool equivalent = true;
  bool within_budget = true;
  RunStats resident;
  RunStats compressed;
  const auto same_results = [&](const RunStats& run) {
    for (int round = 0; round < rounds; ++round) {
      const auto r = static_cast<std::size_t>(round);
      for (std::size_t i = 0; i < n_sessions; ++i) {
        if (!results_equal(first.results[r][i], run.results[r][i])) {
          return false;
        }
      }
    }
    return true;
  };
  const RatioBar bar{slowdown_bar, /*at_most=*/true};
  const PairedRatios paired = run_paired_ratios(
      {bar, bar}, min_repeats, max_repeats,
      [&](int repeat, std::vector<std::vector<double>>& ratios) {
        RunStats budgeted;
        if (repeat % 2 == 1) {
          compressed = run_schedule(budget, ChunkCompression::kAuto);
          budgeted = run_schedule(budget, ChunkCompression::kNone);
          resident = run_schedule(0, ChunkCompression::kNone);
        } else {
          resident = run_schedule(0, ChunkCompression::kNone);
          budgeted = run_schedule(budget, ChunkCompression::kNone);
          compressed = run_schedule(budget, ChunkCompression::kAuto);
        }
        equivalent = equivalent && same_results(resident) &&
                     same_results(budgeted) && same_results(compressed);
        within_budget = within_budget &&
                        budgeted.resident_chunk_peak <= budget &&
                        compressed.resident_chunk_peak <= budget;
        const double base = std::max(resident.advance_seconds, 1e-12);
        ratios[0].push_back(budgeted.advance_seconds / base);
        ratios[1].push_back(compressed.advance_seconds / base);
      });
  const RatioSpread& spread = paired.spreads[0];
  const RatioSpread& compressed_spread = paired.spreads[1];
  const int repeats = paired.repeats;
  std::remove(spill_path.c_str());

  const bool conclusive = paired.conclusive;
  const double trace_over_budget =
      static_cast<double>(first.resident_chunk_peak) /
      static_cast<double>(std::max<std::size_t>(1, budget));
  const double total_advances =
      static_cast<double>(n_sessions) * static_cast<double>(rounds);
  const double resident_rate =
      total_advances / std::max(resident.advance_seconds, 1e-12);
  const double slowdown = spread.median;
  const double compressed_slowdown = compressed_spread.median;
  const bool meets_throughput_bar = paired.passes;
  const double compression_ratio =
      resident.bytes_per_interval() /
      std::max(compressed.bytes_per_interval(), 1e-12);
  const char* verdict = paired.verdict();

  std::printf("trace chunk bytes    : %.2f MiB (peak, all-resident) = %.2fx "
              "the budget\n",
              first.resident_chunk_peak / 1048576.0, trace_over_budget);
  std::printf("resident under budget: %.2f MiB budget, every leg of every "
              "repeat  [%s]\n",
              budget / 1048576.0, within_budget ? "ok" : "MISS");
  std::printf("advance slowdown     : budgeted %.2fx [IQR %.2f-%.2f] | "
              "budgeted+compressed %.2fx [IQR %.2f-%.2f]  (median paired "
              "ratio of %d repeats, resident %.1f slides/s; bar <= %.1fx)  "
              "[%s]\n",
              slowdown, spread.q1, spread.q3, compressed_slowdown,
              compressed_spread.q1, compressed_spread.q3, repeats,
              resident_rate, slowdown_bar, verdict);
  std::printf("bytes per interval   : raw %.2f B | compressed %.2f B  =>  "
              "%.2fx compression\n",
              resident.bytes_per_interval(), compressed.bytes_per_interval(),
              compression_ratio);
  std::printf("equivalence          : %s\n\n",
              equivalent ? "bit-identical on every round"
                         : "MISMATCH (BUG)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    char buf[64];
    out << "{\n  \"bench\": \"spill\",\n";
    out << bench_info_json();
    out << "  \"model\": {\"leaves\": " << h.leaf_count()
        << ", \"base_slices\": " << slices << ", \"states\": " << states
        << "},\n";
    out << "  \"sessions\": " << n_sessions << ",\n";
    out << "  \"lane_width\": " << opt.aggregation.max_lanes << ",\n";
    out << "  \"rounds\": " << rounds << ",\n";
    out << "  \"budget_bytes\": " << budget << ",\n";
    out << "  \"resident_chunk_bytes_all_resident\": "
        << first.resident_chunk_peak << ",\n";
    out << "  \"resident_chunk_bytes_compressed_peak\": "
        << compressed.resident_chunk_peak << ",\n";
    std::snprintf(buf, sizeof buf, "%.6g", trace_over_budget);
    out << "  \"trace_over_budget\": " << buf << ",\n";
    out << "  \"within_budget_every_round\": "
        << (within_budget ? "true" : "false") << ",\n";
    std::snprintf(buf, sizeof buf, "%.6g", resident_rate);
    out << "  \"resident_slides_per_s\": " << buf << ",\n";
    out << "  \"repeats\": " << repeats << ",\n";
    const auto emit_spread = [&](const char* key, const RatioSpread& r) {
      out << "  \"" << key << "\": ";
      std::snprintf(buf, sizeof buf, "%.6g", r.median);
      out << buf << ",\n  \"" << key << "_iqr\": [";
      std::snprintf(buf, sizeof buf, "%.6g", r.q1);
      out << buf << ", ";
      std::snprintf(buf, sizeof buf, "%.6g", r.q3);
      out << buf << "],\n";
    };
    emit_spread("slowdown", spread);
    emit_spread("compressed_slowdown", compressed_spread);
    std::snprintf(buf, sizeof buf, "%.6g", slowdown_bar);
    out << "  \"slowdown_bar\": " << buf << ",\n";
    out << "  \"slowdown_verdict\": \"" << verdict << "\",\n";
    std::snprintf(buf, sizeof buf, "%.6g", resident.bytes_per_interval());
    out << "  \"raw_bytes_per_interval\": " << buf << ",\n";
    std::snprintf(buf, sizeof buf, "%.6g", compressed.bytes_per_interval());
    out << "  \"compressed_bytes_per_interval\": " << buf << ",\n";
    std::snprintf(buf, sizeof buf, "%.6g", compression_ratio);
    out << "  \"compression_ratio\": " << buf << ",\n";
    out << "  \"equivalent\": " << (equivalent ? "true" : "false") << "\n";
    out << "}\n";
    std::printf("summary written to %s\n", json_path.c_str());
  }

  if (!equivalent || !within_budget || (conclusive && !meets_throughput_bar)) {
    return 2;
  }
  if (!conclusive) {
    std::printf("inconclusive: the slowdown spread still straddles the "
                "%.1fx bar after %d repeats\n",
                slowdown_bar, repeats);
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace stagg

int main(int argc, char** argv) { return stagg::run(argc, argv); }
