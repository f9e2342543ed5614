// Interleaved paired-ratio repeats: the one repeat driver of the timing
// bars (bench_spill, bench_simd).
//
// A single timing ratio of two short runs is mostly host noise.  Each
// repeat instead times both sides back to back (the caller alternates
// their order) and yields one paired ratio per bar.  A bar is judged on
// the median of its paired ratios once the interquartile spread lies
// wholly on one side of it; repeats continue up to a cap while some
// spread straddles its bar.  A spread still straddling at the cap is an
// inconclusive result, which the benches report as exit code 3.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace stagg {

/// Linear-interpolated quantile q in [0, 1] of a non-empty sample.
inline double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/// A ratio bar: `at_most` bars pass at or below `value` (slowdowns),
/// the others at or above it (speedups).
struct RatioBar {
  double value = 1.0;
  bool at_most = true;

  [[nodiscard]] bool passes(double ratio) const noexcept {
    return at_most ? ratio <= value : ratio >= value;
  }
};

/// Median and interquartile spread of one bar's paired ratios.
struct RatioSpread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;

  static RatioSpread of(const std::vector<double>& ratios) {
    return {quantile(ratios, 0.5), quantile(ratios, 0.25),
            quantile(ratios, 0.75)};
  }
  /// The spread lies wholly on one side of the bar.
  [[nodiscard]] bool conclusive(const RatioBar& bar) const noexcept {
    return bar.passes(q1) == bar.passes(q3);
  }
};

/// Verdict of every bar after the repeats.
struct PairedRatios {
  std::vector<RatioSpread> spreads;
  int repeats = 0;
  bool conclusive = true;  ///< every spread clear of its bar
  bool passes = true;      ///< every median passes its bar

  /// "ok", "MISS" or "INCONCLUSIVE".
  [[nodiscard]] const char* verdict() const noexcept {
    return !conclusive ? "INCONCLUSIVE" : passes ? "ok" : "MISS";
  }
};

/// Runs `repeat(k, ratios)` for k = 0, 1, ... — each call appends one
/// paired ratio per bar to ratios[b] — at least `min_repeats` and at most
/// `max_repeats` times, stopping early once every spread is conclusive.
template <class Repeat>
PairedRatios run_paired_ratios(const std::vector<RatioBar>& bars,
                               int min_repeats, int max_repeats,
                               Repeat&& repeat) {
  std::vector<std::vector<double>> ratios(bars.size());
  PairedRatios out;
  out.spreads.resize(bars.size());
  while (out.repeats < max_repeats) {
    repeat(out.repeats, ratios);
    ++out.repeats;
    out.conclusive = true;
    out.passes = true;
    for (std::size_t b = 0; b < bars.size(); ++b) {
      out.spreads[b] = RatioSpread::of(ratios[b]);
      out.conclusive = out.conclusive && out.spreads[b].conclusive(bars[b]);
      out.passes = out.passes && bars[b].passes(out.spreads[b].median);
    }
    if (out.repeats >= min_repeats && out.conclusive) break;
  }
  return out;
}

}  // namespace stagg
