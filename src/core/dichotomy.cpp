#include "core/dichotomy.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace stagg {

DichotomyResult find_significant_levels(SpatiotemporalAggregator& aggregator,
                                        const DichotomyOptions& options) {
  DichotomyResult out;

  // Probe cache: p -> result.  Results carry canonical partitions, so
  // partition equality is exact area-set equality.
  std::map<double, AggregationResult> probes;

  // Runs one bisection wave as a single batch: the aggregator amortizes
  // its measure-cache build and DP buffer arena across all probes of the
  // search, and evaluates the wave in lanes of up to
  // AggregationOptions::max_lanes parameters per DP sweep
  // (SpatiotemporalAggregator::run_many).
  const auto probe_batch = [&](std::vector<double> ps) {
    std::erase_if(ps, [&](double p) { return probes.contains(p); });
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    // Truncate to the remaining run budget; `room` saturates at 0 so a
    // batch submitted at (or past) the cap cannot underflow the resize.
    const std::size_t room =
        options.max_runs > out.runs ? options.max_runs - out.runs : 0;
    if (ps.size() > room) ps.resize(room);
    if (ps.empty()) return;
    std::vector<AggregationResult> results = aggregator.run_many(ps);
    for (std::size_t k = 0; k < ps.size(); ++k) {
      probes.emplace(ps[k], std::move(results[k]));
    }
    out.runs += ps.size();
  };
  const auto same_partition = [&](double a, double b) {
    return probes.at(a).partition == probes.at(b).partition;
  };

  // Breadth-first bisection: every wave probes all pending midpoints in one
  // batch.  The probe set matches the depth-first original — a span is
  // split iff its endpoints disagree and its gap exceeds epsilon.
  struct Span {
    double lo, hi;
  };
  probe_batch({0.0, 1.0});
  std::vector<Span> spans{{0.0, 1.0}};
  while (!spans.empty() && out.runs < options.max_runs) {
    std::vector<double> mids;
    std::vector<Span> splitting;
    for (const Span& s : spans) {
      if (s.hi - s.lo <= options.epsilon) continue;
      // A tight max_runs (< 2) can leave a span endpoint unprobed — the
      // initial {0, 1} batch itself gets truncated.  Such spans cannot be
      // compared; drop them and return the partial result instead of
      // hitting probes.at() below.
      if (!probes.contains(s.lo) || !probes.contains(s.hi)) continue;
      if (same_partition(s.lo, s.hi)) continue;
      mids.push_back(0.5 * (s.lo + s.hi));
      splitting.push_back(s);
    }
    if (mids.empty()) break;
    probe_batch(std::move(mids));
    spans.clear();
    for (const Span& s : splitting) {
      const double mid = 0.5 * (s.lo + s.hi);
      // Midpoints past the max_runs cap were not probed; drop their spans.
      if (!probes.contains(mid)) continue;
      spans.push_back({s.lo, mid});
      spans.push_back({mid, s.hi});
    }
  }

  // Collapse consecutive probes with equal partitions into plateaus.
  AggregationLevel current;
  bool has_current = false;
  for (auto& [p, result] : probes) {
    if (!has_current || result.partition != current.result.partition) {
      if (has_current) out.levels.push_back(std::move(current));
      current = AggregationLevel{p, p, std::move(result)};
      has_current = true;
    } else {
      current.p_max = p;
    }
  }
  if (has_current) out.levels.push_back(std::move(current));
  return out;
}

}  // namespace stagg
