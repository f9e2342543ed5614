// Significant aggregation strengths (paper §I: "the analyst can easily
// choose several levels of details by sliding the aggregation strength
// among a set of significant values").
//
// The optimal partition is a piecewise-constant function of p; the
// dichotomic search bisects [0, 1] breadth-first, comparing the canonical
// partitions found at the endpoints of each span (exact area-set equality),
// and returns the distinct plateaus with their parameter ranges.  Because the DataCube and the measure cache are
// p-independent, each probe costs only the multiply-add DP, not a model
// rebuild; every bisection wave is submitted as one
// SpatiotemporalAggregator::run_many batch, so the cache build and the DP
// buffer arena are paid once for the whole search, and the wave's probes
// are evaluated in SIMD-friendly lanes sharing one pass over the measure
// cache — this is what makes Ocelotl's slider "instantaneous" after the
// preprocess (paper §VI).
#pragma once

#include <cstdint>
#include <vector>

#include "core/aggregator.hpp"

namespace stagg {

/// One plateau of the p -> partition map.
struct AggregationLevel {
  double p_min = 0.0;       ///< first probed p showing this partition
  double p_max = 0.0;       ///< last probed p showing this partition
  AggregationResult result; ///< representative run (at p_min)
};

struct DichotomyOptions {
  double epsilon = 1e-3;       ///< stop bisecting below this p-gap
  /// Hard cap on DP executions.  Values below 2 cannot even probe both
  /// endpoints; the search then returns whatever partial result the budget
  /// allowed (max_runs == 1: the single p = 0 plateau; 0: no levels).
  std::size_t max_runs = 256;
};

struct DichotomyResult {
  std::vector<AggregationLevel> levels;  ///< sorted by p_min ascending
  std::size_t runs = 0;                  ///< DP executions performed
};

/// Finds the significant p plateaus of `aggregator` over [0, 1].
/// Note: plateaus narrower than epsilon, or lying between two probes that
/// return the same partition, can be missed — the same trade-off the
/// Ocelotl tool makes.
[[nodiscard]] DichotomyResult find_significant_levels(
    SpatiotemporalAggregator& aggregator, const DichotomyOptions& options = {});

}  // namespace stagg
