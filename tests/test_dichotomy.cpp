#include "core/dichotomy.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "workload/fixtures.hpp"

namespace stagg {
namespace {

TEST(Dichotomy, FindsMultipleLevelsOnStructuredModel) {
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  const DichotomyResult r = find_significant_levels(agg);
  // The Fig. 3 trace has several distinct description levels (the paper
  // shows at least two: 3.d and 3.e).
  EXPECT_GE(r.levels.size(), 3u);
  EXPECT_GT(r.runs, 0u);
}

TEST(Dichotomy, LevelsSpanTheParameterRange) {
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  const DichotomyResult r = find_significant_levels(agg);
  ASSERT_FALSE(r.levels.empty());
  EXPECT_DOUBLE_EQ(r.levels.front().p_min, 0.0);
  EXPECT_DOUBLE_EQ(r.levels.back().p_max, 1.0);
  for (std::size_t k = 0; k + 1 < r.levels.size(); ++k) {
    EXPECT_LT(r.levels[k].p_max, r.levels[k + 1].p_min);
  }
}

TEST(Dichotomy, AreaCountWeaklyDecreasesWithP) {
  // Higher p = simpler representation: along the significant levels the
  // aggregate count must not increase (monotone coarsening).
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  const DichotomyResult r = find_significant_levels(agg);
  for (std::size_t k = 0; k + 1 < r.levels.size(); ++k) {
    EXPECT_GE(r.levels[k].result.partition.size(),
              r.levels[k + 1].result.partition.size())
        << "level " << k;
  }
}

TEST(Dichotomy, LastLevelIsFullAggregation) {
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  const DichotomyResult r = find_significant_levels(agg);
  EXPECT_EQ(r.levels.back().result.partition.size(), 1u);
}

TEST(Dichotomy, RespectsRunBudget) {
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  DichotomyOptions opt;
  opt.max_runs = 5;
  const DichotomyResult r = find_significant_levels(agg, opt);
  EXPECT_LE(r.runs, 5u);
}

TEST(Dichotomy, MaxRunsZeroReturnsEmptyResultWithoutThrowing) {
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  const DichotomyResult r =
      find_significant_levels(agg, {.epsilon = 1e-3, .max_runs = 0});
  EXPECT_EQ(r.runs, 0u);
  EXPECT_TRUE(r.levels.empty());
}

TEST(Dichotomy, MaxRunsOneReturnsPartialResultWithoutThrowing) {
  // The initial {0, 1} endpoint batch is truncated to the budget; the
  // search must return the single-probe partial result, not throw on the
  // unprobed endpoint.
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  const DichotomyResult r =
      find_significant_levels(agg, {.epsilon = 1e-3, .max_runs = 1});
  EXPECT_EQ(r.runs, 1u);
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_DOUBLE_EQ(r.levels[0].p_min, 0.0);
  EXPECT_DOUBLE_EQ(r.levels[0].p_max, 0.0);
  EXPECT_TRUE(r.levels[0].result.partition.is_valid(*om.hierarchy, 20));
}

TEST(Dichotomy, MaxRunsTwoProbesExactlyBothEndpoints) {
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  const DichotomyResult r =
      find_significant_levels(agg, {.epsilon = 1e-3, .max_runs = 2});
  EXPECT_EQ(r.runs, 2u);
  // Fig. 3 has distinct partitions at p = 0 and p = 1, so the two endpoint
  // probes form two one-point plateaus spanning the range.
  ASSERT_EQ(r.levels.size(), 2u);
  EXPECT_DOUBLE_EQ(r.levels.front().p_min, 0.0);
  EXPECT_DOUBLE_EQ(r.levels.back().p_max, 1.0);
}

TEST(Dichotomy, HomogeneousModelHasOneLevel) {
  const OwnedModel om = make_random_model({.levels = 2,
                                           .fanout = 2,
                                           .slices = 6,
                                           .states = 2,
                                           .block_slices = 6,
                                           .block_leaves = 4,
                                           .seed = 5});
  SpatiotemporalAggregator agg(om.model);
  const DichotomyResult r = find_significant_levels(agg);
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_EQ(r.levels[0].result.partition.size(), 1u);
  // Constant-partition interval: only the two endpoint probes needed.
  EXPECT_LE(r.runs, 3u);
}

TEST(Dichotomy, EpsilonControlsResolution) {
  OwnedModel om = make_figure3_model();
  SpatiotemporalAggregator agg(om.model);
  const auto coarse =
      find_significant_levels(agg, {.epsilon = 0.25, .max_runs = 256});
  const auto fine =
      find_significant_levels(agg, {.epsilon = 1e-3, .max_runs = 256});
  EXPECT_LE(coarse.runs, fine.runs);
  EXPECT_LE(coarse.levels.size(), fine.levels.size());
}

TEST(Dichotomy, AdjacentLevelsDifferAndEveryProbeMatchesItsLevel) {
  // Levels are cut where the canonical partition changes (exact equality,
  // no hash), so adjacent levels must differ, and a solo run at every
  // probed p must reproduce the partition of the level covering it.  The
  // probe set is replayed here: the midpoint of every span wider than
  // epsilon whose endpoint partitions differ.
  const OwnedModel models[] = {
      make_figure3_model(),
      make_random_model({.levels = 2, .fanout = 3, .slices = 12,
                         .states = 3, .block_slices = 2, .seed = 91}),
  };
  const DichotomyOptions opt{.epsilon = 1e-3, .max_runs = 256};
  for (const OwnedModel& om : models) {
    SpatiotemporalAggregator agg(om.model);
    const DichotomyResult r = find_significant_levels(agg, opt);
    ASSERT_GE(r.levels.size(), 2u);
    ASSERT_LT(r.runs, opt.max_runs);  // the replay assumes no truncation
    for (std::size_t k = 0; k + 1 < r.levels.size(); ++k) {
      EXPECT_TRUE(r.levels[k].result.partition !=
                  r.levels[k + 1].result.partition)
          << "levels " << k << " and " << k + 1;
    }

    SpatiotemporalAggregator solo(om.model);
    std::map<double, Partition> probed;
    const auto at = [&](double p) -> const Partition& {
      auto it = probed.find(p);
      if (it == probed.end()) it = probed.emplace(p, solo.run(p).partition).first;
      return it->second;
    };
    std::vector<std::pair<double, double>> spans{{0.0, 1.0}};
    while (!spans.empty()) {
      const auto [lo, hi] = spans.back();
      spans.pop_back();
      if (at(lo) == at(hi) || hi - lo <= opt.epsilon) continue;
      const double mid = 0.5 * (lo + hi);
      spans.emplace_back(lo, mid);
      spans.emplace_back(mid, hi);
    }
    EXPECT_EQ(probed.size(), r.runs);
    for (const auto& [p, partition] : probed) {
      const AggregationLevel* level = nullptr;
      for (const AggregationLevel& l : r.levels) {
        if (l.p_min <= p && p <= l.p_max) level = &l;
      }
      ASSERT_NE(level, nullptr) << "p=" << p << " lies in no level";
      EXPECT_TRUE(partition == level->result.partition) << "p=" << p;
    }
  }
}

}  // namespace
}  // namespace stagg
