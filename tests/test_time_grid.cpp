#include "model/time_grid.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"

namespace stagg {
namespace {

TEST(TimeGrid, BoundariesExactAtEnds) {
  const TimeGrid g(seconds(1.0), seconds(10.0), 30);
  EXPECT_EQ(g.slice_begin(0), seconds(1.0));
  EXPECT_EQ(g.slice_end(29), seconds(10.0));
  // Slices tile the window with no gaps.
  for (SliceId t = 1; t < 30; ++t) {
    EXPECT_EQ(g.slice_end(t - 1), g.slice_begin(t));
  }
}

TEST(TimeGrid, NoCumulativeDrift) {
  // A span that does not divide evenly: boundaries must still be monotone
  // and the summed durations equal the window exactly.
  const TimeGrid g(0, 1'000'000'007, 30);
  TimeNs total = 0;
  for (SliceId t = 0; t < 30; ++t) {
    EXPECT_LT(g.slice_begin(t), g.slice_end(t));
    total += g.slice_end(t) - g.slice_begin(t);
  }
  EXPECT_EQ(total, 1'000'000'007);
}

TEST(TimeGrid, SliceOfRoundTrips) {
  const TimeGrid g(0, seconds(3.0), 30);
  for (SliceId t = 0; t < 30; ++t) {
    EXPECT_EQ(g.slice_of(g.slice_begin(t)), t);
    EXPECT_EQ(g.slice_of(g.slice_end(t) - 1), t);
  }
}

TEST(TimeGrid, SliceOfClamps) {
  const TimeGrid g(seconds(1.0), seconds(2.0), 10);
  EXPECT_EQ(g.slice_of(0), 0);
  EXPECT_EQ(g.slice_of(seconds(5.0)), 9);
}

TEST(TimeGrid, OverlapFullInsideOutside) {
  const TimeGrid g(0, seconds(10.0), 10);  // 1 s slices
  // Interval spanning slices 2..4 partially.
  EXPECT_DOUBLE_EQ(g.overlap_s(seconds(2.5), seconds(4.5), 2), 0.5);
  EXPECT_DOUBLE_EQ(g.overlap_s(seconds(2.5), seconds(4.5), 3), 1.0);
  EXPECT_DOUBLE_EQ(g.overlap_s(seconds(2.5), seconds(4.5), 4), 0.5);
  EXPECT_DOUBLE_EQ(g.overlap_s(seconds(2.5), seconds(4.5), 5), 0.0);
  EXPECT_DOUBLE_EQ(g.overlap_s(seconds(2.5), seconds(4.5), 0), 0.0);
}

TEST(TimeGrid, IntervalDuration) {
  const TimeGrid g(0, seconds(30.0), 30);
  EXPECT_NEAR(g.interval_duration_s(0, 29), 30.0, 1e-9);
  EXPECT_NEAR(g.interval_duration_s(5, 9), 5.0, 1e-9);
  EXPECT_NEAR(g.slice_duration_s(7), 1.0, 1e-9);
}

TEST(TimeGrid, SliceOfExactEdgeOnNonDivisibleSpan) {
  // Regression: span 10 / count 3 gives edges {0, 3, 6, 10}; the plain
  // floor((time - begin) * count / span) maps the edge timestamp 3 to
  // slice 0 (3 * 3 / 10 = 0).  An event starting exactly on a slice edge
  // must land in the slice *starting* there, never the one before.
  const TimeGrid g(0, 10, 3);
  ASSERT_EQ(g.slice_begin(1), 3);
  EXPECT_EQ(g.slice_of(3), 1);
  for (SliceId t = 0; t < 3; ++t) {
    EXPECT_EQ(g.slice_of(g.slice_begin(t)), t) << "t=" << t;
    EXPECT_EQ(g.slice_of(g.slice_end(t) - 1), t) << "t=" << t;
  }
  // Sweep awkward spans: the round trip must hold on the edges of every
  // *non-empty* slice (span < count produces zero-width slices, which by
  // the half-open convention contain no timestamp at all — their edge
  // belongs to the next non-empty slice).
  for (const TimeNs span : {7LL, 101LL, 999'999'937LL}) {
    for (const std::int32_t count : {3, 13, 30}) {
      const TimeGrid grid(5, 5 + span, count);
      for (SliceId t = 0; t < count; ++t) {
        if (grid.slice_begin(t) == grid.slice_end(t)) continue;
        EXPECT_EQ(grid.slice_of(grid.slice_begin(t)), t)
            << "span=" << span << " count=" << count << " t=" << t;
        EXPECT_EQ(grid.slice_of(grid.slice_end(t) - 1), t)
            << "span=" << span << " count=" << count << " t=" << t;
      }
    }
  }
}

TEST(TimeGrid, DerivedWindowsMatchFreshGridsToZeroUlp) {
  // Satellite regression: 10^3 slides (with interleaved extensions and
  // contractions) derived step by step must produce slice edges that are
  // *bit-identical* (0 ULP, both the integer edges and the double
  // durations) to a grid built from scratch over the same span — edges are
  // always recomputed from the window origin, never accumulated.
  const TimeNs dt = 1'000'000;  // 1 ms slices
  TimeGrid g(seconds(2.0), seconds(2.0) + dt * 96, 96);
  for (int step = 0; step < 1000; ++step) {
    const int k = 1 + step % 3;
    if (step % 7 == 3 && g.slice_count() < 160) {
      g = g.extended(k);
    } else if (step % 7 == 5 && g.slice_count() > k + 32) {
      g = g.contracted(k);
    } else {
      g = g.advanced(k);
    }
    const TimeGrid fresh(g.begin(), g.end(), g.slice_count());
    ASSERT_EQ(g.uniform_dt_ns(), dt);
    for (SliceId t = 0; t < g.slice_count(); ++t) {
      ASSERT_EQ(g.slice_begin(t), fresh.slice_begin(t))
          << "step=" << step << " t=" << t;
      ASSERT_EQ(g.slice_end(t), fresh.slice_end(t))
          << "step=" << step << " t=" << t;
      // Double-typed durations too: bit-equality, not tolerance.
      ASSERT_EQ(g.slice_duration_s(t), fresh.slice_duration_s(t))
          << "step=" << step << " t=" << t;
    }
  }
}

TEST(TimeGrid, DerivedWindowHelpersValidate) {
  const TimeGrid uneven(0, 10, 3);  // no uniform dt
  EXPECT_EQ(uneven.uniform_dt_ns(), 0);
  EXPECT_THROW((void)uneven.advanced(1), InvalidArgument);
  EXPECT_THROW((void)uneven.extended(1), InvalidArgument);
  EXPECT_THROW((void)uneven.contracted(1), InvalidArgument);

  const TimeGrid g(0, 100, 10);
  EXPECT_EQ(g.uniform_dt_ns(), 10);
  EXPECT_THROW((void)g.extended(-1), InvalidArgument);
  EXPECT_THROW((void)g.contracted(10), InvalidArgument);
  EXPECT_THROW((void)g.contracted(-1), InvalidArgument);
  const TimeGrid back = g.advanced(-2);
  EXPECT_EQ(back.begin(), -20);
  EXPECT_EQ(back.end(), 80);
  EXPECT_EQ(g.contracted(9).slice_count(), 1);
}

TEST(TimeGrid, InvalidConstruction) {
  EXPECT_THROW(TimeGrid(0, 100, 0), InvalidArgument);
  EXPECT_THROW(TimeGrid(100, 100, 5), InvalidArgument);
  EXPECT_THROW(TimeGrid(200, 100, 5), InvalidArgument);
}

// Regression: slice edges are begin + span * t / count, so a window whose
// span * count exceeds INT64_MAX (or whose span itself overflows) used to
// be accepted and then computed edges through signed overflow.
TEST(TimeGrid, RejectsWindowsWhoseEdgeArithmeticOverflows) {
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
  constexpr TimeNs kMin = std::numeric_limits<TimeNs>::min();
  EXPECT_THROW(TimeGrid(0, TimeNs{1} << 62, 30), InvalidArgument);
  EXPECT_THROW(TimeGrid(kMin, kMax, 1), InvalidArgument);
  EXPECT_THROW(TimeGrid(-(TimeNs{1} << 62), TimeNs{1} << 62, 1),
               InvalidArgument);
  EXPECT_THROW(TimeGrid(0, kMax / 30 + 1, 30), InvalidArgument);

  // The largest span that still fits keeps exact edges up to end().
  const TimeGrid g(-5, -5 + kMax / 30, 30);
  EXPECT_EQ(g.slice_begin(0), -5);
  EXPECT_EQ(g.slice_end(29), g.end());
  EXPECT_EQ(g.slice_of(g.end() - 1), 29);
  EXPECT_EQ(g.slice_of(g.slice_begin(17)), 17);
  const TimeGrid whole(0, kMax, 1);
  EXPECT_EQ(whole.slice_end(0), kMax);
}

}  // namespace
}  // namespace stagg
